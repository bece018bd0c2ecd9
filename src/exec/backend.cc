#include "backend.h"

#include "common/logging.h"
#include "exec/cosim.h"
#include "exec/functional_backend.h"
#include "exec/remote_backend.h"
#include "exec/timing_backend.h"

namespace morphling::exec {

namespace {

Job
makeJob(const std::vector<tfhe::LweCiphertext> &inputs,
        const std::vector<tfhe::Torus32> &lut, bool sign_lut,
        tfhe::BatchOptions options)
{
    panic_if(sign_lut && lut.size() != 1,
             "sign jobs carry exactly one LUT entry (mu), got ",
             lut.size());
    Job job;
    job.inputs = &inputs;
    job.lut = &lut;
    job.signLut = sign_lut;
    job.options = options;
    return job;
}

} // namespace

const char *
backendKindName(BackendKind kind)
{
    switch (kind) {
      case BackendKind::kFunctional:
        return "functional";
      case BackendKind::kTiming:
        return "timing";
      case BackendKind::kCosim:
        return "cosim";
      case BackendKind::kRemote:
        return "remote";
    }
    panic("unknown backend kind ", static_cast<int>(kind));
}

Job
Job::batch(const std::vector<tfhe::LweCiphertext> &inputs,
           const std::vector<tfhe::Torus32> &lut,
           tfhe::BatchOptions options)
{
    return makeJob(inputs, lut, false, options);
}

Job
Job::sign(const std::vector<tfhe::LweCiphertext> &inputs,
          const std::vector<tfhe::Torus32> &mu, tfhe::BatchOptions options)
{
    return makeJob(inputs, mu, true, options);
}

std::unique_ptr<ExecutionBackend>
makeBackend(const tfhe::EvaluationKeys &keys, const BackendSpec &spec)
{
    switch (spec.kind) {
      case BackendKind::kFunctional:
        return std::make_unique<FunctionalBackend>(keys);
      case BackendKind::kTiming:
        return std::make_unique<TimingBackend>(spec.timing,
                                               keys.params);
      case BackendKind::kRemote:
        return std::make_unique<RemoteBackend>(keys, spec.remote);
      case BackendKind::kCosim: {
        CosimOptions options;
        options.referenceKeys = &keys;
        return std::make_unique<CosimBackend>(
            std::make_unique<FunctionalBackend>(keys),
            std::make_unique<TimingBackend>(spec.timing, keys.params),
            options);
      }
    }
    panic("unknown backend kind ", static_cast<int>(spec.kind));
}

} // namespace morphling::exec
