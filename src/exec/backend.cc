#include "backend.h"

#include "common/logging.h"
#include "exec/cosim.h"
#include "exec/functional_backend.h"
#include "exec/remote_backend.h"
#include "exec/timing_backend.h"

namespace morphling::exec {

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
    return Job{&inputs, &lut, false, options};
}

Job
Job::sign(const std::vector<tfhe::LweCiphertext> &inputs,
          const std::vector<tfhe::Torus32> &mu, tfhe::BatchOptions options)
{
    return Job{&inputs, &mu, true, options};
}

std::optional<std::string>
validateJob(const compiler::ProgramPlan &plan, const Job &job,
            const tfhe::TfheParams &params)
{
    const std::size_t inputs = job.inputs ? job.inputs->size() : 0;
    if (inputs != plan.slots) {
        return detail::concat("job has ", inputs,
                              " inputs for a program of ", plan.slots,
                              " slots");
    }
    for (std::size_t i = 0; i < inputs; ++i) {
        if ((*job.inputs)[i].dimension() != params.lweDimension) {
            return detail::concat("input ", i, " has dimension ",
                                  (*job.inputs)[i].dimension(),
                                  " but the keys expect n = ",
                                  params.lweDimension);
        }
    }
    const std::size_t entries = job.lut ? job.lut->size() : 0;
    if (plan.slots > 0 && entries == 0)
        return std::string("a program with slots needs a LUT");
    if (job.signLut && entries != 1) {
        return detail::concat("sign jobs carry exactly one LUT entry "
                              "(mu), got ",
                              entries);
    }
    if (!job.signLut && 2 * entries > params.polyDegree) {
        return detail::concat("LUT of ", entries,
                              " entries does not fit N = ",
                              params.polyDegree);
    }
    return std::nullopt;
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
