/**
 * @file
 * The layer-peel probe of a traced run. It pushes a sample of the
 * workload's own inputs through each public entry point in turn and
 * times every call as one span; a layer's added time is its span minus
 * the span of the layer beneath it, measured on the same inputs:
 *
 *   stage functions -> bootstrapInto            (tfhe)
 *   bootstrapInto x 64 -> FunctionalBackend::run (exec)
 *   bootstraps -> CircuitExecutor::run           (exec, circuit)
 *   parallel FunctionalBackend -> BootstrapService (service)
 *   BootstrapService -> MultiTenantService       (tenant)
 *   FunctionalBackend -> loopback RemoteBackend  (exec, remote)
 */

#include <algorithm>
#include <atomic>
#include <future>
#include <thread>

#include "circuit/lowering.h"
#include "compiler/sw_scheduler.h"
#include "exec/circuit_executor.h"
#include "exec/functional_backend.h"
#include "exec/remote_backend.h"
#include "exec/remote_server.h"
#include "service/bootstrap_service.h"
#include "service/multi_tenant_service.h"
#include "workloads.h"

namespace perfbench {

using namespace morphling;

namespace {

constexpr unsigned kSuperbatch = compiler::kSuperbatchSize;
constexpr unsigned kSuperbatches = 4; //!< requests = 4 x 64

/** Repetitions that fit `budgetUs` at `costUs` each, within [lo, hi]. */
unsigned
repsFor(double budgetUs, double costUs, unsigned lo, unsigned hi)
{
    const double fit = costUs > 0 ? budgetUs / costUs : hi;
    return std::clamp(static_cast<unsigned>(fit), lo, hi);
}

/** True when outs[i] decrypts to LUT A of the i-th sample input (the
 *  sample repeats every kSuperbatch outputs). */
bool
sampleOk(const Kit &kit, const std::vector<tfhe::LweCiphertext> &outs)
{
    bool ok = true;
    for (std::size_t i = 0; i < outs.size(); ++i)
        ok &= kit.checkPadded(outs[i],
                              lutA(kit.poolMessages[i % kSuperbatch]));
    return ok;
}

/** Submit the sample kSuperbatches times and wait for every output;
 *  `submit` maps (ciphertext) -> future. Returns false on a wrong
 *  decryption. */
template <class Submit>
bool
pushSample(const std::vector<tfhe::LweCiphertext> &sample, const Kit &kit,
           Submit &&submit)
{
    std::vector<std::future<tfhe::LweCiphertext>> futures;
    futures.reserve(kSuperbatches * sample.size());
    for (unsigned g = 0; g < kSuperbatches; ++g) {
        for (const auto &ct : sample)
            futures.push_back(submit(ct));
    }
    std::vector<tfhe::LweCiphertext> outs;
    outs.reserve(futures.size());
    for (auto &f : futures)
        outs.push_back(f.get());
    return sampleOk(kit, outs);
}

/** kSuperbatches runs of the 64-wide program spread over `threads`
 *  FunctionalBackends: the service's execution without the service.
 *  Returns false on a wrong decryption. */
bool
runParallel(const Kit &kit, const compiler::Program &program,
            const exec::Job &job, unsigned threads)
{
    std::atomic<unsigned> next{0};
    std::atomic<bool> good{true};
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < std::min(threads, kSuperbatches); ++t) {
        pool.emplace_back([&] {
            exec::FunctionalBackend backend(kit.eval);
            while (next.fetch_add(1) < kSuperbatches) {
                if (!sampleOk(kit, backend.run(program, job).outputs))
                    good = false;
            }
        });
    }
    for (auto &t : pool)
        t.join();
    return good;
}

} // namespace

bool
probeLayers(const Kit &kit, Spans *spans, Metrics &out)
{
    const tfhe::TfheParams &params = *kit.params;
    const tfhe::EvaluationKeys &eval = kit.eval;
    const unsigned threads = servingWorkers();
    const std::vector<tfhe::LweCiphertext> sample(
        kit.pool.begin(), kit.pool.begin() + kSuperbatch);
    bool ok = true;

    // --- tfhe: one bootstrap and its four stages, warm, 1 thread ------
    tfhe::BootstrapWorkspace ws;
    ws.ensure(params.glweDimension, params.polyDegree, params.bskLevels,
              params.bskBaseBits);
    const tfhe::TorusPolynomial testPoly =
        tfhe::buildTestPolynomial(params.polyDegree, kit.tableA);
    tfhe::LweCiphertext result;
    tfhe::bootstrapInto(eval.bsk, eval.ksk, testPoly, sample[0], result, ws);
    constexpr unsigned kStageReps = 16;
    std::vector<double> bsUs, msUs, brUs, seUs, ksUs;
    for (unsigned i = 0; i < kStageReps; ++i) {
        const tfhe::LweCiphertext &ct = sample[i];
        bsUs.push_back(timedUs(spans, "tfhe.bootstrapInto", [&] {
            tfhe::bootstrapInto(eval.bsk, eval.ksk, testPoly, ct, result,
                                ws);
        }));
        ok &= kit.checkPadded(result, lutA(kit.poolMessages[i]));
        msUs.push_back(timedUs(spans, "tfhe.modSwitchInto", [&] {
            tfhe::modSwitchInto(ct, params.polyDegree, ws.switched);
        }));
        brUs.push_back(timedUs(spans, "tfhe.blindRotate", [&] {
            tfhe::blindRotate(eval.bsk, testPoly, ws.switched, ws.acc, ws);
        }));
        seUs.push_back(timedUs(spans, "tfhe.sampleExtract", [&] {
            ws.acc.sampleExtractAtInto(0, ws.extracted);
        }));
        ksUs.push_back(timedUs(spans, "tfhe.keySwitch", [&] {
            eval.ksk.applyInto(ws.extracted, result);
        }));
        ok &= kit.checkPadded(result, lutA(kit.poolMessages[i]));
    }
    const double bs = median(bsUs);
    out.set("tfhe.bs_us", bs, "us", kStageReps);
    out.set("tfhe.ms_us", median(msUs), "us", kStageReps);
    out.set("tfhe.br_us", median(brUs), "us", kStageReps);
    out.set("tfhe.se_us", median(seUs), "us", kStageReps);
    out.set("tfhe.ks_us", median(ksUs), "us", kStageReps);

    tfhe::BatchOptions allThreads;
    allThreads.threads = threads;
    std::vector<double> batchRates;
    const unsigned batchReps =
        repsFor(3e6, bs * kSuperbatch / threads, 3, 8);
    for (unsigned r = 0; r < batchReps; ++r) {
        std::vector<tfhe::LweCiphertext> outs;
        const double us = timedUs(spans, "tfhe.batchBootstrap", [&] {
            outs = tfhe::batchBootstrap(eval, sample, kit.tableA,
                                        allThreads);
        });
        ok &= sampleOk(kit, outs);
        batchRates.push_back(kSuperbatch / (us / 1e6));
    }
    out.set("tfhe.batch_bs_per_s", median(batchRates), "1/s",
            batchReps);

    // --- exec: FunctionalBackend vs the same 64 sequential bootstraps -
    const compiler::SwScheduler scheduler(params);
    const compiler::Program program64 =
        scheduler.scheduleBootstrapBatch(kSuperbatch);
    exec::FunctionalBackend functional(eval);
    const exec::Job job64 = exec::Job::batch(sample, kit.tableA);
    const unsigned execReps = repsFor(4e6, 2 * bs * kSuperbatch, 2, 5);
    std::vector<double> functionalAdded;
    for (unsigned r = 0; r < execReps; ++r) {
        exec::ExecutionResult res;
        const double runUs =
            timedUs(spans, "exec.FunctionalBackend.run",
                    [&] { res = functional.run(program64, job64); });
        ok &= sampleOk(kit, res.outputs);
        const double seqUs = timedUs(spans, "tfhe.bootstrapInto.x64", [&] {
            for (const auto &ct : sample)
                tfhe::bootstrapInto(eval.bsk, eval.ksk, testPoly, ct,
                                    result, ws);
        });
        functionalAdded.push_back(runUs - seqUs);
    }
    out.set("exec.functional_added_us", median(functionalAdded), "us",
            execReps);

    // --- circuit + exec: lowering and CircuitExecutor ------------------
    std::vector<double> lowerUs;
    circuit::LoweredCircuit lowered;
    for (unsigned r = 0; r < 20; ++r) {
        lowerUs.push_back(timedUs(spans, "circuit.lower", [&] {
            lowered = circuit::lower(kit.adder, scheduler);
        }));
    }
    out.set("circuit.lower_us", median(lowerUs), "us", lowerUs.size());
    out.set("circuit.levels", lowered.numLevels(), "count");
    out.set("circuit.bootstraps",
            static_cast<double>(lowered.totalBootstraps), "count");
    exec::CircuitExecutor executor(params, functional);
    const AdderCase &adderCase = kit.adderCases.front();
    const unsigned circuitReps =
        repsFor(3e6, bs * lowered.totalBootstraps, 2, 5);
    std::vector<double> circuitAdded;
    for (unsigned r = 0; r < circuitReps; ++r) {
        exec::CircuitResult res;
        const double us = timedUs(spans, "exec.CircuitExecutor.run", [&] {
            res = executor.run(lowered, adderCase.inputs);
        });
        ok &= kit.checkSum(res.outputs, adderCase);
        circuitAdded.push_back(us - bs * lowered.totalBootstraps);
    }
    out.set("exec.circuit_added_ms", median(circuitAdded) / 1e3, "ms",
            circuitReps);

    // --- service and tenant: BootstrapService, the same superbatches on
    // --- as many parallel FunctionalBackends, and a one-tenant
    // --- MultiTenantService, interleaved per repetition so host drift
    // --- hits all three alike ------------------------------------------
    const double requests = kSuperbatches * kSuperbatch;
    const unsigned serveReps = repsFor(6e6, 3 * bs * requests / threads, 2, 5);
    service::ServiceConfig config;
    config.numWorkers = threads;
    config.maxOutstanding = static_cast<std::size_t>(requests);
    config.maxWait = std::chrono::milliseconds(200);
    service::BootstrapService svc(eval, config);
    const service::LutId svcLut = svc.registerLut(kit.tableA);
    const auto submitSvc = [&](const tfhe::LweCiphertext &ct) {
        return svc.submit(ct, svcLut);
    };
    telemetry::MetricsRegistry registry;
    service::MultiTenantConfig mtConfig;
    mtConfig.service = config;
    mtConfig.metrics = &registry;
    service::MultiTenantService mts(mtConfig);
    service::TenantQuota quota;
    quota.weight = threads; // the same worker count as the service
    mts.addTenant("probe", eval, quota);
    const service::LutId mtsLut = mts.registerLut("probe", kit.tableA);
    const auto submitMts = [&](const tfhe::LweCiphertext &ct) {
        return mts.submit("probe", ct, mtsLut);
    };
    ok &= pushSample(sample, kit, submitSvc); // warm-up
    ok &= pushSample(sample, kit, submitMts);
    const service::ServiceStats before = svc.stats();
    std::vector<double> serviceAdded, tenantAdded;
    for (unsigned r = 0; r < serveReps; ++r) {
        const double parallelUs =
            timedUs(spans, "exec.FunctionalBackend.xN", [&] {
                ok &= runParallel(kit, program64, job64, threads);
            });
        const double serviceUs =
            timedUs(spans, "service.BootstrapService",
                    [&] { ok &= pushSample(sample, kit, submitSvc); });
        const double tenantUs =
            timedUs(spans, "tenant.MultiTenantService",
                    [&] { ok &= pushSample(sample, kit, submitMts); });
        serviceAdded.push_back((serviceUs - parallelUs) / requests);
        tenantAdded.push_back((tenantUs - serviceUs) / requests);
    }
    serviceLayers(before, svc.stats(), out);
    out.set("service.added_us_per_bs", median(serviceAdded), "us",
            serveReps);
    out.set("tenant.added_us_per_bs", median(tenantAdded), "us", serveReps);
    const service::TenantStats st = mts.stats("probe");
    // One tenant holds all the weight and does all the work.
    out.set("tenant.bulk_share", st.bootstraps > 0 ? 1.0 : 0.0, "x");
    out.set("tenant.throttled", static_cast<double>(st.throttled), "count");
    const auto reg = mts.registry().stats();
    out.set("tenant.registry_warmups", static_cast<double>(reg.warmUps),
            "count");
    out.set("tenant.registry_evictions", static_cast<double>(reg.evictions),
            "count");
    mts.shutdown();
    svc.shutdown();

    // --- exec: loopback RemoteBackend vs a local run, 1-LWE job --------
    {
        exec::RemoteServerConfig serverConfig;
        serverConfig.inner.kind = exec::BackendKind::kFunctional;
        exec::RemoteServer server(serverConfig);
        const tfhe::KeyFingerprint fp = server.addKeys(eval);
        server.start();
        exec::RemoteClientConfig client;
        client.port = server.port();
        client.fingerprint = fp;
        exec::RemoteBackend remote(eval, client);
        const compiler::Program program1 = scheduler.scheduleBootstrapBatch(1);
        const std::vector<tfhe::LweCiphertext> one{sample[0]};
        const exec::Job job1 = exec::Job::batch(one, kit.tableA);
        remote.run(program1, job1); // connect + handshake
        functional.run(program1, job1);
        std::vector<double> remoteAdded;
        for (unsigned r = 0; r < 10; ++r) {
            exec::ExecutionResult res;
            const double remoteUs = timedUs(spans, "exec.RemoteBackend.run",
                                            [&] {
                res = remote.run(program1, job1);
            });
            ok &= sampleOk(kit, res.outputs);
            const double localUs = timedUs(
                spans, "exec.FunctionalBackend.run1",
                [&] { functional.run(program1, job1); });
            remoteAdded.push_back(remoteUs - localUs);
        }
        out.set("exec.remote_added_us", median(remoteAdded), "us",
                remoteAdded.size());
        out.set("exec.wire_bytes_up",
                static_cast<double>(remote.lastBytesSent()), "B");
        out.set("exec.wire_bytes_down",
                static_cast<double>(remote.lastBytesReceived()), "B");
        const exec::RemoteServerStats st = server.stats();
        out.set("exec.server_replays", static_cast<double>(st.replays),
                "count");
        out.set("exec.server_rejected", static_cast<double>(st.rejected),
                "count");

        // --- compiler: scheduling and the framed container ------------
        std::vector<double> sched64, sched1, frame;
        for (unsigned r = 0; r < 20; ++r) {
            sched64.push_back(timedUs(spans, "compiler.schedule64", [&] {
                (void)scheduler.scheduleBootstrapBatch(kSuperbatch);
            }));
            sched1.push_back(timedUs(spans, "compiler.schedule1", [&] {
                (void)scheduler.scheduleBootstrapBatch(1);
            }));
        }
        for (unsigned r = 0; r < 50; ++r) {
            frame.push_back(timedUs(spans, "compiler.frameRoundtrip", [&] {
                const auto words = program1.serializeFramed();
                ok &= compiler::Program::tryDeserializeFramed(
                          program1.name(), words)
                          .has_value();
            }));
        }
        out.set("compiler.schedule64_us", median(sched64), "us",
                sched64.size());
        out.set("compiler.schedule1_us", median(sched1), "us",
                sched1.size());
        out.set("compiler.frame_roundtrip_us", median(frame), "us",
                frame.size());
        server.stop();
    }
    return ok;
}

} // namespace perfbench
