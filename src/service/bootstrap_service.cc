#include "bootstrap_service.h"

#include <algorithm>
#include <exception>
#include <stdexcept>

#include "common/logging.h"
#include "exec/circuit_executor.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"
#include "tfhe/verify.h"

namespace morphling::service {

namespace {

double
toMicros(ServiceClock::duration d)
{
    return std::chrono::duration<double, std::micro>(d).count();
}

#if MORPHLING_TELEMETRY_ENABLED
/** Process-wide scrapeable mirror of the per-service ServiceStats: the
 *  registry view a metrics endpoint exposes (docs/observability.md).
 *  Resolved once; all update paths are lock-free. */
struct ServiceTelem
{
    telemetry::MetricsRegistry &reg = telemetry::MetricsRegistry::instance();
    telemetry::Counter &accepted =
        reg.counter("service.requests_accepted",
                    "requests admitted past backpressure");
    telemetry::Counter &rejected =
        reg.counter("service.requests_rejected",
                    "trySubmit refusals (queue full)");
    telemetry::Counter &completed =
        reg.counter("service.requests_completed", "promises fulfilled");
    telemetry::Counter &failed =
        reg.counter("service.requests_failed",
                    "promises failed by a backend exception");
    telemetry::Counter &batches =
        reg.counter("service.superbatches", "batches dispatched");
    telemetry::Counter &flushFull =
        reg.counter("service.flush_full",
                    "batches dispatched at full size");
    telemetry::Counter &flushTimer =
        reg.counter("service.flush_timer",
                    "partial batches shipped by the flush timer");
    telemetry::Counter &flushDrain =
        reg.counter("service.flush_drain",
                    "partial batches shipped by shutdown drain");
    telemetry::Gauge &queueDepth =
        reg.gauge("service.queue_depth",
                  "submitted requests awaiting superbatch assembly");
    telemetry::Gauge &outstanding =
        reg.gauge("service.outstanding",
                  "accepted-but-uncompleted requests");
    telemetry::Histogram &occupancy =
        reg.histogram("service.batch_occupancy",
                      "requests per dispatched batch");
    telemetry::Histogram &batchLatencyUs =
        reg.histogram("service.batch_latency_us",
                      "batch assembly -> completion");
    telemetry::Histogram &requestLatencyUs =
        reg.histogram("service.request_latency_us",
                      "submit -> completion");
    telemetry::Counter &circuits =
        reg.counter("service.circuits", "circuit submissions accepted");
    telemetry::Histogram &circuitLatencyUs =
        reg.histogram("service.circuit_latency_us",
                      "submitCircuit -> completion");

    static ServiceTelem &
    get()
    {
        static ServiceTelem telem;
        return telem;
    }
};
#endif // MORPHLING_TELEMETRY_ENABLED

ServiceConfig
normalized(ServiceConfig config)
{
    if (config.numWorkers == 0) {
        config.numWorkers =
            std::max(1u, std::thread::hardware_concurrency());
    }
    return config;
}

/** `config`, once `keys` pass tfhe::verify: the keyed constructors
 *  refuse keys no worker could run before any worker starts. */
ServiceConfig
requireUsable(const tfhe::EvaluationKeys &keys, ServiceConfig config)
{
    if (const auto problem = tfhe::verify(keys))
        throw std::invalid_argument("BootstrapService: " + *problem);
    return config;
}

} // namespace

std::optional<std::string>
ServiceConfig::validate() const
{
    if (superbatchSize == 0)
        return "superbatchSize must be positive";
    if (maxOutstanding == 0)
        return "maxOutstanding must be positive";
    if (maxWait.count() < 0)
        return "maxWait must be non-negative (a negative flush timer "
               "would ship every batch before it can fill)";
    if (backend == exec::BackendKind::kTiming) {
        return "BackendKind::kTiming produces cycle counts, not "
               "ciphertexts; the service cannot fulfil requests with "
               "it (use kFunctional, or kCosim for a checked run)";
    }
    if (batch.checkNoise && batch.minSlotSigmas <= 0) {
        return "batch.checkNoise with minSlotSigmas <= 0 can never "
               "flag a thin noise margin; use a positive threshold or "
               "disable checkNoise";
    }
    if (backend == exec::BackendKind::kRemote && remote.port == 0) {
        return "BackendKind::kRemote needs remote.port (the "
               "RemoteServer's TCP port; 0 is not a destination)";
    }
    if (backend == exec::BackendKind::kRemote &&
        remote.maxAttempts == 0) {
        return "remote.maxAttempts must be >= 1 (a request needs at "
               "least one attempt)";
    }
    return std::nullopt;
}

BootstrapService::BootstrapService(tfhe::EvaluationKeys keys,
                                   ServiceConfig config)
    : BootstrapService(requireUsable(keys, std::move(config)))
{
    ownKeys_.keys =
        std::make_shared<const tfhe::EvaluationKeys>(std::move(keys));
    // Fingerprint once per service, not once per batch: every worker
    // backend the kRemote path builds would otherwise re-serialize
    // the BSK just to identify the keys.
    ownKeys_.fingerprint = config_.remote.fingerprint;
    if (config_.backend == exec::BackendKind::kRemote && !ownKeys_.fingerprint)
        ownKeys_.fingerprint = tfhe::fingerprintEvaluationKeys(*ownKeys_.keys);
    addLane(nullptr);
}

BootstrapService::BootstrapService(ServiceConfig config)
    : config_(normalized(std::move(config))), start_(ServiceClock::now())
{
    // A misconfigured service is the caller's error to report, not a
    // process abort: validate() returns the diagnostic, we throw it.
    if (const auto error = config_.validate())
        throw std::invalid_argument("BootstrapService: " + *error);
    if (!config_.programCacheDir.empty()) {
        diskCache_ = std::make_unique<compiler::ProgramDiskCache>(
            config_.programCacheDir);
    }

    assembler_ = std::thread(&BootstrapService::assemblerMain, this);
    workers_.reserve(config_.numWorkers);
    for (unsigned w = 0; w < config_.numWorkers; ++w)
        workers_.emplace_back(&BootstrapService::workerMain, this);
}

BootstrapService::BootstrapService(const tfhe::KeySet &keys,
                                   ServiceConfig config)
    : BootstrapService(tfhe::EvaluationKeys::fromKeySet(keys),
                       std::move(config))
{
}

BootstrapService::~BootstrapService()
{
    shutdown();
}

std::size_t
BootstrapService::addLane(CompletionObserver observer)
{
    std::lock_guard<std::mutex> lk(mu_);
    lanes_.emplace_back().observer = std::move(observer);
    return lanes_.size() - 1;
}

void
BootstrapService::setLaneWeight(std::size_t lane, unsigned weight)
{
    std::lock_guard<std::mutex> lk(mu_);
    lanes_.at(lane).weight = weight;
}

void
BootstrapService::validateLut(const std::vector<tfhe::Torus32> &lut,
                              const tfhe::TfheParams &params)
{
    // The padded test polynomial gives each entry two of its N
    // coefficients (tfhe/bootstrap.cc).
    if (lut.empty() || 2 * lut.size() > params.polyDegree) {
        throw std::invalid_argument(
            "BootstrapService: a LUT needs 1 to N/2 = " +
            std::to_string(params.polyDegree / 2) + " entries, got " +
            std::to_string(lut.size()));
    }
}

void
BootstrapService::validateCircuitInputs(const circuit::Circuit &circuit,
                                        std::size_t inputs)
{
    if (inputs != circuit.numInputs()) {
        throw std::invalid_argument(
            "BootstrapService: circuit has " +
            std::to_string(circuit.numInputs()) + " inputs, got " +
            std::to_string(inputs));
    }
}

LutId
BootstrapService::registerLut(std::vector<tfhe::Torus32> lut)
{
    return registerLut(0, std::move(lut), ownKeys_.keys->params);
}

LutId
BootstrapService::registerLut(std::size_t lane,
                              std::vector<tfhe::Torus32> lut,
                              const tfhe::TfheParams &params,
                              const std::shared_ptr<const void> &owner)
{
    validateLut(lut, params);
    auto table = std::make_shared<LutTable>();
    table->values = std::move(lut);

    std::lock_guard<std::mutex> lk(mu_);
    if (draining_) {
        throw std::logic_error(
            "BootstrapService: registerLut on a shut-down service");
    }
    // Reclaim the ids whose owner expired (every request routed under
    // them has completed), and reuse the first free slot, so bucket
    // scans stay as long as the most ids ever held at once.
    std::optional<LutId> slot;
    for (LutId id = 0; id < luts_.size(); ++id) {
        LutEntry &entry = luts_[id];
        if (entry.owner && entry.owner->expired()) {
            panic_if(!entry.pending.empty(), "reclaiming LUT id ", id,
                     " with queued requests");
            entry = {};
        }
        if (entry.table == nullptr && !slot)
            slot = id;
    }
    const LutId id = slot.value_or(static_cast<LutId>(luts_.size()));
    LutEntry &entry = id < luts_.size() ? luts_[id] : luts_.emplace_back();
    entry.lane = lane;
    entry.table = std::move(table);
    if (owner != nullptr)
        entry.owner = owner;
    return id;
}

std::future<tfhe::LweCiphertext>
BootstrapService::submit(tfhe::LweCiphertext ct, LutId lut,
                         std::optional<ServiceClock::time_point> deadline)
{
    return std::move(*enqueue(std::move(ct), lut, ownKeys_, deadline,
                              /*block=*/true));
}

std::optional<std::future<tfhe::LweCiphertext>>
BootstrapService::trySubmit(
    tfhe::LweCiphertext ct, LutId lut,
    std::optional<ServiceClock::time_point> deadline)
{
    return enqueue(std::move(ct), lut, ownKeys_, deadline,
                   /*block=*/false);
}

std::future<std::vector<tfhe::LweCiphertext>>
BootstrapService::submitCircuit(circuit::Circuit circuit,
                                std::vector<tfhe::LweCiphertext> inputs)
{
    return enqueueCircuit(0, ownKeys_, std::move(circuit),
                          std::move(inputs));
}

bool
BootstrapService::awaitSpaceLocked(std::unique_lock<std::mutex> &lk,
                                   const Lane &lane, bool block,
                                   const char *what)
{
    if (!block) {
        if (!draining_ && lane.outstanding < config_.maxOutstanding)
            return true;
        ++stats_.rejected;
        MORPHLING_TELEMETRY_ONLY(ServiceTelem::get().rejected.inc();)
        return false;
    }
    if (draining_) {
        throw std::logic_error(std::string("BootstrapService: ") + what +
                               " on a shut-down service");
    }
    spaceCv_.wait(lk, [&] {
        return draining_ || lane.outstanding < config_.maxOutstanding;
    });
    if (draining_) {
        throw std::logic_error(
            std::string("BootstrapService: shut down under a blocked ") +
            what);
    }
    return true;
}

std::future<std::vector<tfhe::LweCiphertext>>
BootstrapService::enqueueCircuit(std::size_t lane, KeyPin pin,
                                 circuit::Circuit circuit,
                                 std::vector<tfhe::LweCiphertext> inputs)
{
    MORPHLING_SPAN("service", "submit_circuit");
    validateCircuitInputs(circuit, inputs.size());

    CircuitJob job;
    // A circuit's admission weight is its bootstrap count, so a large
    // circuit occupies proportional superbatch capacity; linear-only
    // circuits still weigh 1 (they hold a promise slot).
    job.cost = std::max<std::uint64_t>(1, circuit.bootstrapCount());
    job.circuit = std::move(circuit);
    job.inputs = std::move(inputs);
    job.pin = std::move(pin);
    auto future = job.promise.get_future();
    {
        std::unique_lock<std::mutex> lk(mu_);
        Lane &target = lanes_.at(lane);
        awaitSpaceLocked(lk, target, /*block=*/true, "submitCircuit");
        job.submitted = ServiceClock::now();
        target.outstanding += job.cost;
        outstanding_ += job.cost;
        ++stats_.circuits;
        MORPHLING_TELEMETRY_ONLY({
            auto &telem = ServiceTelem::get();
            telem.circuits.inc();
            telem.outstanding.set(static_cast<double>(outstanding_));
        })
        target.circuits.push_back(std::move(job));
        ++readyWork_;
    }
    workCv_.notify_one();
    return future;
}

std::optional<std::future<tfhe::LweCiphertext>>
BootstrapService::enqueue(
    tfhe::LweCiphertext ct, LutId lut, KeyPin pin,
    std::optional<ServiceClock::time_point> deadline, bool block)
{
    MORPHLING_SPAN("service", "submit");
    std::future<tfhe::LweCiphertext> future;
    {
        std::unique_lock<std::mutex> lk(mu_);
        if (lut >= luts_.size() || luts_[lut].table == nullptr) {
            throw std::out_of_range("BootstrapService: unknown LUT id " +
                                    std::to_string(lut));
        }
        Lane &lane = lanes_[luts_[lut].lane];
        if (!awaitSpaceLocked(lk, lane, block, "submit"))
            return std::nullopt;

        Request request;
        request.ct = std::move(ct);
        request.pin = std::move(pin);
        request.deadline = deadline;
        request.submitted = ServiceClock::now();
        future = request.promise.get_future();
        luts_[lut].pending.push_back(std::move(request));
        ++pendingCount_;
        ++lane.outstanding;
        ++outstanding_;
        ++stats_.accepted;
        MORPHLING_TELEMETRY_ONLY({
            auto &telem = ServiceTelem::get();
            telem.accepted.inc();
            telem.queueDepth.set(static_cast<double>(pendingCount_));
            telem.outstanding.set(static_cast<double>(outstanding_));
        })
    }
    // Wake the assembler: the bucket may be full, or the new request's
    // timer/deadline may be earlier than its current sleep target.
    assembleCv_.notify_one();
    return future;
}

void
BootstrapService::flush()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        flushRequested_ = true;
    }
    assembleCv_.notify_one();
}

void
BootstrapService::assembleLocked(LutId lut, FlushReason reason)
{
    MORPHLING_SPAN("service", "assemble");
    auto &bucket = luts_[lut].pending;
    const std::size_t take =
        std::min<std::size_t>(bucket.size(), config_.superbatchSize);
    panic_if(take == 0, "assembling an empty bucket");

    Superbatch batch;
    batch.lut = luts_[lut].table;
    batch.requests.reserve(take);
    const auto now = ServiceClock::now();
    for (std::size_t i = 0; i < take; ++i) {
        Request &request = bucket.front();
        stats_.queueLatencyUs.sample(toMicros(now - request.submitted));
        if (request.deadline && now > *request.deadline)
            ++stats_.deadlineMisses;
        batch.requests.push_back(std::move(request));
        bucket.pop_front();
    }
    pendingCount_ -= take;

    ++stats_.superbatches;
    stats_.occupancy.sample(static_cast<double>(take));
    const bool full = reason == FlushReason::kFull;
    const bool timer = reason == FlushReason::kTimer;
    ++(full ? stats_.fullBatches
            : timer ? stats_.timerFlushes : stats_.drainFlushes);
    MORPHLING_TELEMETRY_ONLY({
        auto &telem = ServiceTelem::get();
        telem.batches.inc();
        telem.occupancy.observe(static_cast<double>(take));
        telem.queueDepth.set(static_cast<double>(pendingCount_));
        (full ? telem.flushFull : timer ? telem.flushTimer
                                        : telem.flushDrain).inc();
    })

    lanes_[luts_[lut].lane].ready.push_back(std::move(batch));
    ++readyWork_;
}

BootstrapService::Lane &
BootstrapService::nextLaneLocked()
{
    // Each pass over the lanes credits every backlogged one, so a
    // circuit costing C bootstraps waits at most C / superbatchSize
    // passes — amortized, a constant per bootstrap.
    for (;;) {
        Lane &lane = lanes_[drrCursor_];
        if (!lane.hasWork()) {
            lane.deficit = 0; // an idle lane banks no credit
        } else if (lane.deficit >= lane.headCost()) {
            lane.deficit -= lane.headCost();
            return lane;
        }
        drrCursor_ = (drrCursor_ + 1) % lanes_.size();
        Lane &next = lanes_[drrCursor_];
        if (next.hasWork())
            next.deficit +=
                std::uint64_t{config_.superbatchSize} * next.weight;
    }
}

ServiceClock::time_point
BootstrapService::dueAt(const std::deque<Request> &bucket) const
{
    auto due = bucket.front().submitted + config_.maxWait;
    for (const auto &request : bucket) {
        if (request.deadline && *request.deadline < due)
            due = *request.deadline;
    }
    return due;
}

std::optional<ServiceClock::time_point>
BootstrapService::nextDueLocked() const
{
    std::optional<ServiceClock::time_point> due;
    for (const auto &entry : luts_) {
        if (entry.pending.empty())
            continue;
        const auto at = dueAt(entry.pending);
        if (!due || at < *due)
            due = at;
    }
    return due;
}

void
BootstrapService::assemblerMain()
{
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
        bool assembled = false;
        const auto now = ServiceClock::now();
        for (LutId lut = 0; lut < luts_.size(); ++lut) {
            const auto &bucket = luts_[lut].pending;
            // Full buckets always ship (a bucket can exceed the batch
            // size if submissions outpace this thread); the rest ships
            // on drain, on flush(), or once due.
            while (bucket.size() >= config_.superbatchSize) {
                assembleLocked(lut, FlushReason::kFull);
                assembled = true;
            }
            if (bucket.empty() ||
                !(draining_ || flushRequested_ || now >= dueAt(bucket)))
                continue;
            assembleLocked(lut, draining_ ? FlushReason::kDrain
                                          : FlushReason::kTimer);
            assembled = true;
        }
        flushRequested_ = false;

        if (assembled)
            workCv_.notify_all();
        if (draining_ && pendingCount_ == 0)
            break;

        if (const auto due = nextDueLocked())
            assembleCv_.wait_until(lk, *due);
        else
            assembleCv_.wait(lk);
    }
    assemblerDone_ = true;
    lk.unlock();
    workCv_.notify_all();
}

const BootstrapService::CachedBatch &
BootstrapService::batchCircuitFor(const Superbatch &batch)
{
    const std::size_t count = batch.requests.size();
    std::lock_guard<std::mutex> lk(programMu_);
    auto &programs = batch.lut->programs;
    auto it = programs.find(count);
    if (it == programs.end()) {
        MORPHLING_SPAN("service", "compile_batch");
        // The one-level circuit: `count` word inputs, each bootstrapped
        // through the registered LUT. Its single LoweredStep's Program
        // is exactly scheduleBootstrapBatch(count), so caching by
        // (lut, count) caches every batch shape's Program. A LUT id
        // belongs to one key set, so its params never change.
        CachedBatch cached;
        cached.circuit = std::make_unique<circuit::Circuit>();
        const circuit::LutId table_id =
            cached.circuit->registerTorusLut(batch.lut->values);
        for (std::size_t i = 0; i < count; ++i) {
            const circuit::Wire in = cached.circuit->wordInput(0);
            cached.circuit->markOutput(
                cached.circuit->applyLut(table_id, in));
        }
        const compiler::SwScheduler scheduler(
            batch.requests.front().pin.keys->params);
        cached.lowered = circuit::lower(*cached.circuit, scheduler,
                                        diskCache_.get());
        it = programs.emplace(count, std::move(cached)).first;
    }
    return it->second;
}

std::vector<tfhe::LweCiphertext>
BootstrapService::runLowered(const circuit::LoweredCircuit &lowered,
                             const std::vector<tfhe::LweCiphertext> &inputs,
                             const KeyPin &pin) const
{
    exec::BackendSpec spec;
    spec.kind = config_.backend;
    spec.timing = config_.timing;
    spec.remote = config_.remote;
    spec.remote.fingerprint = pin.fingerprint;
    const auto backend = exec::makeBackend(*pin.keys, spec);
    exec::CircuitExecutor executor(pin.keys->params, *backend,
                                   config_.batch);
    return executor.run(lowered, inputs).outputs;
}

std::vector<tfhe::LweCiphertext>
BootstrapService::executeBatch(
    const Superbatch &batch,
    const std::vector<tfhe::LweCiphertext> &inputs)
{
    const CachedBatch &cached = batchCircuitFor(batch);
    const KeyPin &pin = batch.requests.front().pin;

    auto outputs = runLowered(cached.lowered, inputs, pin);
    panic_if(outputs.size() != inputs.size(), "batch circuit produced ",
             outputs.size(), " outputs for ", inputs.size(), " requests");
    return outputs;
}

std::vector<tfhe::LweCiphertext>
BootstrapService::executeCircuit(CircuitJob &job)
{
    MORPHLING_SPAN("service", "execute_circuit");
    // The disk cache is single-threaded by contract; circuit lowering
    // from concurrent workers serializes on programMu_ only when one
    // is attached (compilation is cheap next to execution).
    const compiler::SwScheduler scheduler(job.pin.keys->params);
    const auto lowered = [&] {
        if (diskCache_ == nullptr)
            return circuit::lower(job.circuit, scheduler);
        std::lock_guard<std::mutex> lk(programMu_);
        return circuit::lower(job.circuit, scheduler, diskCache_.get());
    }();
    return runLowered(lowered, job.inputs, job.pin);
}

void
BootstrapService::workerMain()
{
    for (;;) {
        Superbatch batch;
        CircuitJob circuit_job;
        Lane *lane = nullptr;
        {
            std::unique_lock<std::mutex> lk(mu_);
            workCv_.wait(lk,
                         [&] { return readyWork_ != 0 || assemblerDone_; });
            if (readyWork_ == 0)
                return; // drained and assembler retired
            lane = &nextLaneLocked();
            --readyWork_;
            if (!lane->ready.empty()) {
                // Superbatches first: they aggregate many small
                // requests whose latency budget is the flush timer.
                batch = std::move(lane->ready.front());
                lane->ready.pop_front();
            } else {
                circuit_job = std::move(lane->circuits.front());
                lane->circuits.pop_front();
            }
        }

        if (batch.lut == nullptr) {
            std::vector<tfhe::LweCiphertext> outputs;
            try {
                outputs = executeCircuit(circuit_job);
            } catch (...) {
                releaseFailed(*lane, circuit_job.cost, true);
                circuit_job.promise.set_exception(std::current_exception());
                continue;
            }
            const auto t1 = ServiceClock::now();
            {
                std::lock_guard<std::mutex> lk(mu_);
                ++stats_.circuitsCompleted;
                stats_.circuitBootstraps +=
                    circuit_job.circuit.bootstrapCount();
                stats_.circuitLatencyUs.sample(
                    toMicros(t1 - circuit_job.submitted));
                lane->outstanding -= circuit_job.cost;
                outstanding_ -= circuit_job.cost;
                MORPHLING_TELEMETRY_ONLY({
                    auto &telem = ServiceTelem::get();
                    telem.circuitLatencyUs.observe(
                        toMicros(t1 - circuit_job.submitted));
                    telem.outstanding.set(
                        static_cast<double>(outstanding_));
                })
            }
            spaceCv_.notify_all();
            if (lane->observer) {
                CompletionInfo info;
                info.latencyUs = toMicros(t1 - circuit_job.submitted);
                info.bootstraps = circuit_job.cost;
                lane->observer(info);
            }
            circuit_job.promise.set_value(std::move(outputs));
            continue;
        }

        const std::size_t count = batch.requests.size();
        std::vector<tfhe::LweCiphertext> inputs;
        inputs.reserve(count);
        for (auto &request : batch.requests)
            inputs.push_back(std::move(request.ct));

        const auto t0 = ServiceClock::now();
        std::vector<tfhe::LweCiphertext> outputs;
        try {
            MORPHLING_SPAN("service", "execute_batch");
            outputs = executeBatch(batch, inputs);
        } catch (...) {
            // A backend failure (a dead remote server, a cosim
            // divergence) fails this batch's requests, not the process.
            const std::exception_ptr error = std::current_exception();
            releaseFailed(*lane, count, false);
            for (auto &request : batch.requests)
                request.promise.set_exception(error);
            continue;
        }
        const auto t1 = ServiceClock::now();
        panic_if(outputs.size() != count, "batch size mismatch");

        // Book-keeping before fulfilling the promises, so a client
        // that sees its future ready also sees it counted.
        {
            std::lock_guard<std::mutex> lk(mu_);
            stats_.completed += count;
            stats_.batchLatencyUs.sample(toMicros(t1 - t0));
            for (const auto &request : batch.requests) {
                stats_.requestLatencyUs.sample(
                    toMicros(t1 - request.submitted));
            }
            lane->outstanding -= count;
            outstanding_ -= count;
            MORPHLING_TELEMETRY_ONLY({
                auto &telem = ServiceTelem::get();
                telem.completed.inc(count);
                telem.outstanding.set(
                    static_cast<double>(outstanding_));
                telem.batchLatencyUs.observe(toMicros(t1 - t0));
                for (const auto &request : batch.requests) {
                    telem.requestLatencyUs.observe(
                        toMicros(t1 - request.submitted));
                }
            })
        }
        spaceCv_.notify_all();

        // Per-request completion hook (tenant SLO tracking): fired
        // before the promises so a client that sees its future ready
        // also sees its latency recorded.
        if (lane->observer) {
            for (const auto &request : batch.requests) {
                CompletionInfo info;
                info.latencyUs = toMicros(t1 - request.submitted);
                info.deadlineMissed =
                    request.deadline && t1 > *request.deadline;
                lane->observer(info);
            }
        }

        MORPHLING_SPAN("service", "complete");
        for (std::size_t i = 0; i < count; ++i)
            batch.requests[i].promise.set_value(
                std::move(outputs[i]));
    }
}

void
BootstrapService::releaseFailed(Lane &lane, std::size_t cost,
                                bool circuit)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (circuit)
            ++stats_.circuitsFailed;
        else
            stats_.failed += cost;
        lane.outstanding -= cost;
        outstanding_ -= cost;
        MORPHLING_TELEMETRY_ONLY({
            auto &telem = ServiceTelem::get();
            if (!circuit)
                telem.failed.inc(cost);
            telem.outstanding.set(static_cast<double>(outstanding_));
        })
    }
    spaceCv_.notify_all();
}

void
BootstrapService::shutdown()
{
    std::lock_guard<std::mutex> shutdown_lock(shutdownMu_);
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (stopped_)
            return;
        draining_ = true;
    }
    assembleCv_.notify_all();
    spaceCv_.notify_all();
    if (assembler_.joinable())
        assembler_.join();
    workCv_.notify_all();
    for (auto &worker : workers_) {
        if (worker.joinable())
            worker.join();
    }
    std::lock_guard<std::mutex> lk(mu_);
    stopped_ = true;
}

bool
BootstrapService::stopped() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return stopped_;
}

std::size_t
BootstrapService::outstanding() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return outstanding_;
}

ServiceStats
BootstrapService::stats() const
{
    std::uint64_t cache_hits = 0, cache_misses = 0, cache_rejects = 0;
    if (diskCache_ != nullptr) {
        std::lock_guard<std::mutex> lk(programMu_);
        cache_hits = diskCache_->hits();
        cache_misses = diskCache_->misses();
        cache_rejects = diskCache_->rejects();
    }
    std::lock_guard<std::mutex> lk(mu_);
    ServiceStats out = stats_;
    out.programCacheHits = cache_hits;
    out.programCacheMisses = cache_misses;
    out.programCacheRejects = cache_rejects;
    out.pending = pendingCount_;
    out.outstanding = outstanding_;
    out.luts = static_cast<std::uint64_t>(std::count_if(
        luts_.begin(), luts_.end(),
        [](const LutEntry &entry) { return entry.table != nullptr; }));
    out.elapsedSeconds = std::chrono::duration<double>(
                             ServiceClock::now() - start_)
                             .count();
    return out;
}

} // namespace morphling::service
