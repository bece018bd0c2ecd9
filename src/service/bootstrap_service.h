/**
 * @file
 * The concurrent bootstrap service layer: turns a stream of
 * independent LWE bootstrap requests into the 64-ciphertext
 * superbatches Morphling's scheduler is built around (Figure 6), and
 * runs them on a worker pool over pre-transformed evaluation keys.
 *
 * Request lifecycle (docs/service.md walks through it):
 *
 *   submit()/trySubmit() -> per-LUT pending bucket -> assembler thread
 *   groups compiler::kSuperbatchSize requests sharing a LUT into one
 *   Superbatch (or flushes a partial batch after maxWait, so light
 *   load still makes progress) -> worker pool lowers the batch as a
 *   one-level circuit to a Morphling Program (cached per LUT and batch
 *   size) and executes it through the ServiceConfig::backend execution
 *   backend (docs/execution_model.md) -> each request's std::future is
 *   fulfilled.
 *
 * Whole circuits ride the same pool: submitCircuit() accepts a
 * circuit::Circuit plus its input ciphertexts, a worker lowers it
 * (circuit/lowering.h) and runs the level-ordered Program DAG through
 * an exec::CircuitExecutor over the configured backend
 * (docs/circuit_ir.md). The single-LUT path above *is* the one-level
 * special case of this pipeline — one API, one execution substrate.
 *
 * Lanes: workers take ready work from per-lane queues by weighted
 * deficit round robin. The public constructors serve one lane over
 * one key set; the tenant front door (multi_tenant_service.h) opens a
 * lane per tenant on the same pool, each request pinning its keys.
 *
 * Backpressure: the number of accepted-but-uncompleted requests is
 * bounded per lane by ServiceConfig::maxOutstanding. submit() blocks
 * for space; trySubmit() fails fast and returns std::nullopt.
 *
 * Shutdown: shutdown() (or the destructor) stops admission, flushes
 * every partial batch, completes every accepted request, and joins all
 * threads. Registering a LUT or submitting after shutdown throws
 * std::logic_error, and so does a blocked submit() or submitCircuit()
 * that shutdown() wakes — do not race submitters against shutdown().
 *
 * Thread safety: every public method may be called from any thread.
 * Key material is read-only once pinned; each worker drives its own
 * execution backend instance, and the compiled-program cache is the
 * only state batches share.
 */

#ifndef MORPHLING_SERVICE_BOOTSTRAP_SERVICE_H
#define MORPHLING_SERVICE_BOOTSTRAP_SERVICE_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "arch/config.h"
#include "circuit/circuit.h"
#include "circuit/lowering.h"
#include "compiler/sw_scheduler.h"
#include "exec/backend.h"
#include "service/service_stats.h"
#include "tfhe/batch.h"

namespace morphling::service {

/** Handle to a LUT registered with the service. */
using LutId = std::uint32_t;

/** The clock used for deadlines, flush timing and latency stats. */
using ServiceClock = std::chrono::steady_clock;

/** One completed submission, as observed by the worker loop. */
struct CompletionInfo
{
    double latencyUs = 0;         //!< submit -> promise fulfilled
    std::uint64_t bootstraps = 1; //!< admission weight released
    bool deadlineMissed = false;  //!< dispatched past its deadline
};

/**
 * A lane's observer, invoked by worker threads for every completed
 * request (and once per completed circuit) before its promise is
 * fulfilled. Must be thread-safe and cheap: it runs on the execution
 * hot path. The tenant front door feeds its SLO histograms with it.
 */
using CompletionObserver = std::function<void(const CompletionInfo &)>;

/** Configuration of a BootstrapService. */
struct ServiceConfig
{
    /** Requests assembled into one batch; defaults to the paper's
     *  64-LWE superbatch shared with the SW scheduler. */
    unsigned superbatchSize = compiler::kSuperbatchSize;

    /** Worker threads executing batches (0 = hardware concurrency). */
    unsigned numWorkers = 0;

    /** Backpressure bound: accepted-but-uncompleted bootstraps per lane. */
    std::size_t maxOutstanding = 4 * compiler::kSuperbatchSize;

    /** Flush timer: a partial batch ships once its oldest request has
     *  waited this long. */
    std::chrono::microseconds maxWait{2000};

    /** Execution options for one superbatch inside a worker (threads
     *  within the batch, optional noise audit). The default (1 thread
     *  per batch) parallelizes across batches via numWorkers. */
    tfhe::BatchOptions batch;

    /**
     * Which execution backend runs a superbatch's compiled Program.
     * kFunctional is the production path (batch.threads fans a
     * superbatch's groups out inside the worker, with byte-equal
     * outputs); kCosim additionally runs every program (batches and
     * circuit levels alike) through the cycle model, cross-checks the
     * two results and the outputs against tfhe::batchBootstrap, and
     * fails the affected futures with exec::CosimError on any
     * divergence (a deep self-check — orders of magnitude slower).
     * kTiming is rejected by validate(): it produces no ciphertexts,
     * so the service could never fulfil its promises. Any exception a
     * backend throws (exec::CosimError, remote::RemoteError) fails the
     * futures of the batch or circuit it was running.
     */
    exec::BackendKind backend = exec::BackendKind::kFunctional;

    /**
     * Server coordinates and retry policy for kRemote: each worker
     * executes its batches through an exec::RemoteBackend against the
     * exec::RemoteServer at remote.host:remote.port. validate()
     * requires a non-zero port. The key fingerprint is computed once
     * per key set (when not already supplied), not per batch, so
     * per-batch backend creation stays cheap.
     */
    exec::RemoteClientConfig remote;

    /** Accelerator geometry for the kCosim timing side. */
    arch::ArchConfig timing;

    /**
     * Directory of the on-disk compiled-Program cache
     * (compiler::ProgramDiskCache). When non-empty, every batch shape
     * the service compiles is persisted there and cold starts load it
     * back instead of re-compiling; corrupt or stale entries fall back
     * to compilation. Empty (the default) keeps the cache in-memory
     * only.
     */
    std::string programCacheDir;

    /** First configuration error, or nullopt when the config can run.
     *  The BootstrapService constructor throws std::invalid_argument
     *  with this message instead of aborting the process. */
    std::optional<std::string> validate() const;
};

/**
 * A thread-safe service turning individual bootstrap requests into
 * superbatches executed on a worker pool.
 */
class BootstrapService
{
  public:
    /** Serve with evaluation keys only (the deployment-split server
     *  needs no secret material). Throws std::invalid_argument when
     *  tfhe::verify rejects the keys or ServiceConfig::validate()
     *  the configuration. */
    explicit BootstrapService(tfhe::EvaluationKeys keys,
                              ServiceConfig config = {});

    /** Convenience: serve from a full key set (extracts the
     *  evaluation half). */
    explicit BootstrapService(const tfhe::KeySet &keys,
                              ServiceConfig config = {});

    BootstrapService(const BootstrapService &) = delete;
    BootstrapService &operator=(const BootstrapService &) = delete;

    /** Drains and joins (shutdown()) if still running. */
    ~BootstrapService();

    const ServiceConfig &config() const { return config_; }

    /**
     * Register a LUT the service will bootstrap against; requests
     * reference it by the returned id. Batches never mix LUTs
     * (mirroring the per-LUT test polynomial the hardware holds
     * resident during a group's blind rotations). Throws
     * std::invalid_argument for an empty LUT or one with 2·|lut| > N,
     * and std::logic_error once the service has been shut down.
     */
    LutId registerLut(std::vector<tfhe::Torus32> lut);

    /**
     * Submit one request, blocking while the service is at its
     * maxOutstanding bound. The future is fulfilled when the
     * containing superbatch completes. Throws std::out_of_range for
     * an unregistered LUT id, and std::logic_error if the service has
     * been shut down (or shuts down while this call waits).
     */
    std::future<tfhe::LweCiphertext>
    submit(tfhe::LweCiphertext ct, LutId lut,
           std::optional<ServiceClock::time_point> deadline =
               std::nullopt);

    /**
     * Fail-fast submission: returns std::nullopt instead of blocking
     * when the service is at its backpressure bound (or shut down).
     */
    std::optional<std::future<tfhe::LweCiphertext>>
    trySubmit(tfhe::LweCiphertext ct, LutId lut,
              std::optional<ServiceClock::time_point> deadline =
                  std::nullopt);

    /**
     * Submit a whole circuit: `inputs` carries one ciphertext per
     * circuit input (creation order), the future yields one ciphertext
     * per marked output. The circuit is lowered level by level and
     * executed through exec::CircuitExecutor on the configured
     * backend (under kCosim every level is cross-checked). The
     * circuit's bootstrap count weighs against maxOutstanding, so big
     * circuits apply proportional backpressure; blocks at the bound
     * like submit(). Throws std::invalid_argument when `inputs` does
     * not match the circuit's input count, and std::logic_error like
     * submit().
     */
    std::future<std::vector<tfhe::LweCiphertext>>
    submitCircuit(circuit::Circuit circuit,
                  std::vector<tfhe::LweCiphertext> inputs);

    /** Ship every partial batch now instead of waiting for the flush
     *  timer (asynchronous; does not wait for completion). */
    void flush();

    /**
     * Stop admission, flush partial batches, complete every accepted
     * request and join all threads. Idempotent.
     */
    void shutdown();

    /** True once shutdown() has completed. */
    bool stopped() const;

    /** Accepted-but-uncompleted requests right now. */
    std::size_t outstanding() const;

    /** Consistent snapshot of all counters and histograms. */
    ServiceStats stats() const;

  private:
    friend class MultiTenantService;

    /** The key set a request or circuit runs under, held until it
     *  completes, with its kRemote identity (computed once per key
     *  set, never per batch). */
    struct KeyPin
    {
        std::shared_ptr<const tfhe::EvaluationKeys> keys;
        std::optional<tfhe::KeyFingerprint> fingerprint;
        /** Keeps the LUT ids it was routed under from being reclaimed
         *  (registerLut's `owner`); null on the public path. */
        std::shared_ptr<const void> luts;
    };

    /** No lanes yet: the front door adds one per tenant. */
    explicit BootstrapService(ServiceConfig config);

    /** A new lane of weight 1 whose completions `observer` (may be
     *  empty) sees; returns its index. */
    std::size_t addLane(CompletionObserver observer);
    void setLaneWeight(std::size_t lane, unsigned weight);

    /** Throws std::invalid_argument for an empty LUT or 2·|lut| > N. */
    static void validateLut(const std::vector<tfhe::Torus32> &lut,
                            const tfhe::TfheParams &params);

    /** Throws std::invalid_argument unless `inputs` matches the
     *  circuit's input count. */
    static void validateCircuitInputs(const circuit::Circuit &circuit,
                                      std::size_t inputs);

    /** Register `lut` on `lane`. With an `owner`, which requests routed
     *  under the id pin (KeyPin::luts), a later registration reclaims
     *  the id once the owner expires, and reuses its slot. */
    LutId registerLut(std::size_t lane, std::vector<tfhe::Torus32> lut,
                      const tfhe::TfheParams &params,
                      const std::shared_ptr<const void> &owner = nullptr);

    struct Request
    {
        tfhe::LweCiphertext ct;
        KeyPin pin;
        std::optional<ServiceClock::time_point> deadline;
        ServiceClock::time_point submitted;
        std::promise<tfhe::LweCiphertext> promise;
    };

    /** Why a batch left the pending buckets (for the counters). */
    enum class FlushReason
    {
        kFull,
        kTimer,
        kDrain
    };

    /** One cached single-LUT batch lowering: the one-level circuit
     *  plus its compiled Program (LoweredCircuit points into the
     *  heap-held Circuit, so entries are stable once created). */
    struct CachedBatch
    {
        std::unique_ptr<circuit::Circuit> circuit;
        circuit::LoweredCircuit lowered;
    };

    /** A registered LUT and the programs compiled for it. Batches hold
     *  it, so a reclaimed id's table and programs go with the last
     *  batch that ran them, and a reused slot never sees them. */
    struct LutTable
    {
        std::vector<tfhe::Torus32> values;
        std::map<std::size_t, CachedBatch> programs; //!< by size; programMu_
    };

    /** Runs under its first request's keys: the requests of one LUT id
     *  all pin the same key content (a rotation registers new ids). */
    struct Superbatch
    {
        std::shared_ptr<LutTable> lut;
        std::vector<Request> requests;
    };

    /** One accepted submitCircuit() job awaiting a worker. */
    struct CircuitJob
    {
        circuit::Circuit circuit;
        std::vector<tfhe::LweCiphertext> inputs;
        KeyPin pin;
        std::uint64_t cost = 0; //!< outstanding weight (bootstraps)
        ServiceClock::time_point submitted;
        std::promise<std::vector<tfhe::LweCiphertext>> promise;
    };

    struct LutEntry
    {
        std::size_t lane = 0;
        std::shared_ptr<LutTable> table; //!< null: a free slot
        std::optional<std::weak_ptr<const void>> owner; //!< if reclaimable
        std::deque<Request> pending; //!< not yet assembled
    };

    struct Lane
    {
        unsigned weight = 1;
        CompletionObserver observer;
        std::deque<Superbatch> ready;
        std::deque<CircuitJob> circuits;
        std::size_t outstanding = 0; //!< against maxOutstanding
        std::uint64_t deficit = 0;   //!< bootstraps it may still take

        bool hasWork() const { return !ready.empty() || !circuits.empty(); }

        /** Bootstraps the next dispatch charges (superbatches first). */
        std::uint64_t
        headCost() const
        {
            return ready.empty() ? circuits.front().cost
                                 : ready.front().requests.size();
        }
    };

    /** Wait (or, without `block`, refuse: false) until `lane` is below
     *  maxOutstanding. */
    bool awaitSpaceLocked(std::unique_lock<std::mutex> &lk,
                          const Lane &lane, bool block,
                          const char *what);

    std::optional<std::future<tfhe::LweCiphertext>>
    enqueue(tfhe::LweCiphertext ct, LutId lut, KeyPin pin,
            std::optional<ServiceClock::time_point> deadline,
            bool block);

    std::future<std::vector<tfhe::LweCiphertext>>
    enqueueCircuit(std::size_t lane, KeyPin pin, circuit::Circuit circuit,
                   std::vector<tfhe::LweCiphertext> inputs);

    /** Move up to superbatchSize requests of one bucket into its
     *  lane's ready queue. Caller holds mu_. */
    void assembleLocked(LutId lut, FlushReason reason);

    /** Deficit round robin: a visit credits a backlogged lane
     *  superbatchSize x weight bootstraps, and it keeps its turn while
     *  that covers its head. Returns the lane with its head's cost
     *  charged. Caller holds mu_ and readyWork_ > 0. */
    Lane &nextLaneLocked();

    /** When a non-empty bucket must ship even if not full: its oldest
     *  request's flush timer, or an earlier deadline in it. */
    ServiceClock::time_point dueAt(const std::deque<Request> &bucket) const;

    /** Earliest instant any pending request becomes due. Caller holds
     *  mu_. */
    std::optional<ServiceClock::time_point> nextDueLocked() const;

    void assemblerMain();
    void workerMain();

    /** Count a job whose backend threw as failed (a circuit once, a
     *  batch per request), return its `cost` to its lane's and the
     *  service's outstanding count and wake blocked submitters, so
     *  shutdown() still drains. */
    void releaseFailed(Lane &lane, std::size_t cost, bool circuit);

    /** The one-level circuit bootstrapping the batch through its LUT,
     *  lowered on first use and cached in the LUT by size
     *  (superbatches repeat sizes heavily: full batches always,
     *  partial flushes often). Thread-safe; the returned reference
     *  stays valid while the batch holds its LUT. */
    const CachedBatch &batchCircuitFor(const Superbatch &batch);

    /** Run a lowered circuit under `pin` on a fresh backend of the
     *  configured kind. */
    std::vector<tfhe::LweCiphertext>
    runLowered(const circuit::LoweredCircuit &lowered,
               const std::vector<tfhe::LweCiphertext> &inputs,
               const KeyPin &pin) const;

    /** Execute one assembled superbatch — as a one-level circuit —
     *  through the configured execution backend; returns one output
     *  per input, in order. */
    std::vector<tfhe::LweCiphertext>
    executeBatch(const Superbatch &batch,
                 const std::vector<tfhe::LweCiphertext> &inputs);

    /** Lower and run one submitted circuit. */
    std::vector<tfhe::LweCiphertext> executeCircuit(CircuitJob &job);

    const ServiceConfig config_;
    const ServiceClock::time_point start_;

    KeyPin ownKeys_; //!< the public constructors' keys, lane 0

    mutable std::mutex programMu_; //!< LutTable::programs, diskCache_
    std::unique_ptr<compiler::ProgramDiskCache> diskCache_;

    mutable std::mutex mu_;
    std::condition_variable spaceCv_;    //!< submitters await capacity
    std::condition_variable assembleCv_; //!< assembler awaits work
    std::condition_variable workCv_;     //!< workers await batches

    // All fields below are guarded by mu_.
    std::deque<LutEntry> luts_; //!< by id; a deque: buckets never move
    std::deque<Lane> lanes_; //!< a deque: observers stay put on growth
    std::size_t drrCursor_ = 0;
    std::size_t readyWork_ = 0; //!< superbatches + circuits queued
    std::size_t pendingCount_ = 0;
    std::size_t outstanding_ = 0; //!< summed over lanes
    bool draining_ = false;
    bool flushRequested_ = false;
    bool assemblerDone_ = false;
    bool stopped_ = false;
    /** The counters and distributions; stats() adds the
     *  instantaneous fields to a copy. */
    ServiceStats stats_;

    std::mutex shutdownMu_; //!< serializes shutdown() callers (joins)
    std::thread assembler_;
    std::vector<std::thread> workers_;
};

} // namespace morphling::service

#endif // MORPHLING_SERVICE_BOOTSTRAP_SERVICE_H
