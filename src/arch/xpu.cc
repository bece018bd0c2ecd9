#include "xpu.h"

#include "common/bits.h"
#include "common/logging.h"
#include "telemetry/sim_bridge.h"

namespace morphling::arch {

XpuComplex::XpuComplex(sim::EventQueue &eq, const ArchConfig &config,
                       const tfhe::TfheParams &params,
                       sim::DmaEngine &bsk_dma)
    : eq_(eq), config_(config), params_(params), bskDma_(bsk_dma),
      streamSets_(config.streamSetsFor(params))
{
    stats_.scalar("stream_sets", "BSK reuse across consecutive streams")
        .set(streamSets_);
}

std::uint64_t
XpuComplex::jobRoundCycles(const Job &job) const
{
    // Ciphertexts are spread across the XPUs; a job larger than the
    // total row capacity multiplexes the arrays in extra passes.
    const unsigned capacity = config_.numXpus * config_.vpeRows;
    const unsigned per_xpu = divCeil(
        std::min(job.count, capacity), config_.numXpus);
    const unsigned passes = divCeil(job.count, capacity);
    const auto t =
        epRoundTiming(params_, config_, std::max(1u, per_xpu));
    return t.roundCycles() * passes;
}

void
XpuComplex::submitBlindRotate(unsigned group, unsigned count,
                              std::uint64_t iterations,
                              sim::EventQueue::Callback on_done)
{
    panic_if(count == 0, "empty blind rotation");
    if (group >= pending_.size())
        pending_.resize(group + 1);
    pending_[group].push_back(
        Job{count, iterations, std::move(on_done), eq_.now()});
    ++pendingJobs_;
    ++stats_.scalar("jobs", "blind-rotation jobs submitted");
    tryStartWave();
}

void
XpuComplex::tryStartWave()
{
    if (waveActive_ || pendingJobs_ == 0)
        return;

    // A wave takes the head job of each group queue so the stream sets
    // stay phase-aligned with the SW scheduler's groups. Start when
    // enough distinct groups are ready; the gather timer fires a
    // forced start so a trailing partial batch never waits forever.
    unsigned ready_groups = 0;
    for (const auto &q : pending_)
        ready_groups += q.empty() ? 0 : 1;

    if (ready_groups < streamSets_ && !gatherExpired_) {
        if (!gatherArmed_) {
            gatherArmed_ = true;
            eq_.scheduleIn(config_.waveGatherCycles, [this]() {
                gatherArmed_ = false;
                gatherExpired_ = true;
                tryStartWave();
                gatherExpired_ = false;
            });
        }
        return;
    }

    // One job per ready group first, then round-robin refill from the
    // remaining queues up to the stream-set width.
    wave_.clear();
    for (auto &q : pending_) {
        if (wave_.size() >= streamSets_)
            break;
        if (!q.empty()) {
            wave_.push_back(std::move(q.front()));
            q.pop_front();
            --pendingJobs_;
        }
    }
    bool took_one = true;
    while (wave_.size() < streamSets_ && pendingJobs_ > 0 && took_one) {
        took_one = false;
        for (auto &q : pending_) {
            if (wave_.size() >= streamSets_)
                break;
            if (!q.empty()) {
                wave_.push_back(std::move(q.front()));
                q.pop_front();
                --pendingJobs_;
                took_one = true;
            }
        }
    }
    waveActive_ = true;
    waveIter_ = 0;
    waveIterations_ = 0;
    for (const auto &job : wave_)
        waveIterations_ = std::max(waveIterations_, job.iterations);
    ++wavesStarted_;
    ++stats_.scalar("waves", "waves started");
    MORPHLING_SIM_INSTANT(
        "log.xpu",
        ::morphling::detail::concat("wave ", wavesStarted_, " starts with ",
                                    wave_.size(), " stream set(s), ",
                                    waveIterations_, " iterations"),
        eq_.now());
    stats_.histogram("wave_jobs", "jobs per wave")
        .sample(static_cast<double>(wave_.size()));

    // Cold start: BSK_0. If an eager arm (depth >= 3) already put it
    // in flight — or it has landed — adopt that stream instead of
    // issuing a duplicate; compute begins when it is resident.
    bskIssuedSlices_ = 1;
    bskArrivedSlices_ = 0;
    if (coldArmIssued_) {
        if (coldArmArrived_)
            bskArrivedSlices_ = 1;
        coldArmIssued_ = false;
        coldArmArrived_ = false;
        ++stats_.scalar("cold_arms_used",
                        "waves whose BSK_0 was eagerly armed");
    } else {
        fetchBsk(0, [this]() { bskArrived(); });
    }
    if (bskArrivedSlices_ > waveIter_) {
        waitingForBsk_ = false;
        beginIteration();
    } else {
        waitingForBsk_ = true;
        stallStart_ = eq_.now();
    }
}

void
XpuComplex::armColdPrefetch()
{
    if (config_.bskPrefetchDepth < 3 || waveActive_ || coldArmIssued_)
        return;
    coldArmIssued_ = true;
    coldArmArrived_ = false;
    ++stats_.scalar("cold_arms", "eager BSK_0 streams started");
    fetchBsk(0, [this]() {
        // If a wave adopted the arm before it landed, this is that
        // wave's slice-0 arrival; otherwise hold it for the next wave.
        if (waveActive_ && !coldArmIssued_)
            bskArrived();
        else
            coldArmArrived_ = true;
    });
}

void
XpuComplex::fetchBsk(std::uint64_t slice, sim::EventQueue::Callback cb)
{
    // One BSK stream per multicast domain: the A2 multicast reaches
    // multicastDomainXpus XPUs, so wider chips fetch the same GGSW
    // once per domain.
    const std::uint64_t domains = divCeil(
        config_.numXpus, config_.multicastDomainXpus);
    const std::uint64_t bytes = bskBytesPerIteration(params_) * domains;
    if (fetcher_ != nullptr)
        fetcher_->fetch(slice, bytes, std::move(cb));
    else
        bskDma_.load(bytes, std::move(cb));
}

void
XpuComplex::pumpPrefetch()
{
    // Keep up to `bskPrefetchDepth` slices resident-or-in-flight ahead
    // of the running iteration. Depth 2 is the paper's double buffer;
    // depth 1 degenerates to a serial fetch-then-compute loop.
    const std::uint64_t depth = std::max(1u, config_.bskPrefetchDepth);
    const std::uint64_t target =
        std::min(waveIterations_, waveIter_ + depth);
    while (bskIssuedSlices_ < target) {
        ++bskIssuedSlices_;
        fetchBsk(bskIssuedSlices_ - 1, [this]() { bskArrived(); });
    }
}

void
XpuComplex::bskArrived()
{
    ++bskArrivedSlices_;
    if (waitingForBsk_ && waveActive_ &&
        bskArrivedSlices_ > waveIter_) {
        stallCycles_ += eq_.now() - stallStart_;
        MORPHLING_SIM_INTERVAL("xpu", "bsk_stall", stallStart_,
                               eq_.now(), 0);
        stats_.scalar("stall_cycles", "cycles stalled on BSK")
            .set(static_cast<double>(stallCycles_));
        waitingForBsk_ = false;
        beginIteration();
    }
}

void
XpuComplex::beginIteration()
{
    panic_if(bskArrivedSlices_ <= waveIter_,
             "iteration started without BSK");

    // Process every stream set back-to-back against the resident
    // BSK_i; stream the next slice(s) under the compute.
    std::uint64_t cycles = 0;
    for (const auto &job : wave_) {
        if (job.iterations > waveIter_)
            cycles += jobRoundCycles(job);
    }
    panic_if(cycles == 0, "iteration with no active jobs");
    busyCycles_ += cycles;
    MORPHLING_SIM_INTERVAL("xpu", "iteration", eq_.now(),
                           eq_.now() + cycles, 0);

    pumpPrefetch();
    eq_.scheduleIn(cycles, [this]() { finishIteration(); });
}

void
XpuComplex::finishIteration()
{
    ++waveIter_;
    if (waveIter_ >= waveIterations_) {
        stats_.scalar("iterations", "blind-rotation iterations run") +=
            static_cast<double>(waveIter_);
        stats_.scalar("busy_cycles", "XPU compute cycles")
            .set(static_cast<double>(busyCycles_));
        // Wave complete: release the jobs.
        std::vector<Job> done;
        done.swap(wave_);
        waveActive_ = false;
        MORPHLING_SIM_INSTANT("log.xpu",
                              ::morphling::detail::concat(
                                  "wave complete (", done.size(), " job(s))"),
                              eq_.now());
        for (auto &job : done) {
            stats_.scalar("ciphertexts", "ciphertexts blind-rotated") +=
                job.count;
            if (job.onDone)
                job.onDone();
        }
        tryStartWave();
        return;
    }
    // Without a prefetch buffer the next slice is only requested once
    // the compute has finished (depth >= 2 issued it under compute).
    if (config_.bskPrefetchDepth <= 1)
        pumpPrefetch();
    if (bskArrivedSlices_ > waveIter_) {
        beginIteration();
    } else {
        waitingForBsk_ = true;
        stallStart_ = eq_.now();
    }
}

} // namespace morphling::arch
