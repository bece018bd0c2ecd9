#include "dma.h"

#include "common/logging.h"
#include "telemetry/sim_bridge.h"

namespace morphling::sim {

DmaEngine::DmaEngine(EventQueue &eq, Hbm &hbm, std::string name,
                     unsigned first_channel, unsigned num_channels)
    : eq_(eq), hbm_(hbm), name_(std::move(name)),
      firstChannel_(first_channel), numChannels_(num_channels),
      stats_(name_)
{
    fatal_if(num_channels == 0, "DMA engine '", name_,
             "' needs channels");
    fatal_if(first_channel + num_channels > hbm.config().channels,
             "DMA engine '", name_, "' channel group out of range");
}

double
DmaEngine::bytesPerCycle() const
{
    return hbm_.config().bytesPerCyclePerChannel() * numChannels_;
}

Tick
DmaEngine::load(std::uint64_t bytes, EventQueue::Callback on_done)
{
    ++outstanding_;
    totalBytes_ += bytes;
    stats_.scalar("bytes", "bytes loaded from HBM") +=
        static_cast<double>(bytes);
    ++stats_.scalar("loads", "load operations issued");
    MORPHLING_TELEMETRY_ONLY(const Tick issued = eq_.now();)
    const Tick done = hbm_.accessStriped(
        firstChannel_, numChannels_, bytes,
        [this, cb = std::move(on_done)]() {
            panic_if(outstanding_ == 0, "DMA completion underflow");
            --outstanding_;
            if (cb)
                cb();
        });
    MORPHLING_SIM_INTERVAL(name_, "load", issued, done, bytes);
    return done;
}

MulticastDma::MulticastDma(EventQueue &eq, Hbm &hbm, std::string name,
                           unsigned first_channel,
                           unsigned num_channels,
                           unsigned num_consumers,
                           unsigned residency_depth)
    : eq_(eq), hbm_(hbm), name_(std::move(name)),
      firstChannel_(first_channel), numChannels_(num_channels),
      numConsumers_(num_consumers), residencyDepth_(residency_depth),
      perConsumerBytes_(num_consumers, 0), stats_(name_)
{
    fatal_if(num_channels == 0, "multicast DMA '", name_,
             "' needs channels");
    fatal_if(first_channel + num_channels > hbm.config().channels,
             "multicast DMA '", name_, "' channel group out of range");
    fatal_if(num_consumers == 0, "multicast DMA '", name_,
             "' needs consumers");
}

double
MulticastDma::bytesPerCycle() const
{
    return hbm_.config().bytesPerCyclePerChannel() * numChannels_;
}

void
MulticastDma::recordDelivery(unsigned consumer, std::uint64_t bytes)
{
    panic_if(consumer >= numConsumers_, "multicast DMA '", name_,
             "' consumer ", consumer, " out of range");
    deliveredBytes_ += bytes;
    perConsumerBytes_[consumer] += bytes;
    stats_.scalar("delivered_bytes",
                  "bytes delivered across all consumers") +=
        static_cast<double>(bytes);
}

void
MulticastDma::request(unsigned consumer, std::uint64_t tag,
                      std::uint64_t bytes,
                      EventQueue::Callback on_done)
{
    recordDelivery(consumer, bytes);

    // Same tag already streaming: join the in-flight multicast.
    for (auto &f : inflight_) {
        if (f.tag == tag) {
            ++joins_;
            ++stats_.scalar("joins",
                            "requests merged into an in-flight read");
            f.waiters.push_back(std::move(on_done));
            MORPHLING_SIM_INSTANT(
                "log.dma",
                ::morphling::detail::concat(name_, " tag ", tag,
                                            " join by consumer ", consumer),
                eq_.now());
            return;
        }
    }

    // Tag still resident in the shared double buffer: free hit.
    for (const std::uint64_t r : resident_) {
        if (r == tag) {
            ++residencyHits_;
            ++stats_.scalar("residency_hits",
                            "requests served from resident slices");
            MORPHLING_SIM_INSTANT(
                "log.dma",
                ::morphling::detail::concat(name_, " tag ", tag,
                                            " residency hit by consumer ",
                                            consumer),
                eq_.now());
            if (on_done)
                eq_.schedule(eq_.now(), std::move(on_done));
            return;
        }
    }

    // Fresh fetch: one striped read, multicast to whoever joins
    // before it lands.
    ++fetches_;
    fetchedBytes_ += bytes;
    ++stats_.scalar("fetches", "fresh HBM reads issued");
    stats_.scalar("fetched_bytes", "bytes actually read from HBM") +=
        static_cast<double>(bytes);
    MORPHLING_SIM_INSTANT(
        "log.dma",
        ::morphling::detail::concat(name_, " tag ", tag, " fetch ", bytes,
                                    " B by consumer ", consumer),
        eq_.now());
    inflight_.push_back(Inflight{tag, {}});
    inflight_.back().waiters.push_back(std::move(on_done));
    hbm_.accessStriped(
        firstChannel_, numChannels_, bytes, [this, tag]() {
            for (std::size_t i = 0; i < inflight_.size(); ++i) {
                if (inflight_[i].tag != tag)
                    continue;
                auto waiters = std::move(inflight_[i].waiters);
                inflight_.erase(inflight_.begin() +
                                static_cast<std::ptrdiff_t>(i));
                resident_.push_back(tag);
                while (resident_.size() > residencyDepth_)
                    resident_.pop_front();
                stats_.scalar("multicast_width",
                              "deliveries per fresh fetch") +=
                    static_cast<double>(waiters.size());
                for (auto &cb : waiters) {
                    if (cb)
                        cb();
                }
                return;
            }
            panic("multicast DMA '", name_,
                  "' completion for unknown tag ", tag);
        });
}

} // namespace morphling::sim
