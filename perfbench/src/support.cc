#include "support.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <thread>

#include "common/rng.h"
#include "tfhe/encoding.h"

namespace perfbench {

using namespace morphling;

unsigned
hostThreads()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

unsigned
servingWorkers()
{
    return std::max(1u, hostThreads() / 2);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

double
quantile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0;
    std::sort(samples.begin(), samples.end());
    const double n = static_cast<double>(samples.size());
    const auto rank = static_cast<std::size_t>(
        std::max(1.0, std::ceil(std::clamp(q, 0.0, 1.0) * n)));
    return samples[std::min(rank, samples.size()) - 1];
}

double
median(std::vector<double> samples)
{
    return quantile(std::move(samples), 0.5);
}

double
deepestSupportedQuantile(std::size_t n)
{
    return n <= 10 ? 0.0 : 1.0 - 10.0 / static_cast<double>(n);
}

double
tailQuantile(const std::vector<double> &samples, double nominal)
{
    const double q = std::max(
        0.5, std::min(nominal, deepestSupportedQuantile(samples.size())));
    return quantile(samples, q);
}

Spans::Spans() : origin_(Clock::now()) {}

void
Spans::add(std::string_view name, std::uint64_t id, std::uint64_t parent,
           Clock::time_point start, Clock::time_point end)
{
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(Span{std::string(name), id, parent, start, end});
}

std::uint64_t
Spans::nextId()
{
    std::lock_guard<std::mutex> lk(mu_);
    return nextId_++;
}

std::size_t
Spans::size() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return spans_.size();
}

bool
Spans::writeChromeTrace(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    std::lock_guard<std::mutex> lk(mu_);
    os << "{\"traceEvents\": [";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        // One track per root request/probe call keeps a request's
        // spans on one row in the viewer.
        const std::uint64_t track = s.parent ? s.parent : s.id;
        os << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
           << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << track
           << ", \"ts\": " << usBetween(origin_, s.start)
           << ", \"dur\": " << usBetween(s.start, s.end)
           << ", \"args\": {\"id\": " << s.id
           << ", \"parent\": " << s.parent << "}}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
}

void
Metrics::set(const std::string &name, double value, const std::string &unit,
             std::size_t samples)
{
    for (Metric &m : items_) {
        if (m.name == name) {
            m = Metric{name, value, unit, samples};
            return;
        }
    }
    items_.push_back(Metric{name, value, unit, samples});
}

const Metric *
Metrics::find(const std::string &name) const
{
    for (const Metric &m : items_) {
        if (m.name == name)
            return &m;
    }
    return nullptr;
}

std::uint32_t
lutA(std::uint32_t m)
{
    return (m + 1) % kSpace;
}

std::uint32_t
lutB(std::uint32_t m)
{
    return kSpace - 1 - m;
}

circuit::Circuit
buildAdder8()
{
    circuit::Circuit c;
    std::vector<circuit::Wire> a, b, sum;
    for (unsigned i = 0; i < 8; ++i)
        a.push_back(c.bitInput());
    for (unsigned i = 0; i < 8; ++i)
        b.push_back(c.bitInput());
    const circuit::Wire carry = circuit::buildRippleAdder(c, a, b, sum);
    for (circuit::Wire w : sum)
        c.markOutput(w);
    c.markOutput(carry);
    return c;
}

Kit
Kit::make(const tfhe::TfheParams &params, std::uint64_t seed,
          std::size_t poolSize, std::size_t numAdderCases)
{
    Kit kit;
    kit.params = &params;
    Rng rng(seed);
    Rng keyRng = rng.fork();
    kit.keys = tfhe::KeySet::generate(params, keyRng);
    kit.eval = tfhe::EvaluationKeys::fromKeySet(kit.keys);
    kit.tableA = tfhe::makePaddedLut(kSpace, lutA);
    kit.tableB = tfhe::makePaddedLut(kSpace, lutB);

    Rng inputRng = rng.fork();
    kit.pool.reserve(poolSize);
    for (std::size_t i = 0; i < poolSize; ++i) {
        const auto m =
            static_cast<std::uint32_t>(inputRng.nextBelow(kSpace));
        kit.poolMessages.push_back(m);
        kit.pool.push_back(tfhe::encryptPadded(kit.keys, m, kSpace,
                                               inputRng));
    }

    kit.adder = buildAdder8();
    for (std::size_t i = 0; i < numAdderCases; ++i) {
        AdderCase c;
        c.a = static_cast<std::uint32_t>(inputRng.nextBelow(256));
        c.b = static_cast<std::uint32_t>(inputRng.nextBelow(256));
        for (std::uint32_t v : {c.a, c.b}) {
            for (unsigned bit = 0; bit < 8; ++bit) {
                c.inputs.push_back(tfhe::encryptBit(
                    kit.keys, ((v >> bit) & 1u) != 0, inputRng));
            }
        }
        kit.adderCases.push_back(std::move(c));
    }
    return kit;
}

bool
Kit::checkPadded(const tfhe::LweCiphertext &ct, std::uint32_t expected) const
{
    return tfhe::decryptPadded(keys, ct, kSpace) == expected;
}

bool
Kit::checkSum(const std::vector<tfhe::LweCiphertext> &outs,
              const AdderCase &c) const
{
    if (outs.size() != 9)
        return false;
    std::uint32_t sum = 0;
    for (unsigned bit = 0; bit < 9; ++bit) {
        if (tfhe::decryptBit(keys, outs[bit]))
            sum |= 1u << bit;
    }
    return sum == c.a + c.b;
}

} // namespace perfbench
