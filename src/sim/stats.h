/**
 * @file
 * A small statistics package in the spirit of gem5's Stats: named
 * scalar counters and histograms grouped per component, dumpable as a
 * table. Every model component owns a StatSet; benches and tests read
 * stats by name.
 *
 * Thread safety: none — a StatSet belongs to exactly one component and
 * is mutated from one thread at a time, like the simulator's event
 * loop. Code whose stats are updated from several threads must
 * serialize externally (service::BootstrapService guards the
 * sim::Histogram fields of its ServiceStats with a mutex and hands out
 * snapshots by value).
 */

#ifndef MORPHLING_SIM_STATS_H
#define MORPHLING_SIM_STATS_H

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace morphling::sim {

/** One named scalar statistic. */
class Scalar
{
  public:
    Scalar() = default;
    Scalar(std::string name, std::string desc)
        : name_(std::move(name)), desc_(std::move(desc))
    {
    }

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }
    double value() const { return value_; }

    Scalar &operator+=(double v)
    {
        value_ += v;
        return *this;
    }
    Scalar &operator++()
    {
        value_ += 1;
        return *this;
    }
    void set(double v) { value_ = v; }
    void reset() { value_ = 0; }

  private:
    std::string name_;
    std::string desc_;
    double value_ = 0;
};

/** A named histogram with streaming mean/min/max. */
class Histogram
{
  public:
    Histogram() = default;
    Histogram(std::string name, std::string desc)
        : name_(std::move(name)), desc_(std::move(desc))
    {
    }

    void sample(double v);

    const std::string &name() const { return name_; }
    std::uint64_t count() const { return count_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    void reset();

  private:
    std::string name_;
    std::string desc_;
    std::uint64_t count_ = 0;
    double sum_ = 0;
    double min_ = 0;
    double max_ = 0;
};

/**
 * The per-component collection of statistics.
 *
 * scalar()/histogram() create on first use and return a stable
 * reference afterwards (names are unique within the set).
 */
class StatSet
{
  public:
    explicit StatSet(std::string owner = "") : owner_(std::move(owner)) {}

    const std::string &owner() const { return owner_; }

    /** Get-or-create a scalar stat. */
    Scalar &scalar(const std::string &name, const std::string &desc = "");

    /** Get-or-create a histogram stat. */
    Histogram &histogram(const std::string &name,
                         const std::string &desc = "");

    /** Look up an existing scalar; panics if absent (tests use this to
     *  assert a stat was actually recorded). */
    const Scalar &lookup(const std::string &name) const;

    bool has(const std::string &name) const;

    /** All scalars in creation order. */
    std::vector<const Scalar *> scalars() const;
    std::vector<const Histogram *> histograms() const;

    /** Reset every stat to zero. */
    void reset();

    /** Render "owner.name = value  # desc" lines. */
    void dump(std::ostream &os) const;

  private:
    std::string owner_;
    // std::map keeps pointers stable across inserts; order_ preserves
    // creation order for dumps.
    std::map<std::string, Scalar> scalarMap_;
    std::map<std::string, Histogram> histMap_;
    std::vector<std::string> scalarOrder_;
    std::vector<std::string> histOrder_;
};

} // namespace morphling::sim

#endif // MORPHLING_SIM_STATS_H
