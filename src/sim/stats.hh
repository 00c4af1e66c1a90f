/**
 * @file
 * Lightweight statistics package: counters, scalars, histograms, and
 * the (tick, value) point of a time series, with a named registry
 * that can be dumped as text.
 *
 * Modeled loosely on gem5's stats: components own their stat objects and
 * register them by dotted name ("node3.wakeups").
 */

#ifndef NEOFOG_SIM_STATS_HH
#define NEOFOG_SIM_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace neofog {

/** Monotonic event counter. */
class Counter
{
  public:
    void increment(std::uint64_t by = 1) { _value += by; }
    std::uint64_t value() const { return _value; }
    void reset() { _value = 0; }

    /** Snapshot support (see src/snapshot/). */
    template <class Archive>
    void
    serialize(Archive &ar)
    {
        ar.io("value", _value);
    }

  private:
    std::uint64_t _value = 0;
};

/**
 * Running scalar summary: count / sum / min / max / mean / variance
 * (Welford's online algorithm).
 */
class ScalarStat
{
  public:
    void sample(double v);

    std::uint64_t count() const { return _count; }
    double sum() const { return _sum; }
    double min() const { return _count ? _min : 0.0; }
    double max() const { return _count ? _max : 0.0; }
    double mean() const { return _count ? _mean : 0.0; }
    double variance() const;
    double stddev() const;
    void reset();

  private:
    std::uint64_t _count = 0;
    double _sum = 0.0;
    double _min = 0.0;
    double _max = 0.0;
    double _mean = 0.0;
    double _m2 = 0.0;
};

/**
 * Fixed-bucket histogram over [lo, hi) with under/overflow buckets.
 */
class Histogram
{
  public:
    Histogram(double lo, double hi, std::size_t buckets);

    void sample(double v);

    double lo() const { return _lo; }
    double hi() const { return _hi; }
    std::size_t bucketCount() const { return _buckets.size(); }
    std::uint64_t bucket(std::size_t i) const { return _buckets.at(i); }
    std::uint64_t underflow() const { return _underflow; }
    std::uint64_t overflow() const { return _overflow; }
    std::uint64_t total() const { return _total; }

    /** Value below which the given fraction of samples fall (approx). */
    double percentile(double p) const;

    void reset();

  private:
    double _lo;
    double _hi;
    double _bucketWidth;
    std::vector<std::uint64_t> _buckets;
    std::uint64_t _underflow = 0;
    std::uint64_t _overflow = 0;
    std::uint64_t _total = 0;
};

/**
 * One (tick, value) sample of a time series, e.g. a node's stored
 * energy at a slot start (see RingSeries in sim/metrics.hh).
 */
struct SeriesPoint
{
    Tick when;
    double value;
};

/**
 * Downsample @p points to at most @p max_points by keeping every k-th
 * point (always keeps the final point).  Used when printing figures.
 */
std::vector<SeriesPoint> downsample(const std::vector<SeriesPoint> &points,
                                    std::size_t max_points);

/**
 * Named collection of statistics owned by a simulation.
 *
 * The registry stores pointers; the owning components must outlive it
 * or deregister.  All experiment code keeps stats and registry together
 * inside the system object, so lifetimes are trivially correct.
 */
class StatRegistry
{
  public:
    void registerCounter(const std::string &name, const Counter *c);
    void registerScalar(const std::string &name, const ScalarStat *s);

    /** Dump all registered stats as "name value" lines. */
    void dump(std::ostream &os) const;

    /** Look up a counter by name; nullptr if absent. */
    const Counter *findCounter(const std::string &name) const;
    const ScalarStat *findScalar(const std::string &name) const;

  private:
    std::map<std::string, const Counter *> _counters;
    std::map<std::string, const ScalarStat *> _scalars;
};

} // namespace neofog

#endif // NEOFOG_SIM_STATS_HH
