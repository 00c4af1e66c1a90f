/**
 * @file
 * Lightweight statistics package: counters, running scalars, and the
 * (tick, value) point of a time series.  Components own their stat
 * objects; reports read them directly (SystemReport, probe rings).
 */

#ifndef NEOFOG_SIM_STATS_HH
#define NEOFOG_SIM_STATS_HH

#include <cstdint>
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

} // namespace neofog

#endif // NEOFOG_SIM_STATS_HH
