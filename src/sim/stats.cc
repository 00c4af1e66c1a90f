#include "sim/stats.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"

namespace neofog {

void
ScalarStat::sample(double v)
{
    ++_count;
    _sum += v;
    if (_count == 1) {
        _min = _max = v;
        _mean = v;
        _m2 = 0.0;
        return;
    }
    _min = std::min(_min, v);
    _max = std::max(_max, v);
    const double delta = v - _mean;
    _mean += delta / static_cast<double>(_count);
    _m2 += delta * (v - _mean);
}

double
ScalarStat::variance() const
{
    if (_count < 2)
        return 0.0;
    return _m2 / static_cast<double>(_count - 1);
}

double
ScalarStat::stddev() const
{
    return std::sqrt(variance());
}

void
ScalarStat::reset()
{
    *this = ScalarStat();
}

Histogram::Histogram(double lo, double hi, std::size_t buckets)
    : _lo(lo), _hi(hi),
      _bucketWidth((hi - lo) / static_cast<double>(buckets)),
      _buckets(buckets, 0)
{
    NEOFOG_ASSERT(hi > lo && buckets > 0, "bad histogram bounds");
}

void
Histogram::sample(double v)
{
    ++_total;
    if (v < _lo) {
        ++_underflow;
    } else if (v >= _hi) {
        ++_overflow;
    } else {
        auto idx = static_cast<std::size_t>((v - _lo) / _bucketWidth);
        if (idx >= _buckets.size()) // floating point edge
            idx = _buckets.size() - 1;
        ++_buckets[idx];
    }
}

double
Histogram::percentile(double p) const
{
    NEOFOG_ASSERT(p >= 0.0 && p <= 1.0, "percentile out of range");
    if (_total == 0)
        return _lo;
    const auto target = static_cast<std::uint64_t>(
        p * static_cast<double>(_total));
    std::uint64_t seen = _underflow;
    if (seen > target)
        return _lo;
    for (std::size_t i = 0; i < _buckets.size(); ++i) {
        seen += _buckets[i];
        if (seen > target)
            return _lo + (static_cast<double>(i) + 0.5) * _bucketWidth;
    }
    return _hi;
}

void
Histogram::reset()
{
    std::fill(_buckets.begin(), _buckets.end(), 0);
    _underflow = _overflow = _total = 0;
}

std::vector<SeriesPoint>
downsample(const std::vector<SeriesPoint> &points, std::size_t max_points)
{
    if (max_points == 0 || points.size() <= max_points)
        return points;
    std::vector<SeriesPoint> out;
    out.reserve(max_points);
    const std::size_t stride =
        (points.size() + max_points - 1) / max_points;
    for (std::size_t i = 0; i < points.size(); i += stride)
        out.push_back(points[i]);
    if (out.back().when != points.back().when)
        out.push_back(points.back());
    return out;
}

void
StatRegistry::registerCounter(const std::string &name, const Counter *c)
{
    NEOFOG_ASSERT(c, "null counter: ", name);
    _counters[name] = c;
}

void
StatRegistry::registerScalar(const std::string &name, const ScalarStat *s)
{
    NEOFOG_ASSERT(s, "null scalar: ", name);
    _scalars[name] = s;
}

void
StatRegistry::dump(std::ostream &os) const
{
    for (const auto &[name, c] : _counters)
        os << name << " " << c->value() << "\n";
    for (const auto &[name, s] : _scalars) {
        os << name << ".mean " << s->mean() << "\n";
        os << name << ".count " << s->count() << "\n";
    }
}

const Counter *
StatRegistry::findCounter(const std::string &name) const
{
    auto it = _counters.find(name);
    return it == _counters.end() ? nullptr : it->second;
}

const ScalarStat *
StatRegistry::findScalar(const std::string &name) const
{
    auto it = _scalars.find(name);
    return it == _scalars.end() ? nullptr : it->second;
}

} // namespace neofog
