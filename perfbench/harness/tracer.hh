/**
 * @file
 * In-memory tracing for the benchmark's traced mode: spans recorded at
 * the public-call boundaries the harness drives (name, start, end,
 * parent), plus a log-linear histogram for the per-call runSlot
 * timings, which are far too many to keep as one span each.  Nothing
 * here touches the simulator; spans are written out once, at exit.
 */

#ifndef NEOFOG_PERFBENCH_TRACER_HH
#define NEOFOG_PERFBENCH_TRACER_HH

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <iomanip>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/** Monotonic nanoseconds since an arbitrary epoch. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Seconds elapsed since @p start_ns. */
inline double
secondsSince(std::int64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) * 1e-9;
}

/**
 * Log-linear histogram of nanosecond durations: 64 linear sub-buckets
 * per power of two (about 1.6% relative width).  Percentiles
 * interpolate linearly inside the bucket that holds the rank.
 */
class LogHistogram
{
  public:
    void
    add(std::uint64_t ns)
    {
        ++_counts[bucketOf(ns)];
        ++_count;
        _sum += ns;
        _max = std::max(_max, ns);
    }

    std::uint64_t count() const { return _count; }
    std::uint64_t sumNs() const { return _sum; }

    /** The @p q quantile (0 < q < 1), in nanoseconds. */
    double
    quantile(double q) const
    {
        if (_count == 0)
            return 0.0;
        const double rank = q * static_cast<double>(_count);
        double seen = 0.0;
        for (std::size_t b = 0; b < kBuckets; ++b) {
            const auto n = static_cast<double>(_counts[b]);
            if (n == 0.0)
                continue;
            if (seen + n >= rank) {
                const double lo = static_cast<double>(lowerBound(b));
                const double hi = static_cast<double>(lowerBound(b + 1));
                return lo + (hi - lo) * (rank - seen) / n;
            }
            seen += n;
        }
        return static_cast<double>(_max);
    }

  private:
    static constexpr unsigned kSubBits = 6;
    static constexpr std::uint64_t kSub = 1u << kSubBits;
    static constexpr std::size_t kBuckets = 64 * kSub;

    static std::size_t
    bucketOf(std::uint64_t v)
    {
        if (v < kSub)
            return static_cast<std::size_t>(v);
        const unsigned shift =
            static_cast<unsigned>(std::bit_width(v)) - 1 - kSubBits;
        return static_cast<std::size_t>((shift + 1) * kSub +
                                        ((v >> shift) - kSub));
    }

    static std::uint64_t
    lowerBound(std::size_t b)
    {
        if (b < kSub)
            return b;
        const std::size_t shift = b / kSub - 1;
        return (kSub + b % kSub) << shift;
    }

    std::array<std::uint64_t, kBuckets> _counts{};
    std::uint64_t _count = 0;
    std::uint64_t _sum = 0;
    std::uint64_t _max = 0;
};

/** One recorded interval; @c parent indexes the enclosing span. */
struct Span
{
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1;

    double seconds() const
    { return static_cast<double>(endNs - startNs) * 1e-9; }
};

/**
 * Span recorder: open() pushes a span under the innermost open one,
 * close() ends it.  Spans stay in memory until writeChromeTrace().
 */
class Tracer
{
  public:
    int
    open(std::string name)
    {
        const int parent = _stack.empty() ? -1 : _stack.back();
        _spans.push_back({std::move(name), nowNs(), 0, parent});
        _stack.push_back(static_cast<int>(_spans.size()) - 1);
        return _stack.back();
    }

    void
    close(int id)
    {
        _spans[static_cast<std::size_t>(id)].endNs = nowNs();
        if (!_stack.empty() && _stack.back() == id)
            _stack.pop_back();
    }

    const Span &span(int id) const
    { return _spans[static_cast<std::size_t>(id)]; }

    /** Total seconds of the spans named @p name. */
    double
    total(const std::string &name) const
    {
        double s = 0.0;
        for (const Span &sp : _spans)
            if (sp.name == name)
                s += sp.seconds();
        return s;
    }

    /** Total seconds of the direct children of span @p parent. */
    double
    childrenTotal(int parent) const
    {
        double s = 0.0;
        for (const Span &sp : _spans)
            if (sp.parent == parent)
                s += sp.seconds();
        return s;
    }

    /** Ids of the spans named @p name, in order. */
    std::vector<int>
    ids(const std::string &name) const
    {
        std::vector<int> out;
        for (std::size_t i = 0; i < _spans.size(); ++i)
            if (_spans[i].name == name)
                out.push_back(static_cast<int>(i));
        return out;
    }

    /** Durations (seconds) of the spans named @p name, in order. */
    std::vector<double>
    durations(const std::string &name) const
    {
        std::vector<double> out;
        for (const Span &sp : _spans)
            if (sp.name == name)
                out.push_back(sp.seconds());
        return out;
    }

    /** Chrome trace-event JSON (chrome://tracing, Perfetto). */
    void
    writeChromeTrace(std::ostream &os) const
    {
        const std::int64_t t0 = _spans.empty() ? 0 : _spans[0].startNs;
        os << std::fixed << std::setprecision(3) << "{\"traceEvents\":[";
        for (std::size_t i = 0; i < _spans.size(); ++i) {
            const Span &sp = _spans[i];
            os << (i ? ",\n" : "\n") << "{\"name\":\"" << sp.name
               << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
               << static_cast<double>(sp.startNs - t0) * 1e-3
               << ",\"dur\":"
               << static_cast<double>(sp.endNs - sp.startNs) * 1e-3
               << ",\"args\":{\"id\":" << i << ",\"parent\":"
               << sp.parent << "}}";
        }
        os << "\n]}\n";
    }

  private:
    std::vector<Span> _spans;
    std::vector<int> _stack;
};

/** RAII span: open on construction, close on scope exit. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, std::string name)
        : _tracer(tracer), _id(tracer.open(std::move(name)))
    {}
    ~ScopedSpan() { _tracer.close(_id); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer &_tracer;
    int _id;
};

} // namespace perfbench

#endif // NEOFOG_PERFBENCH_TRACER_HH
