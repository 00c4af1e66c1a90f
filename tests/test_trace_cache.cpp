/**
 * @file
 * Property tests for the prefix-sum energy-trace cache and the
 * intermittent-execution analytic fast-forward (ctest label: perf).
 *
 * The numerical contract under test (see DESIGN.md):
 *  - CumulativeTrace prefix cells are bit-identical to the canonical
 *    stepped integrator run from 0;
 *  - grid-aligned windows are exact prefix differences;
 *  - windows inside a single grid cell are bit-identical to the
 *    stepped integrator (same single trapezoid);
 *  - all other windows agree with the stepped reference to <= 1e-12
 *    relative;
 *  - the diurnal and enveloped (forest/bridge/mountain) integrate()
 *    fast paths are bit-identical to the stepped integrator on every
 *    window;
 *  - the intermittent fast-forward reproduces the stepped reference's
 *    step counts exactly and its energy tallies to summation-rounding.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "energy/power_trace.hh"
#include "energy/trace_cache.hh"
#include "hw/processor.hh"
#include "node/intermittent.hh"
#include "sim/rng.hh"

namespace neofog {
namespace {

using namespace neofog::literals;

/** Relative (or tiny-absolute near zero) agreement check. */
void
expectRelNear(double got, double want, double rel, const char *what)
{
    const double tol = std::max(std::abs(want) * rel, 1e-18);
    EXPECT_NEAR(got, want, tol) << what;
}

/**
 * The trace set the cache must serve: flat, stepped, interpolated, and
 * the deployment-wide rain stream (spells x diurnal envelope).
 */
std::vector<std::shared_ptr<const PowerTrace>>
cacheTraceSet(Tick span)
{
    std::vector<std::shared_ptr<const PowerTrace>> set;
    set.push_back(std::make_shared<ConstantTrace>(2.6_mW));
    Rng rng(42);
    std::vector<PiecewiseTrace::Segment> segs;
    Tick at = 0;
    while (at < span + kMin) {
        segs.push_back({at, Power::fromMilliwatts(rng.uniform(0.0, 8.0))});
        at += ticksFromSeconds(rng.uniform(3.0, 90.0));
    }
    set.push_back(std::make_shared<PiecewiseTrace>(segs));
    std::vector<InterpolatedTrace::Knot> knots;
    at = 0;
    while (at < span + kMin) {
        knots.push_back(
            {at, Power::fromMilliwatts(rng.uniform(0.0, 5.0))});
        at += ticksFromSeconds(rng.uniform(20.0, 120.0));
    }
    set.push_back(std::make_shared<InterpolatedTrace>(knots));
    set.push_back(std::shared_ptr<const PowerTrace>(
        traces::makeRainUnitStream(7, span + kMin)));
    return set;
}

/**
 * Prefix table built independently of CumulativeTrace: each cell is
 * one aligned-window stepped integral, accumulated left to right —
 * the definition the cache's table must match bit for bit.
 */
std::vector<double>
referencePrefix(const PowerTrace &trace, Tick span, Tick grid)
{
    const auto cells = static_cast<std::size_t>((span + grid - 1) / grid);
    std::vector<double> prefix(cells + 1, 0.0);
    Energy acc = Energy::zero();
    for (std::size_t k = 1; k <= cells; ++k) {
        acc += trace.integrateStepped(static_cast<Tick>(k - 1) * grid,
                                      static_cast<Tick>(k) * grid, grid);
        prefix[k] = acc.joules();
    }
    return prefix;
}

TEST(CumulativeTrace, TenThousandRandomWindowsPerTraceType)
{
    const Tick span = 30 * kMin;
    Rng rng(99);
    for (const auto &base : cacheTraceSet(span)) {
        const CumulativeTrace cache(base, span);
        ASSERT_EQ(cache.grid(), kSec);
        const std::vector<double> prefix =
            referencePrefix(*base, span, cache.grid());
        ASSERT_EQ(cache.cells() + 1, prefix.size());

        for (int i = 0; i < 10'000; ++i) {
            Tick from;
            Tick to;
            if (i % 4 == 0) {
                // Grid-aligned window: exact prefix difference.
                const auto a = static_cast<Tick>(rng.uniform() *
                                                 (span / kSec));
                const auto b = static_cast<Tick>(rng.uniform() *
                                                 (span / kSec));
                from = std::min(a, b) * kSec;
                to = std::max(a, b) * kSec;
                EXPECT_EQ(cache.integrate(from, to).joules(),
                          prefix[to / kSec] - prefix[from / kSec])
                    << base->describe() << " [" << from << ", " << to
                    << ")";
                continue;
            }
            // Unaligned window (length-capped so 10k windows stay
            // cheap against the stepped reference).
            from = static_cast<Tick>(rng.uniform() * (span - 600 * kSec));
            to = from + static_cast<Tick>(rng.uniform() * (600.0 * kSec));
            const double got = cache.integrate(from, to).joules();
            const double want =
                base->integrateStepped(from, to).joules();
            if (from / kSec == (to - (to > from ? 1 : 0)) / kSec) {
                // Same grid cell: identical single trapezoid.
                EXPECT_EQ(got, want) << base->describe();
            } else {
                expectRelNear(got, want, 1e-12, base->describe().c_str());
            }
        }

        // Full-span and degenerate windows.
        EXPECT_EQ(cache.integrate(0, span).joules(),
                  prefix[span / kSec]);
        EXPECT_EQ(cache.integrate(span / 2, span / 2).joules(), 0.0);
    }
}

TEST(CumulativeTrace, OutOfRangeWindowsFallBackToReference)
{
    const Tick span = 10 * kMin;
    const auto base = std::make_shared<ConstantTrace>(3.0_mW);
    const CumulativeTrace cache(base, span);
    // Tail past the table still integrates correctly.
    expectRelNear(cache.integrate(span - kSec, span + 5 * kSec).joules(),
                  base->integrateStepped(span - kSec, span + 5 * kSec)
                      .joules(),
                  1e-12, "tail window");
    expectRelNear(cache.integrate(0, span + kMin).joules(),
                  base->integrateStepped(0, span + kMin).joules(), 1e-12,
                  "overhang window");
}

TEST(CumulativeTrace, SharedAcrossScaledClones)
{
    // One table, many per-node views — the deployment sharing pattern.
    const Tick span = 20 * kMin;
    const auto stream = std::shared_ptr<const PowerTrace>(
        traces::makeRainUnitStream(11, span));
    const auto cache = std::make_shared<CumulativeTrace>(stream, span);
    Rng rng(5);
    for (int node = 0; node < 16; ++node) {
        const double gain = traces::rainNodeGain(rng);
        const ScaledTrace view(gain, cache);
        const Tick from = 3 * kSec + node * kSec;
        const Tick to = from + 137 * kSec + node;
        EXPECT_EQ(view.integrate(from, to).joules(),
                  cache->integrate(from, to).joules() * gain);
    }
}

/** A diurnal-enveloped trace and the tick of its (single) sunset. */
struct LitTrace
{
    std::shared_ptr<const PowerTrace> trace;
    Tick sunset;
};

/**
 * The deployment traces with an exact integrate() fast path (forest,
 * bridge, mountain; each over the full span and over a 2 h horizon,
 * so daylit windows also run past the last segment) plus bare
 * diurnal envelopes, one with an unaligned sunset and one that starts
 * before sunrise.
 */
std::vector<LitTrace>
litTraceSet(Tick span)
{
    std::vector<LitTrace> set;
    Rng rng(2024);
    for (const Tick horizon : {span, 2 * kHour}) {
        // The forest sunrise offset is the factory's first draw.
        Rng probe = rng;
        const Tick forest_sunset =
            9 * kHour - ticksFromSeconds(probe.uniform(0, 600));
        set.push_back({std::shared_ptr<const PowerTrace>(
                           traces::makeForestTrace(rng, horizon, 2.6_mW)),
                       forest_sunset});
        set.push_back({std::shared_ptr<const PowerTrace>(
                           traces::makeBridgeTrace(1, rng, horizon,
                                                   2.4_mW)),
                       10 * kHour});
        set.push_back({std::shared_ptr<const PowerTrace>(
                           traces::makeMountainTrace(rng, horizon,
                                                     7.0_mW)),
                       9 * kHour});
    }
    DiurnalSolarTrace::Config cfg;
    cfg.sunriseOffset = 3 * kHour + 123'457;
    auto bare = std::make_shared<DiurnalSolarTrace>(cfg);
    set.push_back({bare, bare->sunset()});
    cfg.sunriseOffset = -kHour;
    cfg.attenuation = 0.4;
    auto early = std::make_shared<DiurnalSolarTrace>(cfg);
    set.push_back({early, early->sunset()});
    return set;
}

/**
 * Ticks in [lo, hi) where an enveloped trace's segment level changes,
 * found from its samples alone.  In mid-day the envelope moves less
 * than 1e-4 relative per second, so a larger jump between two whole
 * seconds brackets a segment start, which bisection pins to the tick.
 */
std::vector<Tick>
segmentStarts(const PowerTrace &trace, Tick lo, Tick hi)
{
    const auto jumps = [&trace](Tick a, Tick b) {
        const double pa = trace.at(a).watts();
        const double pb = trace.at(b).watts();
        return std::abs(pb - pa) > 1e-3 * std::max(pa, pb);
    };
    std::vector<Tick> starts;
    for (Tick t = lo; t + kSec <= hi; t += kSec) {
        if (!jumps(t, t + kSec))
            continue;
        Tick a = t;
        Tick b = t + kSec;
        while (b - a > 1) {
            const Tick mid = a + (b - a) / 2;
            (jumps(a, mid) ? b : a) = mid;
        }
        starts.push_back(b);
    }
    return starts;
}

// The enveloped and diurnal integrate() overrides skip sunless
// samples and walk segments forward, yet must return exactly the
// canonical stepped sum on every window shape a run can produce.
TEST(ExactIntegrate, MatchesSteppedOnEveryWindowShape)
{
    const Tick span = 32 * kHour;
    Rng rng(31);
    const auto tick_in = [&rng](Tick lo, Tick hi) {
        return lo + static_cast<Tick>(rng.uniform() *
                                      static_cast<double>(hi - lo));
    };
    int windows = 0;
    int lit_straddles = 0;
    for (const LitTrace &lit : litTraceSet(span)) {
        const PowerTrace &trace = *lit.trace;
        const Tick sunset = lit.sunset;
        const std::string what = trace.describe();
        // The sunset each factory is expected to use really is one.
        ASSERT_GT(trace.at(sunset - 1).watts(), 0.0) << what;
        ASSERT_EQ(trace.at(sunset).watts(), 0.0) << what;
        const std::vector<Tick> starts =
            segmentStarts(trace, kHour, 7 * kHour);
        for (int i = 0; i < 1'280; ++i) {
            Tick from = 0;
            Tick to = 0;
            switch (starts.empty() && i % 9 == 8 ? 7 : i % 9) {
              case 0: // wholly at night
                from = tick_in(sunset, span - 30 * kMin);
                to = from + tick_in(0, 30 * kMin);
                break;
              case 1: // straddling sunset
                from = tick_in(sunset - 10 * kMin, sunset);
                to = tick_in(sunset + 1, sunset + 10 * kMin);
                break;
              case 2: // ending exactly at sunset
                from = tick_in(sunset - 10 * kMin, sunset + 1);
                to = sunset;
                break;
              case 3: // zero length, day or night
                from = to = tick_in(0, span);
                break;
              case 4: // whole-second slot windows, as the engine runs
                from = tick_in(0, span / (12 * kSec)) * 12 * kSec;
                to = from + 12 * kSec;
                break;
              case 5: // crossing several segment starts in daylight
                from = tick_in(0, sunset - kHour);
                to = from + tick_in(20 * kMin, kHour);
                break;
              case 6: // daylight past the 2 h traces' last segment
                from = tick_in(2 * kHour - 5 * kMin, sunset - kMin);
                to = std::min(from + tick_in(0, 15 * kMin), span);
                break;
              case 7: // unaligned edges anywhere
                from = tick_in(0, span - 10 * kMin);
                to = from + tick_in(0, 10 * kMin);
                break;
              default: { // starting or ending on a segment start
                const Tick start = starts[static_cast<std::size_t>(
                    rng.uniformInt(0, static_cast<std::int64_t>(
                                          starts.size()) - 1))];
                const Tick len = tick_in(0, 10 * kMin);
                from = i % 2 == 0 ? start : start - len;
                to = from + len;
                break;
              }
            }
            const double want = trace.integrateStepped(from, to).joules();
            EXPECT_EQ(trace.integrate(from, to).joules(), want)
                << what << " [" << from << ", " << to << ")";
            if (i % 9 == 1 && want > 0.0)
                ++lit_straddles;
            ++windows;
        }
        // One window over the whole span, sunrise to past midnight.
        EXPECT_EQ(trace.integrate(0, span).joules(),
                  trace.integrateStepped(0, span).joules())
            << what;
    }
    EXPECT_GE(windows, 10'000);
    // Straddling windows must carry daylight income, or the sunset
    // cutoff went untested.
    EXPECT_GT(lit_straddles, windows / 12);
}

TEST(TraceCursor, StreamingWindowsMatchStepped)
{
    const Tick span = 15 * kMin;
    for (const auto &base : cacheTraceSet(span)) {
        TraceCursor cursor(*base, 0);
        Energy streamed = Energy::zero();
        Tick at = 0;
        Rng rng(3);
        while (at < span) {
            const Tick to = std::min<Tick>(
                at + ticksFromSeconds(rng.uniform(0.5, 40.0)), span);
            const Energy window = cursor.advance(to);
            // Adjacent windows reuse the boundary sample, yet every
            // window equals the from-scratch stepped integral.
            EXPECT_EQ(window.joules(),
                      base->integrateStepped(at, to).joules())
                << base->describe();
            streamed += window;
            at = to;
        }
        EXPECT_EQ(cursor.position(), span);
        // The window totals associate differently than one continuous
        // accumulation, so the grand total is near, not bit-equal:
        // ~n * eps * sum|cell| over ~1e3 cells.
        expectRelNear(streamed.joules(),
                      base->integrateStepped(0, span).joules(), 1e-10,
                      base->describe().c_str());
    }
}

TEST(ConstantLevelUntil, ReportsFlatSpans)
{
    const ConstantTrace flat(1.0_mW);
    EXPECT_EQ(flat.constantLevelUntil(123), kTickNever);

    const PiecewiseTrace steps(
        {{0, 1.0_mW}, {10 * kSec, 1.0_mW}, {20 * kSec, 2.0_mW}});
    EXPECT_EQ(steps.constantLevelUntil(0), 10 * kSec);
    EXPECT_EQ(steps.constantLevelUntil(15 * kSec), 20 * kSec);
    EXPECT_EQ(steps.constantLevelUntil(25 * kSec), kTickNever);

    const PiecewiseTrace late({{5 * kSec, 1.0_mW}});
    // Zero before the first segment is itself a constant span.
    EXPECT_EQ(late.constantLevelUntil(kSec), 5 * kSec);

    const InterpolatedTrace ramp(
        {{0, 1.0_mW}, {10 * kSec, 3.0_mW}, {20 * kSec, 3.0_mW}});
    EXPECT_EQ(ramp.constantLevelUntil(5 * kSec), 5 * kSec); // sloped
    EXPECT_EQ(ramp.constantLevelUntil(12 * kSec), 20 * kSec); // flat
    EXPECT_EQ(ramp.constantLevelUntil(30 * kSec), kTickNever); // hold
}

/**
 * The fast-forward equivalence matrix: every trace type x NVP-FIOS
 * and VP-NOS.  Step-count results must match the stepped reference
 * exactly; energy tallies to summation-rounding (n*x vs x+...+x).
 */
TEST(IntermittentFastForward, MatchesSteppedReference)
{
    const Tick horizon = 10 * kMin;
    std::vector<std::shared_ptr<const PowerTrace>> set =
        cacheTraceSet(horizon);
    Rng rng(21);
    set.push_back(std::shared_ptr<const PowerTrace>(
        traces::makePiezoTrace(rng, horizon, 5.0_mW, 12.0)));
    set.push_back(std::shared_ptr<const PowerTrace>(
        traces::makeRfTrace(rng, horizon, 0.4_mW)));
    // Down-scale the unit-mean rain stream to mote-level income.
    set.push_back(std::make_shared<ScaledTrace>(
        0.0026, std::shared_ptr<const PowerTrace>(
                    traces::makeRainUnitStream(13, horizon))));

    const NvProcessor nvp{NvProcessor::fiosConfig()};
    const VolatileProcessor vp;
    IntermittentExecution::Config nv_cfg;
    nv_cfg.frontend = FrontEnd::makeFios().config();
    IntermittentExecution::Config vp_cfg;
    vp_cfg.frontend = FrontEnd::makeNos().config();

    int total_cycles = 0;
    for (const auto &trace : set) {
        for (const auto *cfg : {&nv_cfg, &vp_cfg}) {
            const Processor &cpu =
                cfg == &nv_cfg ? static_cast<const Processor &>(nvp)
                               : static_cast<const Processor &>(vp);
            IntermittentExecution::Config fast = *cfg;
            fast.fastForward = true;
            IntermittentExecution::Config stepped = *cfg;
            stepped.fastForward = false;
            const auto f =
                IntermittentExecution::run(cpu, *trace, horizon, fast);
            const auto s = IntermittentExecution::run(cpu, *trace,
                                                      horizon, stepped);
            const std::string what = trace->describe();
            EXPECT_EQ(f.powerCycles, s.powerCycles) << what;
            EXPECT_EQ(f.instructionsCompleted, s.instructionsCompleted)
                << what;
            EXPECT_EQ(f.instructionsWasted, s.instructionsWasted)
                << what;
            EXPECT_EQ(f.activeTime, s.activeTime) << what;
            EXPECT_EQ(f.overheadTime, s.overheadTime) << what;
            expectRelNear(f.harvested.joules(), s.harvested.joules(),
                          1e-9, what.c_str());
            expectRelNear(f.spent.joules(), s.spent.joules(), 1e-9,
                          what.c_str());
            total_cycles += s.powerCycles;
        }
    }
    // The matrix must actually exercise power cycling somewhere,
    // or the brown-out/wake boundary handling went untested.
    EXPECT_GT(total_cycles, 0);
}

TEST(IntermittentFastForward, PartialFinalStepMatches)
{
    // A horizon that is not a whole number of steps forces the
    // partial-trapezoid final step through the exact path.
    const ConstantTrace trace(2.0_mW);
    const NvProcessor nvp{NvProcessor::fiosConfig()};
    IntermittentExecution::Config cfg;
    cfg.frontend = FrontEnd::makeFios().config();
    const Tick horizon = 90 * kSec + 257;
    IntermittentExecution::Config stepped = cfg;
    stepped.fastForward = false;
    const auto f = IntermittentExecution::run(nvp, trace, horizon, cfg);
    const auto s =
        IntermittentExecution::run(nvp, trace, horizon, stepped);
    EXPECT_EQ(f.powerCycles, s.powerCycles);
    EXPECT_EQ(f.instructionsCompleted, s.instructionsCompleted);
    EXPECT_EQ(f.activeTime, s.activeTime);
    EXPECT_EQ(f.overheadTime, s.overheadTime);
    expectRelNear(f.harvested.joules(), s.harvested.joules(), 1e-9,
                  "harvested");
}

} // namespace
} // namespace neofog
