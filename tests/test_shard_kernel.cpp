/**
 * @file
 * Oracle property test for the column slot kernel (ShardSlotKernel),
 * the ChainEngine's only slot-boundary path: ShardSlotKernel::run on
 * one shard must leave every state column, every harvestedTotal and
 * the whole rollover (pending ages, stale discards, buffer fill,
 * samplesDiscarded, sensor and radio power-failure resets) bit-for-bit
 * where the scalar reference, Node::beginSlotWithIncome, leaves a twin
 * shard fed the same income.  Randomized slots cover dense lanes
 * (whole shard or a consecutive sub-range, computed in place) and
 * sparse lanes (mux-style and random row subsets, wider than one
 * tile), FIOS and non-FIOS banking, zero income, capacitor overflow,
 * RTC desync, queues with stale packages, and lanes with and without
 * an accrual gap.  Registered under the "perf" ctest label.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "energy/power_trace.hh"
#include "node/node.hh"
#include "node/node_soa.hh"
#include "node/shard_kernel.hh"

namespace neofog {
namespace {

constexpr Tick kSlot = 12 * kSec;

/** A chain-like shard of @p rows nodes built from one template. */
struct TwinShard
{
    TwinShard(const Node::Config &tmpl, std::size_t rows)
    {
        shard.reserveRows(rows, static_cast<std::size_t>(std::max(
                                    1, tmpl.packageDeadlineSlots)));
        for (std::size_t r = 0; r < rows; ++r) {
            Node::Config cfg = tmpl;
            cfg.id = static_cast<std::uint32_t>(r);
            nodes.push_back(std::make_unique<Node>(
                cfg,
                std::make_unique<ConstantTrace>(
                    Power::fromMilliwatts(2.2)),
                Rng(1000 + r), shard));
        }
    }

    NodeShard shard;
    std::vector<std::unique_ptr<Node>> nodes;
};

/** Bit pattern of a double, so -0.0 / NaN payloads compare exactly. */
std::uint64_t
bits(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

void
expectShardsEqual(const NodeShard &k, const NodeShard &s,
                  const std::string &where)
{
    using Column = std::vector<double> NodeShard::*;
    const std::pair<const char *, Column> columns[] = {
        {"capStoredJ", &NodeShard::capStoredJ},
        {"capChargedJ", &NodeShard::capChargedJ},
        {"capOverflowJ", &NodeShard::capOverflowJ},
        {"capLeakedJ", &NodeShard::capLeakedJ},
        {"capDischargedJ", &NodeShard::capDischargedJ},
        {"rtcStoredJ", &NodeShard::rtcStoredJ},
        {"rtcChargedJ", &NodeShard::rtcChargedJ},
        {"rtcOverflowJ", &NodeShard::rtcOverflowJ},
        {"rtcLeakedJ", &NodeShard::rtcLeakedJ},
        {"rtcDischargedJ", &NodeShard::rtcDischargedJ},
        {"rtcSync", &NodeShard::rtcSync},
        {"rtcDesyncs", &NodeShard::rtcDesyncs},
        {"directBudgetJ", &NodeShard::directBudgetJ}};
    for (std::size_t r = 0; r < k.rows(); ++r) {
        for (const auto &[name, column] : columns)
            ASSERT_EQ(bits((k.*column)[r]), bits((s.*column)[r]))
                << name << " row " << r << " " << where << ": kernel "
                << (k.*column)[r] << " vs scalar " << (s.*column)[r];
        ASSERT_EQ(bits(k.lastIncome[r].watts()),
                  bits(s.lastIncome[r].watts()))
            << "lastIncome row " << r << " " << where;
        ASSERT_EQ(bits(k.stats[r].harvestedTotal.joules()),
                  bits(s.stats[r].harvestedTotal.joules()))
            << "harvestedTotal row " << r << " " << where;
    }
    EXPECT_EQ(k.lastAccrual, s.lastAccrual) << where;
    EXPECT_EQ(k.slotStart, s.slotStart) << where;
    EXPECT_EQ(k.slotLength, s.slotLength) << where;
    EXPECT_EQ(k.slotTimeUsed, s.slotTimeUsed) << where;
    EXPECT_EQ(k.awake, s.awake) << where;
    EXPECT_EQ(k.rfInitializedThisSlot, s.rfInitializedThisSlot) << where;
    EXPECT_EQ(k.slotCostsValid, s.slotCostsValid) << where;
    EXPECT_EQ(k.pendingAge, s.pendingAge) << where;
    EXPECT_EQ(k.pendingPackages, s.pendingPackages) << where;
    for (std::size_t r = 0; r < k.rows(); ++r) {
        ASSERT_EQ(k.stats[r].samplesDiscarded.value(),
                  s.stats[r].samplesDiscarded.value())
            << "samplesDiscarded row " << r << " " << where;
        ASSERT_EQ(k.buffer[r].size(), s.buffer[r].size())
            << "buffer row " << r << " " << where;
        ASSERT_EQ(k.sensor[r].initialized(), s.sensor[r].initialized())
            << "sensor row " << r << " " << where;
        ASSERT_EQ(k.rf[r]->state(), s.rf[r]->state())
            << "rf row " << r << " " << where;
    }
}

/** Which rows one randomized slot wakes. */
enum class LaneShape
{
    DenseAll,   ///< every row in order (mux 1 chain)
    DenseRange, ///< a consecutive sub-range, in order
    Mux,        ///< one member of each group of `mux` rows
    Random,     ///< a random sorted subset
};

std::vector<std::uint32_t>
pickRows(LaneShape shape, std::size_t rows, std::int64_t slot,
         std::mt19937_64 &rng)
{
    std::vector<std::uint32_t> out;
    switch (shape) {
      case LaneShape::DenseAll:
        for (std::size_t r = 0; r < rows; ++r)
            out.push_back(static_cast<std::uint32_t>(r));
        break;
      case LaneShape::DenseRange: {
        const std::size_t lo = rng() % rows;
        const std::size_t hi = lo + 1 + rng() % (rows - lo);
        for (std::size_t r = lo; r < hi; ++r)
            out.push_back(static_cast<std::uint32_t>(r));
        break;
      }
      case LaneShape::Mux: {
        const std::size_t mux = 2 + rng() % 2;
        for (std::size_t g = 0; g + mux <= rows; g += mux)
            out.push_back(static_cast<std::uint32_t>(
                g + static_cast<std::size_t>(slot) % mux));
        break;
      }
      case LaneShape::Random:
        for (std::size_t r = 0; r < rows; ++r)
            if (rng() % 3 != 0)
                out.push_back(static_cast<std::uint32_t>(r));
        break;
    }
    return out;
}

/** An ambient income draw: zero, tiny, typical, or cap-flooding. */
double
incomeJoules(std::mt19937_64 &rng, Tick window)
{
    const double secs = secondsFromTicks(window);
    switch (rng() % 5) {
      case 0:
        return 0.0;
      case 1:
        return 1e-9 * secs;
      case 2:
        return 10.0; // far past the main capacitor's capacity
      default:
        return std::uniform_real_distribution<double>(0.0, 6e-3)(rng) *
               secs;
    }
}

/**
 * Give row @p r of @p sh a warm sensor, a radio whose network state a
 * volatile radio loses at power-off, and a fresh sample in its queue —
 * what a woken node leaves behind, for the next rollover to reset and
 * age (a package ages out after `depth` boundaries).
 */
void
wakeRow(NodeShard &sh, std::size_t r, std::size_t raw_bytes)
{
    sh.sensor[r].initialize();
    sh.rf[r]->state().routeVersion += 1;
    sh.pendingAge[sh.pendingOffset[r]] += 1;
    sh.pendingPackages[r] += 1;
    sh.buffer[r].push(raw_bytes);
}

/**
 * Randomize the banking state of row @p r identically on both shards:
 * stored levels from empty to full, RTC in or out of sync and
 * sometimes too dry to keep its draw, a leftover FIOS direct budget,
 * an accrual cursor up to a few slots behind @p t0, and a pending
 * queue spread over every age.
 */
void
seedRow(NodeShard &k, NodeShard &s, std::size_t r, Tick t0,
        const ShardSlotKernelParams &p, std::mt19937_64 &rng)
{
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    const double cap = rng() % 4 == 0 ? p.capCapacityJ
                                      : unit(rng) * p.capCapacityJ;
    const double rtc = rng() % 3 == 0 ? 0.0 : unit(rng) * p.rtcCapacityJ;
    const double sync = rng() % 4 == 0 ? 0.0 : 1.0;
    const double direct = p.fios && rng() % 2 == 0 ? unit(rng) * 1e-2 : 0.0;
    const Tick last = t0 - static_cast<Tick>(rng() % 4) * kSlot;
    for (NodeShard *sh : {&k, &s}) {
        sh->capStoredJ[r] = cap;
        sh->rtcStoredJ[r] = rtc;
        sh->rtcSync[r] = sync;
        sh->directBudgetJ[r] = direct;
        sh->lastAccrual[r] = last;
    }
    for (std::size_t a = 0; a < k.pendingDepth[r]; ++a) {
        const int count = static_cast<int>(rng() % 3);
        for (int c = 0; c < count; ++c) {
            for (NodeShard *sh : {&k, &s}) {
                wakeRow(*sh, r, p.rawPackageBytes);
                // wakeRow queues at age 0; move it to age a.
                sh->pendingAge[sh->pendingOffset[r]] -= 1;
                sh->pendingAge[sh->pendingOffset[r] + a] += 1;
            }
        }
    }
}

void
runOracle(OperatingMode mode, std::uint64_t seed)
{
    constexpr std::size_t kRows = 700; // sparse lanes span > 1 tile
    constexpr int kSlots = 60;
    const Tick t0 = 10 * kSlot;

    Node::Config tmpl;
    tmpl.mode = mode;
    tmpl.rtc.interval = kSlot;
    tmpl.packageDeadlineSlots = 3; // age rings deeper than one slot
    TwinShard kernel_side(tmpl, kRows);
    TwinShard scalar_side(tmpl, kRows);

    const ShardSlotKernelParams params = ShardSlotKernelParams::fromConfigs(
        tmpl.cap, tmpl.rtc, kernel_side.nodes.front()->frontend().config(),
        mode == OperatingMode::FiosNvMote, tmpl.rawPackageBytes);
    ShardSlotKernel kernel(params);

    std::mt19937_64 rng(seed);
    for (std::size_t r = 0; r < kRows; ++r)
        seedRow(kernel_side.shard, scalar_side.shard, r, t0, params, rng);
    expectShardsEqual(kernel_side.shard, scalar_side.shard, "at seeding");

    std::size_t gap_lanes = 0;
    std::size_t gapless_slots = 0;
    std::size_t flush_lanes = 0;
    std::vector<ShardSlotKernel::Lane> lanes;
    for (int k = 0; k < kSlots; ++k) {
        const Tick t = t0 + k * kSlot;
        // Two whole-shard slots in a row every ten: the second has no
        // gap lane at all, the kernel's gap-free variant.
        const auto shape = k % 10 >= 8
            ? LaneShape::DenseAll
            : static_cast<LaneShape>(rng() % 4);
        lanes.clear();
        const std::size_t gap_lanes_before = gap_lanes;
        for (const std::uint32_t row :
             pickRows(shape, kRows, k, rng)) {
            ShardSlotKernel::Lane lane;
            lane.row = row;
            const Tick last = kernel_side.shard.lastAccrual[row];
            if (t > last) {
                lane.gapTicks = t - last;
                lane.gapJoules = incomeJoules(rng, lane.gapTicks);
                ++gap_lanes;
            }
            lane.slotJoules = incomeJoules(rng, kSlot);
            if (kernel_side.shard.directBudgetJ[row] > 0.0)
                ++flush_lanes;
            lanes.push_back(lane);
        }
        if (gap_lanes == gap_lanes_before)
            ++gapless_slots;

        kernel.run(kernel_side.shard, lanes, t, kSlot);
        for (const ShardSlotKernel::Lane &lane : lanes)
            scalar_side.nodes[lane.row]->beginSlotWithIncome(
                t, kSlot, Energy::fromJoules(lane.gapJoules),
                Energy::fromJoules(lane.slotJoules));
        // Some lanes "wake" in the slot just banked: the next boundary
        // must power-cycle them and age their fresh sample.
        for (const ShardSlotKernel::Lane &lane : lanes) {
            if (rng() % 2 != 0)
                continue;
            wakeRow(kernel_side.shard, lane.row, params.rawPackageBytes);
            wakeRow(scalar_side.shard, lane.row, params.rawPackageBytes);
        }

        expectShardsEqual(kernel_side.shard, scalar_side.shard,
                          "after slot " + std::to_string(k) +
                              ", shape " +
                              std::to_string(static_cast<int>(shape)));
        if (::testing::Test::HasFatalFailure())
            return;
    }

    // The draws must actually reach the arms they are meant to cover.
    double overflow = 0.0;
    double desyncs = 0.0;
    std::uint64_t discarded = 0;
    for (std::size_t r = 0; r < kRows; ++r) {
        overflow += scalar_side.shard.capOverflowJ[r];
        desyncs += scalar_side.shard.rtcDesyncs[r];
        discarded += scalar_side.shard.stats[r].samplesDiscarded.value();
    }
    EXPECT_GT(gap_lanes, 0u);
    EXPECT_GT(gapless_slots, 0u);
    EXPECT_GT(overflow, 0.0);
    EXPECT_GT(desyncs, 0.0);
    EXPECT_GT(discarded, 0u);
    if (mode == OperatingMode::FiosNvMote) {
        EXPECT_GT(flush_lanes, 0u);
    }
}

TEST(ShardKernelOracle, FiosMatchesScalarBanking)
{
    for (const std::uint64_t seed : {1u, 2u, 3u})
        runOracle(OperatingMode::FiosNvMote, seed);
}

TEST(ShardKernelOracle, NosNvpMatchesScalarBanking)
{
    for (const std::uint64_t seed : {4u, 5u, 6u})
        runOracle(OperatingMode::NosNvp, seed);
}

TEST(ShardKernelOracle, NosVpMatchesScalarBanking)
{
    for (const std::uint64_t seed : {7u, 8u})
        runOracle(OperatingMode::NosVp, seed);
}

} // namespace
} // namespace neofog
