/**
 * @file
 * Integration tests: full FogSystem runs across modes, balancers,
 * power regimes, and multiplexing.
 */

#include <gtest/gtest.h>

#include "fog/experiment.hh"
#include "fog/fog_system.hh"
#include "fog/presets.hh"
#include "sim/logging.hh"

namespace neofog {
namespace {

ScenarioConfig
smallScenario(OperatingMode mode, const std::string &policy)
{
    ScenarioConfig cfg;
    cfg.nodesPerChain = 10;
    cfg.chains = 1;
    cfg.horizon = kHour;
    cfg.slotInterval = 12 * kSec;
    cfg.traceKind = TraceKind::ForestIndependent;
    cfg.meanIncome = Power::fromMilliwatts(2.6);
    cfg.mode = mode;
    cfg.balancerPolicy = policy;
    cfg.nodeTemplate = presets::systemNodeTemplate();
    cfg.seed = 11;
    return cfg;
}

TEST(ScenarioConfig, SlotArithmetic)
{
    ScenarioConfig cfg;
    cfg.nodesPerChain = 10;
    cfg.chains = 1;
    cfg.horizon = 5 * kHour;
    cfg.slotInterval = 12 * kSec;
    EXPECT_EQ(cfg.slotCount(), 1500);
    EXPECT_EQ(cfg.idealPackages(), 15000u);
}

TEST(ScenarioConfig, TraceKindNames)
{
    EXPECT_EQ(traceKindName(TraceKind::ForestIndependent),
              "forest-independent");
    EXPECT_EQ(traceKindName(TraceKind::RainLow), "rain-low");
}

TEST(FogSystem, RejectsBadConfigs)
{
    ScenarioConfig cfg = smallScenario(OperatingMode::NosVp, "none");
    cfg.nodesPerChain = 0;
    EXPECT_THROW(FogSystem{cfg}, FatalError);

    ScenarioConfig cfg2 = smallScenario(OperatingMode::NosVp, "none");
    cfg2.multiplexing = 0;
    EXPECT_THROW(FogSystem{cfg2}, FatalError);

    ScenarioConfig cfg3 = smallScenario(OperatingMode::NosVp, "bogus");
    EXPECT_THROW(FogSystem{cfg3}, FatalError);
}

TEST(FogSystem, ReportInvariants)
{
    FogSystem sys(smallScenario(OperatingMode::FiosNvMote,
                                "distributed"));
    const SystemReport r = sys.run();
    EXPECT_EQ(r.idealPackages, 3000u);
    // Every slot either wakes or fails.
    EXPECT_EQ(r.wakeups + r.depletionFailures, 3000u);
    // Cannot process more than was sampled.
    EXPECT_LE(r.totalProcessed(), r.packagesSampled);
    EXPECT_LE(r.packagesSampled, r.idealPackages);
    EXPECT_GE(r.yield(), 0.0);
    EXPECT_LE(r.yield(), 1.0);
}

TEST(FogSystem, RunTwiceForbidden)
{
    FogSystem sys(smallScenario(OperatingMode::NosVp, "none"));
    sys.run();
    EXPECT_DEATH(sys.run(), "run called twice");
}

TEST(FogSystem, DeterministicForSeed)
{
    const auto cfg = smallScenario(OperatingMode::FiosNvMote,
                                   "distributed");
    FogSystem a(cfg), b(cfg);
    const SystemReport ra = a.run();
    const SystemReport rb = b.run();
    EXPECT_EQ(ra.totalProcessed(), rb.totalProcessed());
    EXPECT_EQ(ra.wakeups, rb.wakeups);
    EXPECT_EQ(ra.packagesInFog, rb.packagesInFog);
    EXPECT_EQ(ra.tasksBalancedAway, rb.tasksBalancedAway);
}

TEST(FogSystem, SeedChangesOutcome)
{
    auto cfg1 = smallScenario(OperatingMode::FiosNvMote, "none");
    auto cfg2 = cfg1;
    cfg2.seed = 999;
    FogSystem a(cfg1), b(cfg2);
    EXPECT_NE(a.run().totalProcessed(), b.run().totalProcessed());
}

TEST(FogSystem, VpProcessesOnlyToCloud)
{
    FogSystem sys(smallScenario(OperatingMode::NosVp, "none"));
    const SystemReport r = sys.run();
    EXPECT_EQ(r.packagesInFog, 0u);
    EXPECT_GT(r.packagesToCloud, 0u);
}

TEST(FogSystem, NvpModesProcessInFog)
{
    FogSystem sys(smallScenario(OperatingMode::NosNvp, "tree"));
    const SystemReport r = sys.run();
    EXPECT_GT(r.packagesInFog, 0u);
    // Fog dominates for NVP systems (paper: ~94%).
    EXPECT_GT(static_cast<double>(r.packagesInFog),
              0.6 * static_cast<double>(r.totalProcessed()));
}

TEST(FogSystem, SystemOrderingMatchesPaper)
{
    const SystemReport vp =
        FogSystem(smallScenario(OperatingMode::NosVp, "none")).run();
    const SystemReport nvp =
        FogSystem(smallScenario(OperatingMode::NosNvp, "tree")).run();
    const SystemReport neo =
        FogSystem(smallScenario(OperatingMode::FiosNvMote,
                                "distributed")).run();
    // NEOFog > NVP-baseline and NEOFog > VP (the one-hour horizon is
    // noisy, so only the strong orderings are asserted).
    EXPECT_GT(neo.totalProcessed(), nvp.totalProcessed());
    EXPECT_GT(neo.totalProcessed(), vp.totalProcessed());
    EXPECT_GT(static_cast<double>(neo.totalProcessed()),
              1.3 * static_cast<double>(vp.totalProcessed()));
}

TEST(FogSystem, DistributedBalancerMovesTasksUnderVariance)
{
    FogSystem sys(smallScenario(OperatingMode::FiosNvMote,
                                "distributed"));
    const SystemReport r = sys.run();
    EXPECT_GT(r.tasksBalancedAway, 0u);
    EXPECT_GT(r.lbMessages, 0u);
}

TEST(FogSystem, MultiplexingHelpsInLowPower)
{
    auto mk = [](int mux) {
        ScenarioConfig cfg =
            presets::fig13(presets::fiosNeofog(), mux);
        cfg.horizon = 2 * kHour;
        return cfg;
    };
    const SystemReport m1 = FogSystem(mk(1)).run();
    const SystemReport m3 = FogSystem(mk(3)).run();
    EXPECT_GT(static_cast<double>(m3.totalProcessed()),
              1.5 * static_cast<double>(m1.totalProcessed()));
}

TEST(FogSystem, MultiplexingNeutralInHighPower)
{
    auto mk = [](int mux) {
        ScenarioConfig cfg =
            presets::fig12(presets::fiosNeofog(), mux);
        cfg.horizon = 2 * kHour;
        return cfg;
    };
    // A single 2-hour seed is too noisy to pin the "roughly neutral"
    // property, so average a few seeds (the paper itself averages
    // five power profiles per figure).
    const RunOptions opts{.runs = 5, .baseSeed = 500,
                          .seedThreads = 4};
    const AggregateReport m1 =
        ExperimentRunner::runSeeds(mk(1), opts);
    const AggregateReport m3 =
        ExperimentRunner::runSeeds(mk(3), opts);
    const double gain = m3.stat("total_processed").mean() /
                        m1.stat("total_processed").mean();
    EXPECT_LT(gain, 1.35);
}

TEST(FogSystem, MultiplexedSystemHasCorrectNodeCount)
{
    ScenarioConfig cfg = smallScenario(OperatingMode::FiosNvMote,
                                       "distributed");
    cfg.multiplexing = 3;
    FogSystem sys(cfg);
    EXPECT_EQ(sys.physicalPerChain(), 30u);
    sys.run();
    // Physical wakeups are spread across clones: total logical slots
    // still bounded by ideal.
    std::uint64_t wakeups = 0;
    for (std::size_t i = 0; i < 30; ++i)
        wakeups += sys.node(0, i).stats().wakeups.value();
    EXPECT_LE(wakeups, cfg.idealPackages());
}

TEST(FogSystem, MultipleChainsAggregate)
{
    ScenarioConfig cfg = smallScenario(OperatingMode::FiosNvMote,
                                       "distributed");
    cfg.chains = 3;
    FogSystem sys(cfg);
    const SystemReport r = sys.run();
    EXPECT_EQ(r.idealPackages, 9000u);
    EXPECT_GT(r.totalProcessed(), 0u);
}

TEST(FogSystem, DependentTracesLessBalancing)
{
    ScenarioConfig indep = smallScenario(OperatingMode::FiosNvMote,
                                         "distributed");
    ScenarioConfig dep = indep;
    dep.traceKind = TraceKind::BridgeDependent;
    const SystemReport ri = FogSystem(indep).run();
    const SystemReport rd = FogSystem(dep).run();
    // Dependent power -> less stored-energy variance -> the balancer
    // activates less (paper §5.2.2).
    EXPECT_LE(rd.tasksBalancedAway, ri.tasksBalancedAway);
}

TEST(FogSystem, EnergyAccountingSane)
{
    FogSystem sys(smallScenario(OperatingMode::FiosNvMote,
                                "distributed"));
    sys.run();
    for (std::size_t i = 0; i < 10; ++i) {
        const Node &n = sys.node(0, i);
        const NodeStats &st = n.stats();
        const double harvested = st.harvestedTotal.millijoules();
        const double spent =
            st.spentCompute.millijoules() + st.spentTx.millijoules() +
            st.spentRx.millijoules() + st.spentSample.millijoules() +
            st.spentWake.millijoules();
        // A node cannot spend more (at load) than it harvested
        // (ambient) plus its initial charge.
        EXPECT_LE(spent, harvested + 60.0 + 1e-6);
        EXPECT_GE(harvested, 0.0);
    }
}

TEST(FogSystem, StoredEnergySeriesRecorded)
{
    ScenarioConfig cfg = smallScenario(OperatingMode::NosNvp, "tree");
    cfg.probes.watchNodes = {3};
    FogSystem sys(cfg);
    sys.run();
    const RingSeries *ring = sys.chains()[0]->watchedSeries(3);
    ASSERT_NE(ring, nullptr);
    // At mux 1 the node is scheduled every slot and the ring keeps
    // every point.
    EXPECT_EQ(ring->size(), static_cast<std::size_t>(cfg.slotCount()));
    EXPECT_EQ(ring->dropped(), 0u);
    const auto series = ring->snapshot();
    EXPECT_GT(series.size(), 100u);
    for (const auto &pt : series) {
        EXPECT_GE(pt.value, 0.0);
        EXPECT_LE(pt.value, 250.0 + 1e-9);
    }
    // The export path reads the same ring; unwatched nodes have none.
    EXPECT_EQ(sys.nodeEnergySeries(0, 3, 0).points.size(), series.size());
    EXPECT_EQ(sys.chains()[0]->watchedSeries(2), nullptr);
    EXPECT_THROW(sys.nodeEnergySeries(0, 2), FatalError);
}

TEST(FogSystem, WatchIdOutOfRangeThrows)
{
    // Ids are global physical node ids: 2 chains x 10 nodes x mux 2
    // gives 0..39.  The last valid id builds; the next one is fatal.
    ScenarioConfig cfg = smallScenario(OperatingMode::NosNvp, "none");
    cfg.chains = 2;
    cfg.multiplexing = 2;
    cfg.probes.watchNodes = {39};
    EXPECT_NO_THROW(FogSystem{cfg});
    cfg.probes.watchNodes = {0, 40};
    try {
        FogSystem sys(cfg);
        FAIL() << "watch id 40 accepted";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find("40"), std::string::npos)
            << err.what();
    }
}

} // namespace
} // namespace neofog
