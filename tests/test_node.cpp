/**
 * @file
 * Tests for the Node slot-level state machine.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "energy/power_trace.hh"
#include "fog/fog_system.hh"
#include "node/node.hh"
#include "node/node_soa.hh"
#include "sim/logging.hh"

namespace neofog {
namespace {

using namespace neofog::literals;

constexpr Tick kSlot = 12 * kSec;

Node::Config
baseConfig(OperatingMode mode)
{
    Node::Config cfg;
    cfg.mode = mode;
    cfg.cap.capacity = 250.0_mJ;
    cfg.cap.initial = 125.0_mJ;
    cfg.cap.leakage = Power::fromMicrowatts(15.0);
    cfg.sensor = sensors::lis331dlh();
    cfg.processorMhz = 50.0;
    cfg.rawPackageBytes = 256;
    cfg.compressedPackageBytes = 16;
    cfg.samplesPerPackage = 64;
    cfg.fogInstructionsPerPackage = 20'000'000;
    return cfg;
}

std::unique_ptr<Node>
makeNode(OperatingMode mode, Power income,
         Node::Config cfg_override = Node::Config{},
         bool use_override = false)
{
    const Node::Config cfg =
        use_override ? cfg_override : baseConfig(mode);
    return std::make_unique<Node>(
        cfg, std::make_unique<ConstantTrace>(income), Rng(7));
}

TEST(Node, ModeNames)
{
    EXPECT_EQ(operatingModeName(OperatingMode::NosVp), "NOS-VP");
    EXPECT_EQ(operatingModeName(OperatingMode::NosNvp), "NOS-NVP");
    EXPECT_EQ(operatingModeName(OperatingMode::FiosNvMote),
              "FIOS-NV-mote");
}

TEST(Node, RequiresTrace)
{
    EXPECT_THROW(
        Node(baseConfig(OperatingMode::NosVp), nullptr, Rng(1)),
        FatalError);
}

TEST(Node, BeginSlotBanksIncome)
{
    auto node = makeNode(OperatingMode::NosNvp, 5.0_mW);
    const Energy before = node->stored();
    node->beginSlot(0, kSlot);
    // NOS front end: 5 mW x 12 s x 0.8 x 0.7 minus RTC share & leakage.
    const double banked =
        node->stored().millijoules() - before.millijoules();
    EXPECT_NEAR(banked, 5.0 * 12.0 * 0.8 * 0.7 * 0.98, 2.0);
}

TEST(Node, FiosIncomeGoesToDirectBudgetFirst)
{
    auto node = makeNode(OperatingMode::FiosNvMote, 5.0_mW);
    const Energy before = node->stored();
    node->beginSlot(0, kSlot);
    // The slot's income is held as direct budget, not banked yet
    // (minus leakage the cap should be unchanged).
    EXPECT_NEAR(node->stored().millijoules(), before.millijoules(), 0.5);
    // Unused direct budget banks at the next slot boundary.
    node->beginSlot(kSlot, kSlot);
    EXPECT_GT(node->stored().millijoules(), before.millijoules() + 20.0);
}

TEST(Node, WakeCountsAndCosts)
{
    auto node = makeNode(OperatingMode::NosNvp, 2.0_mW);
    node->beginSlot(0, kSlot);
    EXPECT_TRUE(node->tryWake());
    EXPECT_TRUE(node->awake());
    EXPECT_EQ(node->stats().wakeups.value(), 1u);
    EXPECT_EQ(node->stats().depletionFailures.value(), 0u);
}

TEST(Node, DepletedNodeFailsToWake)
{
    Node::Config cfg = baseConfig(OperatingMode::NosNvp);
    cfg.cap.initial = Energy::zero();
    auto node = makeNode(OperatingMode::NosNvp,
                         Power::fromMicrowatts(1.0), cfg, true);
    node->beginSlot(0, kSlot);
    EXPECT_FALSE(node->tryWake());
    EXPECT_EQ(node->stats().depletionFailures.value(), 1u);
    EXPECT_FALSE(node->awake());
}

TEST(Node, VpActivationCheaperThanNvp)
{
    auto vp = makeNode(OperatingMode::NosVp, 1.0_mW);
    auto nvp = makeNode(OperatingMode::NosNvp, 1.0_mW);
    // NVP modes gate on wake+sample+task/4 (the higher activation
    // threshold of §5.2.1).
    EXPECT_LT(vp->activationCost().joules(),
              nvp->activationCost().joules());
}

TEST(Node, ClassifyLaddersWithStoredEnergy)
{
    Node::Config cfg = baseConfig(OperatingMode::NosNvp);
    cfg.cap.initial = Energy::zero();
    auto node = makeNode(OperatingMode::NosNvp,
                         Power::fromMicrowatts(1.0), cfg, true);
    node->beginSlot(0, kSlot);
    EXPECT_EQ(node->classify(), EnergyClass::Dead);

    Node::Config cfg2 = baseConfig(OperatingMode::NosNvp);
    cfg2.cap.initial = 20.0_mJ;
    auto node2 = makeNode(OperatingMode::NosNvp,
                          Power::fromMicrowatts(1.0), cfg2, true);
    node2->beginSlot(0, kSlot);
    EXPECT_EQ(node2->classify(), EnergyClass::Awake);

    Node::Config cfg3 = baseConfig(OperatingMode::NosNvp);
    cfg3.cap.initial = 110.0_mJ;
    auto node3 = makeNode(OperatingMode::NosNvp,
                          Power::fromMicrowatts(1.0), cfg3, true);
    node3->beginSlot(0, kSlot);
    EXPECT_EQ(node3->classify(), EnergyClass::Ready);

    Node::Config cfg4 = baseConfig(OperatingMode::NosNvp);
    cfg4.cap.initial = 250.0_mJ;
    auto node4 = makeNode(OperatingMode::NosNvp,
                          Power::fromMicrowatts(1.0), cfg4, true);
    node4->beginSlot(0, kSlot);
    EXPECT_EQ(node4->classify(), EnergyClass::Extra);
}

TEST(Node, DeadFloorAgreesWithTheFullActivationCheck)
{
    // classify()'s dead floor (NVP modes: deliverable < wake + sample)
    // must reach the same Dead verdict as the full activation check,
    // on both sides of the floor and of the threshold, and must leave
    // the per-slot cost memos unpriced when it fires.  NosVp activates
    // on wakeCost() alone, so no floor applies there.
    for (const OperatingMode mode :
         {OperatingMode::FiosNvMote, OperatingMode::NosNvp,
          OperatingMode::NosVp}) {
        SCOPED_TRACE(operatingModeName(mode));
        NodeShard shard;
        shard.reserveRows(1, 1);
        Node node(baseConfig(mode),
                  std::make_unique<ConstantTrace>(1.0_mW), Rng(7),
                  shard);
        const std::uint32_t row = node.shardRow();
        const double eff = node.frontend().config().dischargeEfficiency;
        const bool nvp = mode != OperatingMode::NosVp;

        // The two thresholds as deliverable energy (J): the floor and
        // the full activation cost at this slot's income.
        node.beginSlot(0, kSlot);
        const double floor_j =
            (node.wakeCost() + node.sampleCost()).joules();
        const double activation_j = node.activationCost().joules();
        if (nvp) {
            ASSERT_LT(floor_j, activation_j);
        } else {
            ASSERT_GT(floor_j, activation_j); // wake + sample > wake
        }

        // Stored levels whose deliverable energy sits just below, at
        // and just above each threshold, between them, and far off.
        std::vector<double> stored_j = {
            0.0, 2.0 * std::max(floor_j, activation_j) / eff};
        for (const double mark : {floor_j, activation_j}) {
            const double at = mark / eff;
            stored_j.push_back(std::nextafter(at, 0.0));
            stored_j.push_back(at);
            stored_j.push_back(std::nextafter(at, 1.0));
            stored_j.push_back(at * (1.0 - 1e-9));
            stored_j.push_back(at * (1.0 + 1e-9));
        }
        stored_j.push_back(0.5 * (floor_j + activation_j) / eff);

        int floored = 0;
        int dead_above_floor = 0;
        int vp_alive_below_floor = 0;
        for (std::size_t k = 0; k < stored_j.size(); ++k) {
            const Tick t = static_cast<Tick>(k + 1) * kSlot;
            node.beginSlot(t, kSlot);
            node.capacitor().setStored(Energy::fromJoules(stored_j[k]));
            ASSERT_EQ(shard.slotCostsValid[row], 0) << "memo stale";

            const EnergyClass got = node.classify();
            const bool memo_priced = shard.slotCostsValid[row] != 0;

            // The full check, from the public cost accessors.
            const double deliverable = node.stored().joules() * eff;
            const bool dead = !(deliverable >= node.activationCost().joules());
            EXPECT_EQ(got == EnergyClass::Dead, dead)
                << "stored " << stored_j[k] << " J";
            if (nvp && !(deliverable >= floor_j)) {
                ++floored;
                EXPECT_FALSE(memo_priced)
                    << "the floor must not price the task";
            } else if (dead) {
                ++dead_above_floor;
            }
            if (!nvp && !(deliverable >= floor_j) && !dead)
                ++vp_alive_below_floor;
        }
        // Both Dead paths ran: the floor, and (NVP) the full check
        // between the floor and the threshold.
        if (nvp) {
            EXPECT_GT(floored, 0);
        } else {
            EXPECT_GT(vp_alive_below_floor, 0);
        }
        EXPECT_GT(dead_above_floor, 0);
    }
}

TEST(Node, SamplePackageFillsQueue)
{
    auto node = makeNode(OperatingMode::NosNvp, 2.0_mW);
    node->beginSlot(0, kSlot);
    ASSERT_TRUE(node->tryWake());
    EXPECT_TRUE(node->samplePackage());
    EXPECT_EQ(node->pendingPackages(), 1);
    EXPECT_EQ(node->stats().packagesSampled.value(), 1u);
}

TEST(Node, ExecuteTasksConsumesEnergyAndQueue)
{
    auto node = makeNode(OperatingMode::FiosNvMote, 8.0_mW);
    node->beginSlot(0, kSlot);
    ASSERT_TRUE(node->tryWake());
    ASSERT_TRUE(node->samplePackage());
    const Energy before = node->stored();
    const int done = node->executeTasks(1);
    EXPECT_EQ(done, 1);
    EXPECT_EQ(node->pendingPackages(), 0);
    EXPECT_GT(node->stats().spentCompute.joules(), 0.0);
    // FIOS compute draws the direct budget first; the cap should not
    // have dropped by the full task cost.
    const double drop =
        before.millijoules() - node->stored().millijoules();
    EXPECT_LT(drop, node->taskCost().millijoules());
}

TEST(Node, ExecuteTasksBoundedBySlotTime)
{
    auto node = makeNode(OperatingMode::FiosNvMote, 50.0_mW);
    node->beginSlot(0, kSlot);
    ASSERT_TRUE(node->tryWake());
    node->samplePackage();
    node->addPendingPackages(10);
    // 20M instructions at 50 MHz/12cpi = 4.8 s per task: at most 2 fit
    // in a 12 s slot.
    const int done = node->executeTasks(10);
    EXPECT_LE(done, 2);
    EXPECT_GE(done, 1);
}

TEST(Node, PackageDeadlineExpiresStaleWork)
{
    Node::Config cfg = baseConfig(OperatingMode::NosNvp);
    cfg.packageDeadlineSlots = 2;
    auto node = makeNode(OperatingMode::NosNvp, 2.0_mW, cfg, true);
    node->beginSlot(0, kSlot);
    ASSERT_TRUE(node->tryWake());
    ASSERT_TRUE(node->samplePackage());
    EXPECT_EQ(node->pendingPackages(), 1);
    // One slot later it is still fresh...
    node->beginSlot(kSlot, kSlot);
    EXPECT_EQ(node->pendingPackages(), 1);
    // ...two slots later it expired.
    node->beginSlot(2 * kSlot, kSlot);
    EXPECT_EQ(node->pendingPackages(), 0);
    EXPECT_GE(node->stats().samplesDiscarded.value(), 1u);
}

TEST(Node, TransmitPaysInitOncePerSlot)
{
    auto node = makeNode(OperatingMode::FiosNvMote, 10.0_mW);
    node->beginSlot(0, kSlot);
    ASSERT_TRUE(node->tryWake());
    const Energy before = node->stored();
    ASSERT_TRUE(node->payTransmit(16));
    const Energy after_first = node->stored();
    ASSERT_TRUE(node->payTransmit(16));
    const Energy after_second = node->stored();
    // Second TX is cheaper: no init.
    EXPECT_LT(before.joules() - after_first.joules() -
                  (after_first.joules() - after_second.joules()),
              before.joules() - after_first.joules());
    EXPECT_GT(node->stats().spentTx.joules(), 0.0);
}

TEST(Node, TransmitFailsWhenBroke)
{
    Node::Config cfg = baseConfig(OperatingMode::NosVp);
    cfg.cap.initial = 1.0_mJ;
    auto node = makeNode(OperatingMode::NosVp,
                         Power::fromMicrowatts(10.0), cfg, true);
    node->beginSlot(0, kSlot);
    ASSERT_TRUE(node->tryWake()); // VP boot is cheap
    // Full VP software-RF TX needs tens of mJ.
    EXPECT_FALSE(node->payTransmit(256));
}

TEST(Node, VpDiscardsPendingOnPowerOff)
{
    auto node = makeNode(OperatingMode::NosVp, 20.0_mW);
    node->beginSlot(0, kSlot);
    ASSERT_TRUE(node->tryWake());
    node->samplePackage();
    EXPECT_EQ(node->pendingPackages(), 1);
    const int dropped = node->discardPendingPackages();
    EXPECT_EQ(dropped, 1);
    EXPECT_EQ(node->pendingPackages(), 0);
}

TEST(Node, SpareCapacityGrowsWithEnergy)
{
    Node::Config rich_cfg = baseConfig(OperatingMode::FiosNvMote);
    rich_cfg.cap.initial = 250.0_mJ;
    auto rich = makeNode(OperatingMode::FiosNvMote, 10.0_mW, rich_cfg,
                         true);
    Node::Config poor_cfg = baseConfig(OperatingMode::FiosNvMote);
    poor_cfg.cap.initial = 5.0_mJ;
    auto poor = makeNode(OperatingMode::FiosNvMote,
                         Power::fromMicrowatts(100.0), poor_cfg, true);
    rich->beginSlot(0, kSlot);
    poor->beginSlot(0, kSlot);
    EXPECT_GT(rich->spareTaskCapacity(), poor->spareTaskCapacity());
    // The poor node offers at most a sliver (its tiny unused direct
    // budget); nowhere near a whole task.
    EXPECT_LT(poor->spareTaskCapacity(), 0.1);
}

TEST(Node, RelativeTaskCostReflectsSpendthrift)
{
    auto low = makeNode(OperatingMode::FiosNvMote,
                        Power::fromMicrowatts(200.0));
    auto high = makeNode(OperatingMode::FiosNvMote, 20.0_mW);
    low->beginSlot(0, kSlot);
    high->beginSlot(0, kSlot);
    EXPECT_LT(low->relativeTaskCost(), high->relativeTaskCost());
    auto vp = makeNode(OperatingMode::NosVp, 1.0_mW);
    vp->beginSlot(0, kSlot);
    EXPECT_DOUBLE_EQ(vp->relativeTaskCost(), 1.0);
}

TEST(Node, EnergyPointRecording)
{
    // A watched node records its capacitor level once per slot it is
    // scheduled (ProbeConfig::watchNodes).  Two logical nodes, two
    // clones each: group 0 is rows {0, 1}, group 1 rows {2, 3}, and
    // slot s schedules member s % 2 of every group.
    ScenarioConfig cfg;
    cfg.nodesPerChain = 2;
    cfg.multiplexing = 2;
    cfg.slotInterval = kSlot;
    cfg.horizon = 4 * kSlot;
    cfg.traceKind = TraceKind::Constant;
    cfg.meanIncome = 1.0_mW;
    cfg.mode = OperatingMode::NosNvp;
    cfg.nodeTemplate = baseConfig(OperatingMode::NosNvp);
    cfg.probes.watchNodes = {3, 0, 1, 0};
    FogSystem sys(cfg);
    sys.run();

    const ChainEngine &chain = *sys.chains()[0];
    EXPECT_EQ(chain.watchedSeries(2), nullptr);
    ASSERT_EQ(chain.probe().watched.size(), 3u); // repeats dropped
    const struct
    {
        std::size_t row;
        Tick first;
    } expect[] = {{0, 0}, {1, kSlot}, {3, kSlot}};
    for (const auto &e : expect) {
        const RingSeries *ring = chain.watchedSeries(e.row);
        ASSERT_NE(ring, nullptr) << e.row;
        EXPECT_EQ(ring->dropped(), 0u);
        const auto pts = ring->snapshot();
        ASSERT_EQ(pts.size(), 2u) << e.row;
        EXPECT_EQ(pts[0].when, e.first);
        EXPECT_EQ(pts[1].when, e.first + 2 * kSlot);
        for (const auto &pt : pts) {
            EXPECT_GT(pt.value, 0.0);
            EXPECT_LE(pt.value, 250.0);
        }
    }
}

TEST(Node, GapAccrualForMultiplexedClones)
{
    // A clone sleeping through 2 slots banks the gap income when its
    // turn comes.
    auto node = makeNode(OperatingMode::FiosNvMote, 5.0_mW);
    node->beginSlot(0, kSlot);
    const Energy after_first = node->stored();
    // Skip two slots; wake at slot 3.
    node->beginSlot(3 * kSlot, kSlot);
    const double gained =
        node->stored().millijoules() - after_first.millijoules();
    // 3 slots' income routed through the charge path (one unused direct
    // budget + two gap slots), roughly 3 x 5mW x 12s x 0.56 = 100 mJ,
    // capped by capacity.
    EXPECT_GT(gained, 50.0);
}

TEST(Node, PackageTxCostLowerForNvrf)
{
    auto fios = makeNode(OperatingMode::FiosNvMote, 2.0_mW);
    auto nvp = makeNode(OperatingMode::NosNvp, 2.0_mW);
    auto vp = makeNode(OperatingMode::NosVp, 2.0_mW);
    fios->beginSlot(0, kSlot);
    nvp->beginSlot(0, kSlot);
    vp->beginSlot(0, kSlot);
    EXPECT_LT(fios->packageTxCost().joules(),
              nvp->packageTxCost().joules());
    EXPECT_LT(nvp->packageTxCost().joules(),
              vp->packageTxCost().joules());
}

TEST(Node, SlotCostOrdering)
{
    // The per-package slot cost explains the paper's system ordering:
    // FIOS < NOS-NVP < NOS-VP.
    auto fios = makeNode(OperatingMode::FiosNvMote, 2.0_mW);
    auto nvp = makeNode(OperatingMode::NosNvp, 2.0_mW);
    auto vp = makeNode(OperatingMode::NosVp, 2.0_mW);
    fios->beginSlot(0, kSlot);
    nvp->beginSlot(0, kSlot);
    vp->beginSlot(0, kSlot);
    EXPECT_LT(fios->slotCost().joules(), nvp->slotCost().joules());
    EXPECT_LT(nvp->slotCost().joules(), vp->slotCost().joules());
}

} // namespace
} // namespace neofog
