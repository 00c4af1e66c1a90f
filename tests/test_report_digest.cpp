/**
 * @file
 * Pinned report digests: FNV-1a of SystemReport::toJson() for fixed
 * scenarios across every trace family (rain cached and uncached,
 * constant, forest, bridge, mountain), every operating mode, balancer,
 * multiplexing and relay knob, at several thread counts and across a
 * mid-horizon snapshot resume.  The digests were recorded before the
 * per-node and batched slot-banking paths were folded into the column
 * kernel, so they hold the one remaining path to the reports the
 * removed paths produced.  A change that moves a digest on purpose
 * (a model change, not a refactor) re-records it and says why.
 * Registered under the "perf" ctest label next to the kernel oracle
 * (tests/test_shard_kernel.cpp).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <initializer_list>
#include <ios>
#include <random>
#include <sstream>
#include <string>
#include <utility>

#include "fog/fog_system.hh"
#include "fog/presets.hh"
#include "snapshot/archive.hh"
#include "snapshot/snapshot.hh"

namespace neofog {
namespace {

namespace fs = std::filesystem;

void
expectPinned(const SystemReport &report, std::uint64_t want,
             const std::string &what)
{
    std::ostringstream os;
    report.toJson(os);
    const std::uint64_t got = snapshot::fnv1a(os.str());
    EXPECT_EQ(got, want) << what << ": digest 0x" << std::hex << got;
}

/** Run @p cfg at each thread count; every report must hash to @p want. */
void
expectDigest(ScenarioConfig cfg, std::initializer_list<unsigned> threads,
             std::uint64_t want, const std::string &what)
{
    for (const unsigned t : threads) {
        cfg.threads = t;
        expectPinned(FogSystem(cfg).run(), want,
                     what + ", threads " + std::to_string(t));
    }
}

// Every node a scaled view of one shared rain stream (the cached,
// memoized-window income source), mux 3: sparse kernel lanes.
TEST(ReportDigest, Fig13Mux3)
{
    for (const auto &[seed, want] :
         {std::pair<std::uint64_t, std::uint64_t>{99, 0x6ac080e97c03f1aaull},
          {77, 0x3b71c04a5920dfe2ull}}) {
        ScenarioConfig cfg = presets::fig13(presets::fiosNeofog(), 3);
        cfg.chains = 4;
        cfg.horizon = kHour;
        cfg.seed = seed;
        expectDigest(cfg, {1, 2, 4}, want,
                     "fig13 mux 3 seed " + std::to_string(seed));
    }
}

// Constant income, FIOS, distributed balancing: dense lanes with the
// direct-budget flush every slot.
TEST(ReportDigest, ConstantFios)
{
    for (const auto &[seed, want] :
         {std::pair<std::uint64_t, std::uint64_t>{5, 0x3c56a050a1f94564ull},
          {8, 0x404c8d49773cec80ull}}) {
        ScenarioConfig cfg;
        cfg.chains = 3;
        cfg.nodesPerChain = 8;
        cfg.mode = OperatingMode::FiosNvMote;
        cfg.traceKind = TraceKind::Constant;
        cfg.meanIncome = Power::fromMilliwatts(2.2);
        cfg.balancerPolicy = "distributed";
        cfg.horizon = kHour;
        cfg.seed = seed;
        expectDigest(cfg, {1, 2, 4}, want,
                     "constant fios seed " + std::to_string(seed));
    }
}

/**
 * One randomized scenario: trace family, mode, balancer, chains,
 * width, multiplexing, relay and real-time knobs, horizon and seed
 * all drawn from @p pick; @p rotate adds a membership-rotation draw.
 */
ScenarioConfig
randomScenario(std::minstd_rand &pick, bool rotate)
{
    const TraceKind kinds[] = {TraceKind::ForestIndependent,
                               TraceKind::BridgeDependent,
                               TraceKind::RainLow, TraceKind::Constant};
    const OperatingMode modes[] = {OperatingMode::NosVp,
                                   OperatingMode::NosNvp,
                                   OperatingMode::FiosNvMote};
    const char *balancers[] = {"none", "tree", "distributed",
                               "cluster"};
    ScenarioConfig cfg;
    cfg.traceKind = kinds[pick() % 4];
    cfg.mode = modes[pick() % 3];
    cfg.balancerPolicy = balancers[pick() % 4];
    cfg.chains = 1 + pick() % 3;
    cfg.nodesPerChain = 4 + pick() % 7;
    cfg.multiplexing = 1 + pick() % 3;
    cfg.hopByHopRelay = pick() % 2 == 0;
    cfg.realTimeRequestChance = pick() % 2 == 0 ? 0.0 : 0.01;
    if (rotate)
        cfg.membershipUpdateInterval = pick() % 2 == 0 ? 0 : 10 * kMin;
    cfg.horizon = (20 + static_cast<Tick>(pick() % 20)) * kMin;
    cfg.seed = 1 + pick() % 1000;
    return cfg;
}

void
expectRandomRounds(bool rotate, const std::uint64_t (&want)[6])
{
    std::minstd_rand pick(20260808);
    for (int round = 0; round < 6; ++round) {
        const ScenarioConfig cfg = randomScenario(pick, rotate);
        expectDigest(cfg, {1, 4}, want[round],
                     std::string(rotate ? "rotating" : "fixed") +
                         " round " + std::to_string(round) + ", trace " +
                         traceKindName(cfg.traceKind) + ", mode " +
                         operatingModeName(cfg.mode) + ", balancer " +
                         cfg.balancerPolicy);
    }
}

TEST(ReportDigest, RandomScenariosWithRotation)
{
    expectRandomRounds(true, {0xdc6cb5a2a5cee7f3ull, 0xc1e8ee7f02eba11cull,
                              0x18d15753a990d47aull, 0x8a3384675e719e4full,
                              0x78f818b6cd340a3bull, 0x5f6e532030db6d73ull});
}

TEST(ReportDigest, RandomScenariosFixedMembership)
{
    expectRandomRounds(false, {0x502f5dcad5266b78ull, 0x5a006c5195fe2178ull,
                               0x3b32c472c9c2e591ull, 0x9e2e1b9e260d188full,
                               0xc9fbea3ec9687532ull, 0x29efda67cc74981bull});
}

/** A fresh temporary directory, removed again at scope exit. */
struct ScratchDir
{
    explicit ScratchDir(const std::string &tag)
        : path(fs::temp_directory_path() / ("neofog_digest_" + tag))
    {
        fs::remove_all(path);
    }
    ~ScratchDir() { fs::remove_all(path); }
    const fs::path path;
};

// A checkpointing run, and a resume from its mid-horizon checkpoint
// at threads 1 and 4, both give the pinned uninterrupted report.
TEST(ReportDigest, SnapshotResume)
{
    for (const auto &[seed, want] :
         {std::pair<std::uint64_t, std::uint64_t>{31, 0x5f8f905f34605382ull},
          {41, 0x4700ac6cbeb00a8cull}}) {
        const ScratchDir dir("resume_" + std::to_string(seed));
        ScenarioConfig cfg = presets::fig13(presets::fiosNeofog(), 3);
        cfg.chains = 3;
        cfg.horizon = kHour;
        cfg.seed = seed;
        constexpr std::int64_t kEvery = 9;
        cfg.snapshot.everySlots = kEvery;
        cfg.snapshot.dir = dir.path.string();
        expectDigest(cfg, {1}, want,
                     "checkpointing seed " + std::to_string(seed));

        const std::string path =
            (dir.path / snapshot::snapshotFileName(2 * kEvery)).string();
        ASSERT_TRUE(fs::exists(path)) << path;
        for (const unsigned threads : {1u, 4u}) {
            auto resumed = FogSystem::resume(path, threads);
            EXPECT_EQ(resumed->resumeSlot(), 2 * kEvery);
            expectPinned(resumed->run(), want,
                         "resume seed " + std::to_string(seed) +
                             ", threads " + std::to_string(threads));
        }
    }
}

// Independent per-node traces: each lane integrates its own trace.
// Half a day, so the horizon crosses dawn and the sunlit hours.
TEST(ReportDigest, Forest)
{
    ScenarioConfig fios = presets::fig10(presets::fiosNeofog(), 2);
    fios.chains = 2;
    fios.horizon = 12 * kHour;
    expectDigest(fios, {1, 4}, 0x3d8ea2fef24c2f38ull,
                 "forest fios mux 1");

    ScenarioConfig vp = presets::fig10(presets::nosVp(), 1);
    vp.chains = 2;
    vp.multiplexing = 2;
    vp.horizon = 12 * kHour;
    expectDigest(vp, {1, 4}, 0x64fb9053deba1fbbull,
                 "forest nos-vp mux 2");
}

TEST(ReportDigest, Bridge)
{
    ScenarioConfig cfg = presets::fig11(presets::nosNvpBaseline(), 3);
    cfg.chains = 2;
    cfg.horizon = 12 * kHour;
    expectDigest(cfg, {1, 4}, 0xfa58f35161ff7bb8ull,
                 "bridge nos-nvp mux 1");
}

TEST(ReportDigest, Mountain)
{
    ScenarioConfig cfg = presets::fig12(presets::fiosNeofog(), 2);
    cfg.chains = 2;
    cfg.horizon = 12 * kHour;
    expectDigest(cfg, {1, 4}, 0xa0e7b0ec7da9e52aull,
                 "mountain fios mux 2");
}

// Rain without the energy cache: no shared stream, so every lane
// integrates its node's own rain trace.
TEST(ReportDigest, RainUncached)
{
    ScenarioConfig cfg = presets::fig13(presets::fiosNeofog(), 3);
    cfg.chains = 3;
    cfg.horizon = kHour;
    cfg.energyCache.enabled = false;
    expectDigest(cfg, {1, 4}, 0xe7b509b4be5b46cfull,
                 "rain mux 3 uncached");
}

} // namespace
} // namespace neofog
