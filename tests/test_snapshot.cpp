/**
 * @file
 * Snapshot subsystem tests: archive round-trips, container
 * validation, corruption rejection, replay diffing, and the resume
 * bit-identity contract (`ctest -L snapshot`).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "fog/chain_engine.hh"
#include "fog/fog_system.hh"
#include "fog/presets.hh"
#include "fog/scenario.hh"
#include "fog/snapshot_io.hh"
#include "fog/system_report.hh"
#include "net/loss.hh"
#include "sim/logging.hh"
#include "sim/metrics.hh"
#include "sim/rng.hh"
#include "snapshot/archive.hh"
#include "snapshot/replay.hh"
#include "snapshot/snapshot.hh"
#include "virt/nvd4q.hh"

namespace neofog {
namespace {

namespace fs = std::filesystem;
using snapshot::DiffResult;
using snapshot::InArchive;
using snapshot::OutArchive;
using snapshot::Record;
using snapshot::RecordReader;
using snapshot::Snapshot;

/** Self-deleting scratch directory for file-format tests. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string &tag)
        : _path(fs::temp_directory_path() /
                ("neofog_snapshot_test_" + tag))
    {
        fs::remove_all(_path);
        fs::create_directories(_path);
    }
    ~ScratchDir() { fs::remove_all(_path); }

    std::string file(const std::string &name) const
    {
        return (_path / name).string();
    }
    std::string path() const { return _path.string(); }

  private:
    fs::path _path;
};

std::string
slurp(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(is)) << path;
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
}

void
spit(const std::string &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(),
             static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------------
// Archive encoding
// ---------------------------------------------------------------------

struct Inner
{
    std::int64_t ticks = 0;
    double level = 0.0;

    template <class Archive>
    void serialize(Archive &ar)
    {
        ar.io("ticks", ticks);
        ar.io("level", level);
    }
};

struct Outer
{
    bool flag = false;
    std::uint32_t count = 0;
    std::string label;
    std::vector<double> samples;
    Inner inner;

    template <class Archive>
    void serialize(Archive &ar)
    {
        ar.io("flag", flag);
        ar.io("count", count);
        ar.io("label", label);
        ar.io("samples", samples);
        ar.io("inner", inner);
    }
};

TEST(Archive, ScalarRoundTripIsExact)
{
    bool b = true;
    std::int32_t i32 = -123456;
    std::uint16_t u16 = 65535;
    std::uint32_t u32 = 0xDEADBEEFU;
    std::int64_t i64 = -(1LL << 60);
    std::uint64_t u64 = ~0ULL;
    double nan = std::nan("0x42");
    double negzero = -0.0;
    std::string str = "with\0byte and \n newline";

    OutArchive out;
    out.io("b", b);
    out.io("i32", i32);
    out.io("u16", u16);
    out.io("u32", u32);
    out.io("i64", i64);
    out.io("u64", u64);
    out.io("nan", nan);
    out.io("negzero", negzero);
    out.io("str", str);
    const std::string blob = out.take();

    bool b2 = false;
    std::int32_t i32_2 = 0;
    std::uint16_t u16_2 = 0;
    std::uint32_t u32_2 = 0;
    std::int64_t i64_2 = 0;
    std::uint64_t u64_2 = 0;
    double nan2 = 0, negzero2 = 0;
    std::string str2;

    InArchive in{std::string_view(blob)};
    in.io("b", b2);
    in.io("i32", i32_2);
    in.io("u16", u16_2);
    in.io("u32", u32_2);
    in.io("i64", i64_2);
    in.io("u64", u64_2);
    in.io("nan", nan2);
    in.io("negzero", negzero2);
    in.io("str", str2);
    EXPECT_TRUE(in.atEnd());

    EXPECT_EQ(b2, b);
    EXPECT_EQ(i32_2, i32);
    EXPECT_EQ(u16_2, u16);
    EXPECT_EQ(u32_2, u32);
    EXPECT_EQ(i64_2, i64);
    EXPECT_EQ(u64_2, u64);
    EXPECT_EQ(str2, str);
    // Doubles travel as bit patterns: NaN payload and the sign of
    // zero survive (resume bit-identity depends on this).
    EXPECT_EQ(snapshot::doubleBits(nan2), snapshot::doubleBits(nan));
    EXPECT_TRUE(std::signbit(negzero2));
}

TEST(Archive, NestedComponentRoundTrip)
{
    Outer a;
    a.flag = true;
    a.count = 9;
    a.label = "chain0";
    a.samples = {1.5, -2.25, 0.0};
    a.inner = {42, 0.125};

    OutArchive out;
    out.io("outer", a);
    const std::string blob = out.take();

    Outer b;
    InArchive in{std::string_view(blob)};
    in.io("outer", b);
    EXPECT_TRUE(in.atEnd());

    EXPECT_EQ(b.flag, a.flag);
    EXPECT_EQ(b.count, a.count);
    EXPECT_EQ(b.label, a.label);
    EXPECT_EQ(b.samples, a.samples);
    EXPECT_EQ(b.inner.ticks, a.inner.ticks);
    EXPECT_EQ(b.inner.level, a.inner.level);
}

TEST(Archive, RecordPathsAreFullyQualified)
{
    Outer a;
    OutArchive out;
    out.io("outer", a);
    const std::string blob = out.take();

    std::vector<std::string> paths;
    RecordReader reader{std::string_view(blob)};
    Record rec;
    while (reader.next(rec))
        paths.emplace_back(rec.path);
    const std::vector<std::string> expect = {
        "outer.flag", "outer.count", "outer.label", "outer.samples",
        "outer.inner.ticks", "outer.inner.level"};
    EXPECT_EQ(paths, expect);
}

TEST(Archive, LoadRejectsPathAndTypeMismatch)
{
    OutArchive out;
    std::int32_t v = 7;
    out.io("alpha", v);
    const std::string blob = out.take();

    {
        // Wrong field name.
        InArchive in{std::string_view(blob)};
        std::int32_t got = 0;
        EXPECT_THROW(in.io("beta", got), FatalError);
    }
    {
        // Right name, wrong wire type.
        InArchive in{std::string_view(blob)};
        double got = 0;
        EXPECT_THROW(in.io("alpha", got), FatalError);
    }
    {
        // Reading past the end of the stream.
        InArchive in{std::string_view(blob)};
        std::int32_t got = 0;
        in.io("alpha", got);
        EXPECT_THROW(in.io("alpha", got), FatalError);
    }
    {
        // Truncated record payload.
        const std::string cut = blob.substr(0, blob.size() - 2);
        InArchive in{std::string_view(cut)};
        std::int32_t got = 0;
        EXPECT_THROW(in.io("alpha", got), FatalError);
    }
}

TEST(Archive, RngStreamPositionRoundTrips)
{
    Rng rng(1234);
    for (int i = 0; i < 17; ++i)
        rng.normal(); // leaves a Box-Muller spare half the time

    OutArchive out;
    out.io("rng", rng);
    const std::string blob = out.take();

    Rng restored(999); // deliberately different seed
    InArchive in{std::string_view(blob)};
    in.io("rng", restored);

    for (int i = 0; i < 64; ++i) {
        EXPECT_EQ(restored.next(), rng.next());
        EXPECT_EQ(restored.normal(), rng.normal());
    }
}

// ---------------------------------------------------------------------
// Serialized-footprint pins (the sizeof(SystemReport) trick): adding
// a data member to a snapshotted struct without extending serialize()
// would silently corrupt resumes.  The first line of defense is now
// R5.snapshot in tools/neofog_lint, which names the forgotten member
// by field and line; these pins stay as the layout backstop for what
// a token-level pass can't see (padding, type-size changes, members
// smuggled in through a base class).  If one trips, update the
// struct's serialize() AND the pin.
// ---------------------------------------------------------------------

TEST(SnapshotFootprint, PinsEverySnapshottedStruct)
{
    EXPECT_EQ(sizeof(Rng), 48u);
    EXPECT_EQ(sizeof(Counter), 8u);
    EXPECT_EQ(sizeof(SeriesPoint), 16u);
    EXPECT_EQ(sizeof(RingSeries), 48u);
    EXPECT_EQ(sizeof(ProbeConfig), 48u);
    EXPECT_EQ(sizeof(SuperCapacitor), 64u);
    EXPECT_EQ(sizeof(Rtc), 144u);
    EXPECT_EQ(sizeof(NvBuffer), 56u);
    EXPECT_EQ(sizeof(Sensor), 80u);
    EXPECT_EQ(sizeof(SensorSpec), 72u);
    EXPECT_EQ(sizeof(RfState), 48u);
    EXPECT_EQ(sizeof(LossModel), 40u);
    EXPECT_EQ(sizeof(CloneGroup), 40u);
    EXPECT_EQ(sizeof(WatchedNode), 56u);
    EXPECT_EQ(sizeof(ChainProbe), 216u);
    EXPECT_EQ(sizeof(NodeStats), 144u);
    EXPECT_EQ(sizeof(Node), 440u);
    EXPECT_EQ(sizeof(SystemReport), 216u);
    EXPECT_EQ(sizeof(Node::Config), 272u);
    EXPECT_EQ(sizeof(ScenarioConfig), 536u);
}

// ---------------------------------------------------------------------
// Container format
// ---------------------------------------------------------------------

Snapshot
sampleSnapshot()
{
    Snapshot snap;
    snap.slot = 42;
    snap.seed = 7;
    snap.chains = 2;
    snap.sections.push_back({"config", "fingerprint-bytes"});
    snap.sections.push_back({"chain0", "alpha"});
    snap.sections.push_back({"chain1", "beta"});
    return snap;
}

TEST(SnapshotFile, WriteReadRoundTrip)
{
    const ScratchDir dir("roundtrip");
    const std::string path =
        dir.file(snapshot::snapshotFileName(42));
    EXPECT_EQ(path.substr(path.size() - 22), "snap-0000000042.nfsnap");

    snapshot::writeSnapshot(path, sampleSnapshot());
    const Snapshot back = snapshot::readSnapshot(path);

    EXPECT_EQ(back.slot, 42);
    EXPECT_EQ(back.seed, 7u);
    EXPECT_EQ(back.chains, 2u);
    ASSERT_EQ(back.sections.size(), 3u);
    EXPECT_EQ(back.sections[1].name, "chain0");
    EXPECT_EQ(back.sections[1].data, "alpha");
    ASSERT_NE(back.find("config"), nullptr);
    EXPECT_EQ(back.configHash,
              snapshot::fnv1a(back.find("config")->data));
    EXPECT_EQ(back.find("nope"), nullptr);
    // No .tmp residue after the atomic publish.
    EXPECT_FALSE(fs::exists(path + ".tmp"));
}

TEST(SnapshotFile, LatestSkipsCorruptAndResolvesDirectories)
{
    const ScratchDir dir("latest");
    const std::string older =
        dir.file(snapshot::snapshotFileName(10));
    const std::string newer =
        dir.file(snapshot::snapshotFileName(20));
    Snapshot snap = sampleSnapshot();
    snap.slot = 10;
    snapshot::writeSnapshot(older, snap);
    snap.slot = 20;
    snapshot::writeSnapshot(newer, snap);

    EXPECT_EQ(snapshot::latestSnapshot(dir.path()), newer);
    EXPECT_EQ(snapshot::resolveSnapshotPath(dir.path()), newer);
    // A file path passes through untouched.
    EXPECT_EQ(snapshot::resolveSnapshotPath(older), older);

    // Corrupt the newest: resume-from-latest must fall back to the
    // newest VALID checkpoint, exactly the crash-mid-write case.
    std::string bytes = slurp(newer);
    bytes[bytes.size() - 1] ^= 0x01;
    spit(newer, bytes);
    EXPECT_EQ(snapshot::latestSnapshot(dir.path()), older);

    const ScratchDir empty("empty");
    EXPECT_THROW(snapshot::resolveSnapshotPath(empty.path()),
                 FatalError);
}

TEST(SnapshotFile, CorruptionIsRejectedLoudly)
{
    const ScratchDir dir("corrupt");
    const std::string good = dir.file("good.nfsnap");
    snapshot::writeSnapshot(good, sampleSnapshot());
    const std::string pristine = slurp(good);

    const auto rejects = [&](const std::string &bytes,
                             const std::string &needle) {
        const std::string path = dir.file("mutant.nfsnap");
        spit(path, bytes);
        try {
            snapshot::readSnapshot(path);
            FAIL() << "expected rejection containing '" << needle
                   << "'";
        } catch (const FatalError &err) {
            EXPECT_NE(std::string(err.what()).find(needle),
                      std::string::npos)
                << err.what();
        }
    };

    // Truncations: below the fixed preamble, inside the header, and
    // inside a section body.
    rejects(pristine.substr(0, 10), "truncated");
    rejects(pristine.substr(0, 20), "truncated");
    rejects(pristine.substr(0, pristine.size() - 3),
            "outside the file");

    // Flipped magic byte.
    std::string bad = pristine;
    bad[3] ^= 0xFF;
    rejects(bad, "bad magic");

    // Byte-swapped endianness marker: a big-endian writer's output.
    bad = pristine;
    std::swap(bad[8], bad[11]);
    std::swap(bad[9], bad[10]);
    rejects(bad, "big-endian");

    // Garbage endianness marker.
    bad = pristine;
    bad[8] ^= 0x55;
    rejects(bad, "endianness marker");

    // Flipped byte inside a section payload: checksum failure.
    bad = pristine;
    bad[bad.size() - 2] ^= 0x10;
    rejects(bad, "checksum");

    // Header/config-hash mismatch: flip one hex digit of the header's
    // config_hash while every section checksum stays valid.
    bad = pristine;
    const std::string tag = "\"config_hash\":\"";
    const std::size_t key = bad.find(tag);
    ASSERT_NE(key, std::string::npos);
    char &digit = bad[key + tag.size()];
    digit = (digit == '0') ? '1' : '0';
    rejects(bad, "header/config mismatch");
}

// ---------------------------------------------------------------------
// Scenario fingerprint
// ---------------------------------------------------------------------

TEST(ScenarioFingerprint, BlobRoundTripsAndHostKnobsAreExcluded)
{
    ScenarioConfig cfg = presets::fig13(presets::fiosNeofog(), 3);
    cfg.chains = 2;
    const std::string blob = serializeScenarioBlob(cfg);
    const ScenarioConfig back = deserializeScenarioBlob(blob);
    EXPECT_EQ(serializeScenarioBlob(back), blob);
    EXPECT_EQ(scenarioFingerprint(back), scenarioFingerprint(cfg));

    // Host-local knobs never enter the blob or the fingerprint: a
    // resume may change thread count, pinning or checkpoint cadence
    // freely.
    ScenarioConfig tweaked = cfg;
    tweaked.threads = 8;
    tweaked.pinThreads = !cfg.pinThreads;
    tweaked.snapshot.everySlots = 5;
    tweaked.snapshot.dir = "/elsewhere";
    EXPECT_EQ(serializeScenarioBlob(tweaked), blob);
    EXPECT_EQ(scenarioFingerprint(tweaked), scenarioFingerprint(cfg));

    // Result-relevant fields do.
    ScenarioConfig reseeded = cfg;
    reseeded.seed = cfg.seed + 1;
    EXPECT_NE(scenarioFingerprint(reseeded), scenarioFingerprint(cfg));
    ScenarioConfig remoded = cfg;
    remoded.mode = OperatingMode::NosVp;
    EXPECT_NE(scenarioFingerprint(remoded), scenarioFingerprint(cfg));
}

// ---------------------------------------------------------------------
// Replay diffing
// ---------------------------------------------------------------------

TEST(Replay, ReportsFirstDivergingField)
{
    Outer a;
    a.count = 3;
    a.samples = {1.0, 2.0, 3.0};
    Outer b = a;

    const auto encode = [](Outer &o) {
        OutArchive out;
        out.io("outer", o);
        return out.take();
    };

    // Identical streams do not diverge.
    DiffResult same =
        snapshot::diffSections("chain0", encode(a), encode(b));
    EXPECT_FALSE(same.diverged);

    // A scalar difference names the full field path and both values.
    b.count = 4;
    DiffResult scalar =
        snapshot::diffSections("chain0", encode(a), encode(b));
    EXPECT_TRUE(scalar.diverged);
    EXPECT_EQ(scalar.where, "chain0");
    EXPECT_EQ(scalar.path, "outer.count");
    EXPECT_NE(scalar.detail.find("3"), std::string::npos);
    EXPECT_NE(scalar.detail.find("4"), std::string::npos);

    // A vector difference names the first differing element.
    b = a;
    b.samples[1] = 2.5;
    DiffResult vec =
        snapshot::diffSections("chain0", encode(a), encode(b));
    EXPECT_TRUE(vec.diverged);
    EXPECT_EQ(vec.path, "outer.samples");
    EXPECT_NE(vec.detail.find("element 1"), std::string::npos)
        << vec.detail;

    // Only the FIRST divergence is reported.
    b = a;
    b.flag = true;
    b.count = 9;
    DiffResult first =
        snapshot::diffSections("chain0", encode(a), encode(b));
    EXPECT_EQ(first.path, "outer.flag");
}

TEST(Replay, HeaderAndSectionDivergence)
{
    // Sections must hold real record streams for a full-snapshot diff.
    const auto makeSnapshot = [](std::uint32_t count) {
        Outer payload;
        payload.count = count;
        OutArchive out;
        out.io("outer", payload);
        Snapshot snap;
        snap.slot = 42;
        snap.seed = 7;
        snap.chains = 1;
        snap.sections.push_back({"chain0", out.take()});
        return snap;
    };

    Snapshot a = makeSnapshot(3);
    Snapshot b = makeSnapshot(3);
    EXPECT_FALSE(snapshot::diffSnapshots(a, b).diverged);

    b.slot = 43;
    DiffResult slot = snapshot::diffSnapshots(a, b);
    EXPECT_TRUE(slot.diverged);
    EXPECT_EQ(slot.where, "header");

    b = makeSnapshot(4);
    DiffResult body = snapshot::diffSnapshots(a, b);
    EXPECT_TRUE(body.diverged);
    EXPECT_EQ(body.where, "chain0");
    EXPECT_EQ(body.path, "outer.count");

    b = makeSnapshot(3);
    b.sections.pop_back();
    EXPECT_TRUE(snapshot::diffSnapshots(a, b).diverged);
}

// ---------------------------------------------------------------------
// Resume
// ---------------------------------------------------------------------

ScenarioConfig
resumeScenario(unsigned threads)
{
    // A shrunk fig-13 (rain trace, fios + distributed balancing,
    // multiplexing 3) so one run stays test-sized while still
    // exercising clone rotation, loss, and balancing.
    ScenarioConfig cfg = presets::fig13(presets::fiosNeofog(), 3);
    cfg.chains = 3;
    cfg.horizon = kHour;
    cfg.seed = 77;
    cfg.threads = threads;
    return cfg;
}

TEST(Resume, RejectsCorruptOrMissingSnapshots)
{
    const ScratchDir dir("resume_reject");
    EXPECT_THROW(FogSystem::resume(dir.path()), FatalError);

    const std::string bogus = dir.file("bogus.nfsnap");
    spit(bogus, "NOT A SNAPSHOT AT ALL........");
    EXPECT_THROW(FogSystem::resume(bogus), FatalError);

    // A snapshot without a config section cannot seed a resume.
    Snapshot snap;
    snap.slot = 1;
    snap.sections.push_back({"chain0", "x"});
    const std::string configless = dir.file("configless.nfsnap");
    snapshot::writeSnapshot(configless, snap);
    EXPECT_THROW(FogSystem::resume(configless), FatalError);
}

/**
 * Checkpoints that the one restore path must refuse, built from a
 * real run of resumeScenario(1) stopped at slot 10.
 */
class RefusalInputs
{
  public:
    /** @p tag keeps the scratch directories of parallel cases apart. */
    explicit RefusalInputs(const std::string &tag)
        : cfg(resumeScenario(1)), _fullDir("refusal_full_" + tag),
          _partDir("refusal_part_" + tag),
          _mutantDir("refusal_mutant_" + tag),
          full(checkpoint(_fullDir, cfg.chains)),
          part(checkpoint(_partDir, 1))
    {}

    /** @p source (full or part) rewritten by @p edit, as a new file. */
    std::string
    mutant(const std::string &source,
           const std::function<void(Snapshot &)> &edit) const
    {
        Snapshot snap = snapshot::readSnapshot(source);
        edit(snap);
        const std::string path = _mutantDir.file("mutant.nfsnap");
        snapshot::writeSnapshot(path, snap);
        return path;
    }

    /** The worker's own scenario, with @p edit applied. */
    ScenarioConfig
    host(const std::function<void(ScenarioConfig &)> &edit) const
    {
        ScenarioConfig other = cfg;
        edit(other);
        return other;
    }

  private:
    std::string
    checkpoint(const ScratchDir &into, std::size_t hi) const
    {
        ScenarioConfig writer = cfg;
        writer.snapshot.dir = into.path();
        FogSystem system(writer, 0, hi);
        system.runWindow(0, 10);
        system.saveSnapshot(10);
        return into.file(snapshot::snapshotFileName(10));
    }

  public:
    const ScenarioConfig cfg;

  private:
    const ScratchDir _fullDir;
    const ScratchDir _partDir;
    const ScratchDir _mutantDir;

  public:
    /** Every chain section, at slot 10. */
    const std::string full;
    /** A worker's partition checkpoint: chain 0 only, at slot 10. */
    const std::string part;
};

struct RestoreRefusal
{
    const char *name;
    std::function<void(const RefusalInputs &)> load;
    /** A fragment the FatalError message must contain. */
    const char *needle;
};

std::ostream &
operator<<(std::ostream &os, const RestoreRefusal &r)
{
    return os << r.name;
}

void
dropSection(Snapshot &snap, const std::string &name)
{
    auto &sections = snap.sections;
    sections.erase(std::remove_if(sections.begin(), sections.end(),
                                  [&](const snapshot::Section &s) {
                                      return s.name == name;
                                  }),
                   sections.end());
}

/** Appends a second copy of chain 0's records to its own section. */
void
doubleChain0(Snapshot &snap)
{
    for (auto &s : snap.sections)
        if (s.name == "chain0") {
            const std::string records = s.data;
            s.data += records;
        }
}

class RestoreRefusalTest : public ::testing::TestWithParam<RestoreRefusal>
{
};

// resume() and resumePartition() share one restore path; each of its
// refusals is a FatalError naming the fault, and each is reached from
// both entry points.
TEST_P(RestoreRefusalTest, RefusesWithReason)
{
    const RestoreRefusal &refusal = GetParam();
    const RefusalInputs in(refusal.name);
    try {
        refusal.load(in);
        FAIL() << "expected rejection containing '" << refusal.needle
               << "'";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what()).find(refusal.needle),
                  std::string::npos)
            << err.what();
    }
}

INSTANTIATE_TEST_SUITE_P(
    Refusals, RestoreRefusalTest,
    ::testing::Values(
        // The chain sections must cover the range being restored.
        RestoreRefusal{"ResumeOfPartitionSnapshot",
                       [](const RefusalInputs &in) {
                           FogSystem::resume(in.part);
                       },
                       "missing section 'chain1'"},
        RestoreRefusal{"PartitionBeyondItsSections",
                       [](const RefusalInputs &in) {
                           FogSystem::resumePartition(in.part, in.cfg, 1,
                                                      3);
                       },
                       "missing section 'chain1'"},
        RestoreRefusal{"ResumeMissingOneSection",
                       [](const RefusalInputs &in) {
                           FogSystem::resume(in.mutant(
                               in.full, [](Snapshot &s) {
                                   dropSection(s, "chain2");
                               }));
                       },
                       "missing section 'chain2'"},
        RestoreRefusal{"PartitionMissingOneSection",
                       [](const RefusalInputs &in) {
                           FogSystem::resumePartition(
                               in.mutant(in.full,
                                         [](Snapshot &s) {
                                             dropSection(s, "chain2");
                                         }),
                               in.cfg, 2, 3);
                       },
                       "missing section 'chain2'"},
        // A partition restore checks the archived scenario against
        // the worker's own, on every result-relevant field.
        RestoreRefusal{"PartitionHostSeedDiffers",
                       [](const RefusalInputs &in) {
                           FogSystem::resumePartition(
                               in.full,
                               in.host([](ScenarioConfig &c) {
                                   c.seed += 1;
                               }),
                               0, 3);
                       },
                       "archives a different scenario"},
        RestoreRefusal{"PartitionHostHorizonDiffers",
                       [](const RefusalInputs &in) {
                           FogSystem::resumePartition(
                               in.full,
                               in.host([](ScenarioConfig &c) {
                                   c.horizon = 2 * kHour;
                               }),
                               0, 3);
                       },
                       "archives a different scenario"},
        RestoreRefusal{"PartitionHostChainsDiffer",
                       [](const RefusalInputs &in) {
                           FogSystem::resumePartition(
                               in.full,
                               in.host([](ScenarioConfig &c) {
                                   c.chains = 4;
                               }),
                               0, 3);
                       },
                       "archives a different scenario"},
        // The header must agree with the config section.
        RestoreRefusal{"ResumeHeaderSeed",
                       [](const RefusalInputs &in) {
                           FogSystem::resume(in.mutant(
                               in.full,
                               [](Snapshot &s) { s.seed += 1; }));
                       },
                       "header seed"},
        RestoreRefusal{"PartitionHeaderSeed",
                       [](const RefusalInputs &in) {
                           FogSystem::resumePartition(
                               in.mutant(in.part,
                                         [](Snapshot &s) { s.seed += 1; }),
                               in.cfg, 0, 1);
                       },
                       "header seed"},
        RestoreRefusal{"ResumeHeaderChains",
                       [](const RefusalInputs &in) {
                           FogSystem::resume(in.mutant(
                               in.full,
                               [](Snapshot &s) { s.chains = 4; }));
                       },
                       "header claims 4 chains"},
        RestoreRefusal{"PartitionHeaderChains",
                       [](const RefusalInputs &in) {
                           FogSystem::resumePartition(
                               in.mutant(in.part,
                                         [](Snapshot &s) { s.chains = 4; }),
                               in.cfg, 0, 1);
                       },
                       "header claims 4 chains"},
        RestoreRefusal{"ResumeSlotPastHorizon",
                       [](const RefusalInputs &in) {
                           FogSystem::resume(in.mutant(
                               in.full,
                               [](Snapshot &s) { s.slot = 301; }));
                       },
                       "outside the scenario horizon"},
        RestoreRefusal{"ResumeNegativeSlot",
                       [](const RefusalInputs &in) {
                           FogSystem::resume(in.mutant(
                               in.full, [](Snapshot &s) { s.slot = -1; }));
                       },
                       "outside the scenario horizon"},
        RestoreRefusal{"PartitionSlotPastHorizon",
                       [](const RefusalInputs &in) {
                           FogSystem::resumePartition(
                               in.mutant(in.part,
                                         [](Snapshot &s) { s.slot = 301; }),
                               in.cfg, 0, 1);
                       },
                       "outside the scenario horizon"},
        // A section holds exactly one chain's records.
        RestoreRefusal{"ResumeTrailingRecords",
                       [](const RefusalInputs &in) {
                           FogSystem::resume(
                               in.mutant(in.full, doubleChain0));
                       },
                       "has trailing records"},
        RestoreRefusal{"PartitionTrailingRecords",
                       [](const RefusalInputs &in) {
                           FogSystem::resumePartition(
                               in.mutant(in.part, doubleChain0), in.cfg,
                               0, 1);
                       },
                       "has trailing records"},
        // Without a config section there is no scenario to rebuild.
        RestoreRefusal{"ResumeWithoutConfig",
                       [](const RefusalInputs &in) {
                           FogSystem::resume(in.mutant(
                               in.full, [](Snapshot &s) {
                                   dropSection(s, "config");
                               }));
                       },
                       "has no config section"},
        RestoreRefusal{"PartitionWithoutConfig",
                       [](const RefusalInputs &in) {
                           FogSystem::resumePartition(
                               in.mutant(in.part,
                                         [](Snapshot &s) {
                                             dropSection(s, "config");
                                         }),
                               in.cfg, 0, 1);
                       },
                       "has no config section"}),
    [](const ::testing::TestParamInfo<RestoreRefusal> &param) {
        return std::string(param.param.name);
    });

// The tentpole contract, enforced here rather than by convention:
// for random split slots s and any thread count, run(0..H) and
// run(0..s); resume; run(s..H) produce operator==-equal reports.
TEST(Resume, BitIdentityAcrossSplitSlotsAndThreadCounts)
{
    const ScratchDir dir("resume_identity");

    const SystemReport reference =
        FogSystem(resumeScenario(1)).run();

    // A snapshotting run (under a different thread count, even) must
    // not perturb a single report bit.
    constexpr std::int64_t kEvery = 7;
    ScenarioConfig snapping = resumeScenario(2);
    snapping.snapshot.everySlots = kEvery;
    snapping.snapshot.dir = dir.path();
    EXPECT_EQ(FogSystem(snapping).run(), reference);

    const std::int64_t slots = snapping.slotCount();
    ASSERT_EQ(slots, 300);

    // >= 3 random split slots from the checkpoint grid.
    std::minstd_rand pick(20260806);
    std::vector<std::int64_t> splits;
    while (splits.size() < 3) {
        const std::int64_t s =
            (1 + static_cast<std::int64_t>(pick() %
                                           ((slots - 1) / kEvery))) *
            kEvery;
        if (std::find(splits.begin(), splits.end(), s) ==
            splits.end())
            splits.push_back(s);
    }

    for (const std::int64_t split : splits) {
        const std::string path =
            dir.file(snapshot::snapshotFileName(split));
        ASSERT_TRUE(fs::exists(path)) << path;
        for (const unsigned threads : {1u, 2u, 4u}) {
            auto resumed = FogSystem::resume(path, threads);
            EXPECT_EQ(resumed->resumeSlot(), split);
            EXPECT_EQ(resumed->config().seed, snapping.seed);
            EXPECT_EQ(resumed->run(), reference)
                << "split " << split << ", threads " << threads;
        }
    }
}

// runWindow is the one slot driver: stepping a system through uneven
// windows writes exactly the checkpoints run() writes, byte for byte,
// and each of them resumes onto run()'s report.
TEST(Resume, WindowedStepsCheckpointLikeRun)
{
    const ScratchDir windowed_dir("windowed_steps");
    const ScratchDir run_dir("windowed_run");
    constexpr std::int64_t kEvery = 45;

    ScenarioConfig cfg = resumeScenario(1);
    const SystemReport reference = FogSystem(cfg).run();
    const std::int64_t slots = cfg.slotCount();
    ASSERT_EQ(slots, 300);

    cfg.snapshot.everySlots = kEvery;
    cfg.snapshot.dir = run_dir.path();
    FogSystem twin(cfg);
    EXPECT_EQ(twin.run(), reference);

    cfg.snapshot.dir = windowed_dir.path();
    FogSystem windowed(cfg);
    for (const auto &[from, to] :
         std::vector<std::pair<std::int64_t, std::int64_t>>{
             {0, 7}, {7, 50}, {50, slots}})
        windowed.runWindow(from, to);
    windowed.finalizeShards();
    for (std::size_t c = 0; c < cfg.chains; ++c)
        EXPECT_EQ(windowed.chains()[c]->shard(),
                  twin.chains()[c]->shard())
            << "chain " << c;

    std::vector<std::string> expected;
    for (std::int64_t s = kEvery; s < slots; s += kEvery)
        expected.push_back(snapshot::snapshotFileName(s));
    std::vector<std::string> written;
    for (const auto &entry : fs::directory_iterator(windowed_dir.path()))
        written.push_back(entry.path().filename().string());
    std::sort(expected.begin(), expected.end());
    std::sort(written.begin(), written.end());
    ASSERT_EQ(written, expected);

    for (const std::string &name : expected) {
        const std::string path = windowed_dir.file(name);
        EXPECT_TRUE(slurp(path) == slurp(run_dir.file(name)))
            << name << " differs from run()'s checkpoint";
        for (const unsigned threads : {1u, 4u})
            EXPECT_EQ(FogSystem::resume(path, threads)->run(), reference)
                << name << ", threads " << threads;
    }
}

// Model-based check of the one slot driver: random windows, broken
// by random crashes that resume from the newest checkpoint on disk
// at a random thread count, must write exactly run()'s checkpoints,
// byte for byte, and end on run()'s shards.
class SlotDriverModelTest : public ::testing::TestWithParam<int>
{
};

TEST_P(SlotDriverModelTest, RandomWindowsAndCrashesMatchRun)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    const std::string seed = std::to_string(GetParam());
    const ScratchDir run_dir("driver_model_run_" + seed);
    const ScratchDir driven_dir("driver_model_driven_" + seed);

    ScenarioConfig cfg = resumeScenario(1);
    const std::int64_t slots = cfg.slotCount();
    // Up to `slots` itself, which never checkpoints: none is written
    // at the horizon.
    const std::int64_t every = rng.uniformInt(7, slots);
    cfg.snapshot.everySlots = every;
    cfg.snapshot.dir = run_dir.path();
    FogSystem twin(cfg);
    twin.run();

    cfg.snapshot.dir = driven_dir.path();
    auto driven = std::make_unique<FogSystem>(cfg);
    std::int64_t at = 0;
    int crashes = 0;
    while (at < slots) {
        const std::int64_t to =
            std::min(slots, at + rng.uniformInt(0, 60));
        driven->runWindow(at, to);
        at = to;
        if (at == slots || crashes == 4 || rng.uniform() >= 0.25)
            continue;
        ++crashes;
        driven.reset();
        const unsigned threads = rng.uniform() < 0.5 ? 1u : 4u;
        if (fs::is_empty(driven_dir.path())) {
            cfg.threads = threads;
            driven = std::make_unique<FogSystem>(cfg);
        } else {
            driven =
                FogSystem::resume(driven_dir.path(), threads, cfg.snapshot);
        }
        at = driven->resumeSlot();
    }
    driven->finalizeShards();
    for (std::size_t c = 0; c < cfg.chains; ++c)
        EXPECT_EQ(driven->chains()[c]->shard(), twin.chains()[c]->shard())
            << "chain " << c << ", every " << every;

    std::vector<std::string> expected;
    for (std::int64_t s = every; s < slots; s += every)
        expected.push_back(snapshot::snapshotFileName(s));
    std::vector<std::string> written;
    for (const auto &entry : fs::directory_iterator(driven_dir.path()))
        written.push_back(entry.path().filename().string());
    std::sort(expected.begin(), expected.end());
    std::sort(written.begin(), written.end());
    ASSERT_EQ(written, expected) << "every " << every;
    for (const std::string &name : expected)
        EXPECT_TRUE(slurp(driven_dir.file(name)) ==
                    slurp(run_dir.file(name)))
            << name << " differs from run()'s checkpoint";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlotDriverModelTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// Resuming may itself snapshot; a second-generation resume must
// still land on the reference bits (crash during the resumed run).
TEST(Resume, ChainedResumeStaysBitIdentical)
{
    const ScratchDir first("resume_chain_a");
    const ScratchDir second("resume_chain_b");

    const SystemReport reference =
        FogSystem(resumeScenario(2)).run();

    ScenarioConfig snapping = resumeScenario(1);
    snapping.snapshot.everySlots = 60;
    snapping.snapshot.dir = first.path();
    FogSystem(snapping).run();

    ScenarioConfig::SnapshotConfig resnap;
    resnap.everySlots = 90;
    resnap.dir = second.path();
    auto once = FogSystem::resume(
        first.file(snapshot::snapshotFileName(60)), 4, resnap);
    EXPECT_EQ(once->run(), reference);

    // The resumed run checkpointed at slots 90/180/270; resume again
    // from its latest shard set, as the CI kill lane does.
    auto twice = FogSystem::resume(second.path(), 2);
    EXPECT_EQ(twice->resumeSlot(), 270);
    EXPECT_EQ(twice->run(), reference);
}

// ---------------------------------------------------------------------
// Row schedule (ChainEngine::scheduleFor)
// ---------------------------------------------------------------------

/**
 * Step @p sys through slots [from, to), one runWindow each.  After
 * every slot, each chain's row schedule must name memberForSlot's
 * clone (facade and shard row) in every logical position, and exactly
 * those clones — no sibling — must have banked the slot.
 */
void
expectScheduleFollowsMemberForSlot(FogSystem &sys, std::int64_t from,
                                   std::int64_t to)
{
    const Tick interval = sys.config().slotInterval;
    for (std::int64_t s = from; s < to; ++s) {
        sys.runWindow(s, s + 1);
        for (const auto &engine : sys.chains()) {
            const ChainEngine::SlotSchedule &sched = engine->scheduleFor(s);
            ASSERT_EQ(sched.nodes.size(), engine->groups().size());
            for (std::size_t l = 0; l < engine->groups().size(); ++l) {
                const CloneGroup &g = engine->groups()[l];
                const Node *oracle =
                    engine->nodes()[g.memberForSlot(s)].get();
                ASSERT_EQ(sched.nodes[l], oracle)
                    << "chain " << engine->chainIndex() << ", slot " << s
                    << ", position " << l;
                ASSERT_EQ(sched.rows[l], oracle->shardRow());
                for (const std::size_t m : g.members()) {
                    const Node &clone = *engine->nodes()[m];
                    ASSERT_EQ(clone.lastAccrualTime() == (s + 1) * interval,
                              &clone == oracle)
                        << "slot " << s << ", clone " << m;
                }
            }
        }
    }
}

class RowScheduleTest : public ::testing::TestWithParam<int>
{
};

TEST_P(RowScheduleTest, FollowsMemberForSlotAcrossRotationsAndResume)
{
    const int mux = GetParam();
    const ScratchDir dir("row_schedule_mux" + std::to_string(mux));
    ScenarioConfig cfg = presets::fig13(presets::fiosNeofog(), mux);
    cfg.chains = 2;
    cfg.seed = 91;
    cfg.horizon = 60 * cfg.slotInterval;
    // Rotations at slots 7, 14, ...; checkpoints at 10, 20, ... land
    // mid-epoch, with a rotation already applied.
    cfg.membershipUpdateInterval = 7 * cfg.slotInterval;
    cfg.snapshot.everySlots = 10;
    cfg.snapshot.dir = dir.path();
    const std::int64_t slots = cfg.slotCount();
    ASSERT_EQ(slots, 60);

    FogSystem whole(cfg);
    expectScheduleFollowsMemberForSlot(whole, 0, slots);
    whole.finalizeShards();
    if (mux > 1) {
        EXPECT_EQ(whole.chains()[0]->groups()[0].rotation(), 8);
    }

    // Resume mid-epoch: the restored rotation alone picks the rows.
    for (const std::int64_t split : {10, 30}) {
        auto resumed = FogSystem::resume(
            dir.file(snapshot::snapshotFileName(split)), 1);
        ASSERT_EQ(resumed->resumeSlot(), split);
        expectScheduleFollowsMemberForSlot(*resumed, split, slots);
        resumed->finalizeShards();
        for (std::size_t c = 0; c < cfg.chains; ++c)
            EXPECT_EQ(resumed->chains()[c]->shard(),
                      whole.chains()[c]->shard())
                << "split " << split << ", chain " << c;
    }
}

INSTANTIATE_TEST_SUITE_P(Mux, RowScheduleTest, ::testing::Values(1, 2, 3, 4));

// Forest nodes (fig 10: an independent trace per node) integrate their
// income straight from the trace, which keeps no stream position: a
// resume split in daylight and one after sunset both land on the
// uninterrupted run's bits.
TEST(Resume, ForestSplitInDaylightAndAfterSunset)
{
    const ScratchDir dir("resume_forest");

    ScenarioConfig cfg = presets::fig10(presets::fiosNeofog(), 0);
    cfg.chains = 2;
    cfg.horizon = 10 * kHour;
    cfg.threads = 1;
    const SystemReport reference = FogSystem(cfg).run();
    EXPECT_GT(reference.totalProcessed(), 0u);

    // Slot 1450 is 4 h 50 min in, in daylight; slot 2900 is 9 h
    // 40 min in, past every forest node's sunset (8 h 50 min to 9 h).
    ScenarioConfig snapping = cfg;
    snapping.threads = 4;
    snapping.snapshot.everySlots = 1450;
    snapping.snapshot.dir = dir.path();
    EXPECT_EQ(FogSystem(snapping).run(), reference);
    ASSERT_EQ(snapping.slotCount(), 3000);

    for (const std::int64_t split : {1450, 2900}) {
        const std::string path =
            dir.file(snapshot::snapshotFileName(split));
        ASSERT_TRUE(fs::exists(path)) << path;
        for (const unsigned threads : {1u, 4u}) {
            auto resumed = FogSystem::resume(path, threads);
            EXPECT_EQ(resumed->resumeSlot(), split);
            EXPECT_EQ(resumed->run(), reference)
                << "split " << split << ", threads " << threads;
        }
    }
}

// Nothing a node keeps grows with the slot index, so a checkpoint late
// in the run is exactly as large as an early one (the v1 format
// archived every node's stored-energy series and grew ~16 B per node
// per slot).
TEST(SnapshotSize, FlatInTheHorizon)
{
    const ScratchDir dir("flat_size");

    ScenarioConfig forest = presets::fig10(presets::fiosNeofog(), 0);
    ScenarioConfig rain = presets::fig13(presets::fiosNeofog(), 2);
    for (ScenarioConfig cfg : {forest, rain}) {
        cfg.chains = 2;
        cfg.horizon = 2 * kHour;
        // The JSON header prints the slot in decimal, so k and 4k are
        // picked with the same number of digits.
        constexpr std::int64_t kFirst = 100;
        cfg.snapshot.everySlots = kFirst;
        cfg.snapshot.dir = dir.path();
        fs::remove_all(dir.path());
        FogSystem(cfg).run();
        const auto size_at = [&](std::int64_t slot) {
            return fs::file_size(
                dir.file(snapshot::snapshotFileName(slot)));
        };
        EXPECT_EQ(size_at(kFirst), size_at(4 * kFirst))
            << traceKindName(cfg.traceKind) << " mux "
            << cfg.multiplexing;
    }
}

// A file of the previous schema is refused on its tag, by name, before
// any section is decoded, and the refusal leaves nothing behind: the
// same state under the current tag still resumes to the reference.
TEST(SnapshotFile, RejectsV1SchemaWhole)
{
    const ScratchDir dir("v1_reject");
    const ScratchDir old_dir("v1_only");
    const ScratchDir mixed_dir("v1_newer");

    ScenarioConfig cfg = resumeScenario(1);
    const SystemReport reference = FogSystem(cfg).run();
    cfg.snapshot.everySlots = 100;
    cfg.snapshot.dir = dir.path();
    FogSystem(cfg).run();

    const std::string v2 = snapshot::kSchema;
    const std::string v1 = "neofog-snapshot-v1";
    ASSERT_EQ(v2, "neofog-snapshot-v2");
    // Copy checkpoint @p slot into @p to, relabelled as v1.
    const auto writeV1 = [&](std::int64_t slot, const ScratchDir &to) {
        std::string bytes = slurp(dir.file(snapshot::snapshotFileName(slot)));
        const std::size_t at = bytes.find(v2);
        ASSERT_NE(at, std::string::npos);
        bytes.replace(at, v2.size(), v1);
        spit(to.file(snapshot::snapshotFileName(slot)), bytes);
    };
    const std::string current = dir.file(snapshot::snapshotFileName(100));
    const std::string old = old_dir.file(snapshot::snapshotFileName(100));
    writeV1(100, old_dir);
    // A newer v1 file in front of an older v2 one must not let a
    // resume quietly fall back to the v2 checkpoint.
    spit(mixed_dir.file(snapshot::snapshotFileName(100)), slurp(current));
    writeV1(200, mixed_dir);

    // Every load is refused with both tags named: a v1-only directory
    // is not reported as empty.
    for (const auto &load : std::vector<std::function<void()>>{
             [&] { snapshot::readSnapshot(old); },
             [&] { FogSystem::resume(old); },
             [&] { FogSystem::resumePartition(old, cfg, 0, 1); },
             [&] { snapshot::latestSnapshot(old_dir.path()); },
             [&] { FogSystem::resume(old_dir.path()); },
             [&] { snapshot::latestSnapshot(mixed_dir.path()); },
             [&] { FogSystem::resume(mixed_dir.path()); }}) {
        try {
            load();
            FAIL() << "v1 snapshot accepted";
        } catch (const FatalError &err) {
            const std::string what = err.what();
            EXPECT_NE(what.find(v1), std::string::npos) << what;
            EXPECT_NE(what.find(v2), std::string::npos) << what;
        }
    }

    EXPECT_EQ(FogSystem::resume(current)->run(), reference);
}

// A watched node's series survives a checkpoint: the resumed run's
// rings hold exactly the uninterrupted run's points, at any split and
// thread count.
TEST(Resume, WatchedSeriesContinueBitForBit)
{
    const ScratchDir dir("resume_watched");

    ScenarioConfig cfg = resumeScenario(1);
    cfg.membershipUpdateInterval = 5 * kMin;
    cfg.probes.watchNodes = {0, 1, 2, 44, 89};
    FogSystem reference(cfg);
    const SystemReport report = reference.run();

    ScenarioConfig snapping = cfg;
    snapping.snapshot.everySlots = 75;
    snapping.snapshot.dir = dir.path();
    FogSystem(snapping).run();

    for (const std::int64_t split : {75, 150, 225}) {
        for (const unsigned threads : {1u, 4u}) {
            auto resumed = FogSystem::resume(
                dir.file(snapshot::snapshotFileName(split)), threads);
            EXPECT_EQ(resumed->run(), report);
            std::size_t watched = 0;
            for (std::size_t c = 0; c < cfg.chains; ++c) {
                const ChainProbe &want = reference.chains()[c]->probe();
                const ChainProbe &got = resumed->chains()[c]->probe();
                EXPECT_TRUE(got == want)
                    << "chain " << c << ", split " << split
                    << ", threads " << threads;
                watched += got.watched.size();
                for (const WatchedNode &w : got.watched)
                    EXPECT_EQ(w.storedEnergyMj.dropped(), 0u);
            }
            EXPECT_EQ(watched, cfg.probes.watchNodes.size());
        }
    }

    // The watch list is part of the archived scenario: a resume
    // rebuilds it from the snapshot, never from the caller.
    auto resumed = FogSystem::resume(dir.path());
    EXPECT_EQ(resumed->config().probes.watchNodes,
              cfg.probes.watchNodes);
}

} // namespace
} // namespace neofog
