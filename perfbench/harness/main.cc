/**
 * @file
 * neofog_perfbench: closed-loop batch harness of the repository
 * benchmark.  One process runs one workload (a scenario run to its
 * horizon) repeatedly for a fixed measuring time and reports the work
 * done per host second, set-up time and peak RSS; with --trace 1 it
 * instead runs the workload untraced and traced in alternation and
 * reports the per-layer metrics.  It drives the simulator through public calls
 * only (FogSystem, ChainEngine::runSlot, dist::runDistributed, the
 * wire codec, PowerTrace::integrate, CloneGroup::memberForSlot,
 * traces::make*), and checks every run's output outside the timed
 * region.
 *
 * Usage:
 *   neofog_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                    --out DIR [--chains C] [--slots T]
 *
 * The last stdout line is one JSON object: correct, attempted,
 * failed, metrics (name -> {value, unit}) and info (digest, shape,
 * compiler, build type).  DIR receives the merged report, its digest
 * and, in traced mode, the spans as Chrome trace-event JSON.
 */

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dist/coordinator.hh"
#include "dist/partition.hh"
#include "dist/wire.hh"
#include "energy/power_trace.hh"
#include "fog/fog_system.hh"
#include "fog/presets.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "snapshot/archive.hh"
#include "snapshot/snapshot.hh"
#include "tracer.hh"

using namespace neofog;
using perfbench::LogHistogram;
using perfbench::nowNs;
using perfbench::ScopedSpan;
using perfbench::secondsSince;
using perfbench::Tracer;
namespace fs = std::filesystem;

namespace {

/** One benchmark workload: a fixed scenario shape. */
struct Workload
{
    const char *name;
    TraceKind trace;
    double incomeMw;
    int multiplexing;
    /** Run through dist::runDistributed instead of FogSystem::run. */
    bool distributed;
    /**
     * Chains per deployment.  In-process deployments stay small, so
     * their working set is mostly cache-resident: memory-bound code is
     * what other tenants of a shared host slow down the most.
     */
    std::size_t chains;
    /**
     * Independent deployments per run, each on its own scenario seed.
     * Rain deployments share one stream per deployment, so a single
     * one makes the work per run swing with the seed's rain spells.
     */
    int deployments;
};

constexpr Workload kWorkloads[] = {
    {"forest_24h", TraceKind::ForestIndependent, 2.6, 1, false, 6, 4},
    {"rain_24h", TraceKind::RainLow, 2.2, 1, false, 10, 8},
    {"rain_mux3_dist", TraceKind::RainLow, 2.2, 3, true, 20, 3},
};

/** 24 h of 12 s slots. */
constexpr std::int64_t kDefaultSlots = 7200;
/** Worker processes of the distributed workload (one thread each). */
constexpr long long kDistWorkers = 2;
/** Checkpoint cadence: every slots/4, so three inside the horizon. */
constexpr std::int64_t kCheckpointDivisor = 4;
/** Chains re-run through the partition constructor as a check. */
constexpr std::size_t kCheckChains = 2;
/** Fewest measured runs per process, whatever --seconds says. */
constexpr int kMinReps = 3;
/** Slots sampled by the integrate / memberForSlot replays. */
constexpr std::int64_t kReplaySlots = 256;
/** Forest traces built to time trace generation. */
constexpr std::size_t kTraceBuildNodes = 200;

struct Options
{
    const Workload *workload = nullptr;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir = ".";
    std::size_t chains = 0;
    std::int64_t slots = kDefaultSlots;
};

/** Deployment @p d of the workload, seeded from the run's seed. */
ScenarioConfig
scenarioFor(const Options &opt, int d = 0)
{
    const Workload &w = *opt.workload;
    ScenarioConfig cfg = w.trace == TraceKind::ForestIndependent
        ? presets::fig10(presets::fiosNeofog(), 0)
        : presets::fig13(presets::fiosNeofog(), w.multiplexing);
    cfg.meanIncome = Power::fromMilliwatts(w.incomeMw);
    cfg.multiplexing = w.multiplexing;
    cfg.chains = opt.chains != 0 ? opt.chains : w.chains;
    cfg.horizon = opt.slots * cfg.slotInterval;
    cfg.threads = 1;
    cfg.seed = opt.seed * static_cast<std::uint64_t>(w.deployments) +
               static_cast<std::uint64_t>(d);
    return cfg;
}

std::size_t
physicalNodes(const ScenarioConfig &cfg, std::size_t chains)
{
    return chains * cfg.nodesPerChain *
           static_cast<std::size_t>(cfg.multiplexing);
}

std::int64_t
checkpointEvery(const ScenarioConfig &cfg)
{
    return std::max<std::int64_t>(1,
                                  cfg.slotCount() / kCheckpointDivisor);
}

// ---- measurement helpers -------------------------------------------

/** The @p q quantile of @p v, interpolated between order statistics. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/**
 * Peak RSS of this process and every waited-for child, in MiB.  The
 * process's own peak is VmHWM, not ru_maxrss: ru_maxrss survives exec,
 * so it would start at the launching interpreter's size.
 */
double
peakRssMib()
{
    long long hwm_kib = 0;
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);)
        if (line.rfind("VmHWM:", 0) == 0)
            hwm_kib = std::stoll(line.substr(6));
    rusage children{};
    getrusage(RUSAGE_CHILDREN, &children);
    return static_cast<double>(std::max<long long>(hwm_kib,
                                                   children.ru_maxrss)) /
           1024.0;
}

/** The CPUs this process may run on, in order. */
std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
    return cpus;
}

/** Restrict this process to @p cpus. */
void
runOn(const std::vector<int> &cpus)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int c : cpus)
        CPU_SET(c, &set);
    sched_setaffinity(0, sizeof set, &set);
}

/** Current resident set of this process, in bytes. */
double
currentRssBytes()
{
    std::ifstream statm("/proc/self/statm");
    long long size = 0, resident = 0;
    statm >> size >> resident;
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE));
}

/** Hand freed heap pages back so the next phase starts from a clean RSS. */
void
releaseFreedMemory()
{
    malloc_trim(0);
}

std::uint64_t
reportDigest(const SystemReport &report)
{
    SystemReport copy = report;
    snapshot::OutArchive ar;
    ar.pushScope("report");
    copy.serialize(ar);
    ar.popScope();
    return snapshot::fnv1a(ar.take());
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

/** Total size of the regular files under @p dir named like @p name. */
std::uintmax_t
filesNamed(const fs::path &dir, const std::string &name)
{
    std::uintmax_t bytes = 0;
    std::error_code ec;
    for (const auto &e : fs::recursive_directory_iterator(dir, ec))
        if (e.is_regular_file() && e.path().filename() == name)
            bytes += e.file_size();
    return bytes;
}

std::string
joined(const std::vector<double> &values)
{
    std::string s;
    char buf[32];
    for (const double v : values) {
        std::snprintf(buf, sizeof buf, "%s%.6g", s.empty() ? "" : " ", v);
        s += buf;
    }
    return s;
}

// ---- output checks -------------------------------------------------

/**
 * The report's accounting identities.  Returns the first one that
 * fails, or an empty string.
 */
std::string
identityError(const SystemReport &r, const ScenarioConfig &cfg)
{
    const double nodes =
        static_cast<double>(physicalNodes(cfg, cfg.chains));
    const double initial_mj =
        cfg.nodeTemplate.cap.initial.millijoules() * nodes;
    if (r.idealPackages != cfg.idealPackages())
        return "ideal packages differ from chains x nodes x slots";
    if (r.wakeups + r.depletionFailures != r.idealPackages)
        return "a logical slot neither woke a clone nor failed";
    if (r.packagesSampled > r.idealPackages)
        return "more packages sampled than slots";
    if (r.totalProcessed() + r.packagesIncidental > r.packagesSampled)
        return "more packages delivered than sampled";
    if (r.tasksBalancedAway > 0 && r.lbMessages == 0)
        return "tasks moved without a balancing message";
    for (const double v : {r.capOverflowMj, r.spentComputeMj, r.spentTxMj,
                           r.spentRxMj, r.spentSampleMj, r.spentWakeMj,
                           r.harvestedMj})
        if (!std::isfinite(v) || v < 0.0)
            return "an energy total is negative or not finite";
    if (r.spentTotalMj() > (r.harvestedMj + initial_mj) * (1 + 1e-9))
        return "nodes spent more energy than they harvested and held";
    if (r.wakeups == 0 || r.harvestedMj <= 0.0)
        return "the run did no work";
    return {};
}

/** Check outcomes of one process: one operation per measured run. */
struct Outcome
{
    int attempted = 0;
    int failed = 0;
    std::vector<std::string> errors;

    /** Count one operation; @p errs holds its failed checks. */
    void
    record(const std::vector<std::string> &errs)
    {
        ++attempted;
        if (!errs.empty())
            ++failed;
        errors.insert(errors.end(), errs.begin(), errs.end());
    }
};

/**
 * Re-run chains [0, k) through the partition constructor plus
 * runWindow and compare their shards with the full run's, bit for bit.
 */
std::string
partitionMismatch(const ScenarioConfig &cfg,
                  const std::vector<SystemReport> &expected)
{
    FogSystem part(cfg, 0, expected.size());
    part.runWindow(0, cfg.slotCount());
    part.finalizeShards();
    for (std::size_t c = 0; c < expected.size(); ++c)
        if (!(part.chains()[c]->shard() == expected[c]))
            return "chain " + std::to_string(c) +
                   " re-run through the partition constructor differs "
                   "from the full run";
    return {};
}

void
writeFile(const fs::path &path, const std::string &text)
{
    std::ofstream os(path);
    os << text;
}

std::string
reportJson(const SystemReport &report)
{
    std::ostringstream json;
    report.toJson(json, "perfbench");
    return json.str();
}

/**
 * Digest of a workload run: the report digest of a single deployment,
 * else the FNV-1a of the deployments' digests in order.
 */
std::uint64_t
combinedDigest(const std::vector<std::uint64_t> &digests)
{
    if (digests.size() == 1)
        return digests.front();
    std::string bytes;
    for (const std::uint64_t d : digests)
        snapshot::appendLe64(bytes, d);
    return snapshot::fnv1a(bytes);
}

// ---- one run of a workload -----------------------------------------

struct RunTimes
{
    double setupS = 0.0;
    double runS = 0.0;
};

dist::DistOptions
distOptions(const ScenarioConfig &cfg, const fs::path &ckpt_dir)
{
    dist::DistOptions d;
    d.workersRequested = kDistWorkers;
    d.snapshotEvery = checkpointEvery(cfg);
    d.snapshotDir = ckpt_dir.string();
    return d;
}

/** The distributed workload's largest partition. */
dist::ChainRange
largestPartition(const ScenarioConfig &cfg)
{
    const auto ranges = dist::partitionChains(
        cfg.chains, dist::clampWorkers(kDistWorkers, cfg.chains));
    return *std::max_element(ranges.begin(), ranges.end(),
                             [](const auto &a, const auto &b) {
                                 return a.size() < b.size();
                             });
}

/**
 * One untraced distributed run: set-up is the largest partition's
 * constructor, timed here (each worker pays it before slot 0); the run
 * is the whole runDistributed call.
 */
SystemReport
runDistributedOnce(const ScenarioConfig &cfg, const fs::path &ckpt_dir,
                   RunTimes &t, std::vector<std::string> &errs,
                   std::uintmax_t *checkpoint_bytes = nullptr)
{
    const dist::ChainRange big = largestPartition(cfg);
    std::int64_t start = nowNs();
    auto part = std::make_unique<FogSystem>(cfg, big.lo, big.hi);
    t.setupS = secondsSince(start);
    part.reset();

    std::error_code ec;
    fs::remove_all(ckpt_dir, ec);
    start = nowNs();
    dist::DistResult res =
        dist::runDistributed(cfg, distOptions(cfg, ckpt_dir));
    t.runS = secondsSince(start);
    if (res.workers != static_cast<std::size_t>(kDistWorkers))
        errs.push_back("runDistributed used " +
                       std::to_string(res.workers) + " workers");
    if (res.respawns != 0)
        errs.push_back("a worker died and was respawned");
    if (checkpoint_bytes != nullptr) {
        std::uintmax_t total = 0;
        const std::int64_t every = checkpointEvery(cfg);
        for (std::int64_t s = every; s < cfg.slotCount(); s += every)
            total += filesNamed(ckpt_dir, snapshot::snapshotFileName(s));
        const std::int64_t count = (cfg.slotCount() - 1) / every;
        *checkpoint_bytes = count > 0 ? total / count : 0;
    }
    fs::remove_all(ckpt_dir, ec);
    return res.report;
}

/**
 * The in-process slot loop with every slot timed: runWindow over one
 * slot at a time, then finalize plus the chain-order merge exactly as
 * FogSystem::run does.  @p seg_s receives each slot's seconds, then the
 * merge's.
 */
SystemReport
runTimedSlots(FogSystem &sys, std::vector<double> &seg_s)
{
    const ScenarioConfig &cfg = sys.config();
    seg_s.clear();
    for (std::int64_t s = 0; s < cfg.slotCount(); ++s) {
        const std::int64_t start = nowNs();
        sys.runWindow(s, s + 1);
        seg_s.push_back(secondsSince(start));
    }
    const std::int64_t start = nowNs();
    sys.finalizeShards();
    SystemReport report;
    report.idealPackages = cfg.idealPackages();
    for (const auto &engine : sys.chains())
        report.merge(engine->shard());
    seg_s.push_back(secondsSince(start));
    return report;
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

void
printResult(const Outcome &outcome, const std::vector<Metric> &metrics,
            std::map<std::string, std::string> info)
{
    info["compiler"] = PERFBENCH_COMPILER;
    info["build_type"] = PERFBENCH_BUILD_TYPE;
    std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
                "\"metrics\": {",
                outcome.failed == 0 && outcome.attempted > 0 ? "true"
                                                             : "false",
                outcome.attempted, outcome.failed);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit);
    std::printf("}, \"info\": {");
    bool first = true;
    for (const auto &[k, v] : info) {
        std::printf("%s\"%s\": \"%s\"", first ? "" : ", ", k.c_str(),
                    v.c_str());
        first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

// ---- untraced mode: the end-to-end metrics -------------------------

int
runUntraced(const Options &opt)
{
    const Workload &w = *opt.workload;
    std::vector<ScenarioConfig> deployments;
    double chain_slots = 0.0;
    for (int d = 0; d < w.deployments; ++d) {
        deployments.push_back(scenarioFor(opt, d));
        chain_slots += static_cast<double>(deployments.back().chains) *
                       static_cast<double>(deployments.back().slotCount());
    }
    const fs::path out(opt.outDir);
    Outcome outcome;
    std::vector<double> setups, rates;
    // Per deployment, the fastest time seen of each timed segment: each
    // slot and the merge in-process, the whole runDistributed call.
    std::vector<std::vector<double>> best_seg(deployments.size());
    std::vector<std::uint64_t> digests0;
    const std::vector<int> cpus = allowedCpus();
    const std::int64_t begin = nowNs();

    for (int rep = 0;; ++rep) {
        const std::int64_t rep_start = nowNs();
        // A shared host's vCPUs are not equally fast at a given time,
        // and the scheduler would keep a run on the same ones, so
        // repetitions take the CPUs in turn: one each in-process, a
        // pair for the distributed workload's two workers.
        const auto r = static_cast<std::size_t>(rep);
        if (!cpus.empty())
            runOn(w.distributed && cpus.size() > 1
                      ? std::vector<int>{cpus[r % cpus.size()],
                                         cpus[(r + 1) % cpus.size()]}
                      : std::vector<int>{cpus[r % cpus.size()]});
        std::vector<std::string> errs;
        std::vector<std::uint64_t> digests;
        double setup_s = 0.0, run_s = 0.0;
        for (std::size_t d = 0; d < deployments.size(); ++d) {
            const ScenarioConfig &cfg = deployments[d];
            RunTimes t;
            SystemReport report;
            std::vector<SystemReport> kept;
            std::vector<double> seg_s;
            if (w.distributed) {
                report =
                    runDistributedOnce(cfg, out / "checkpoints", t, errs);
                seg_s = {t.runS};
            } else {
                std::int64_t start = nowNs();
                auto sys = std::make_unique<FogSystem>(cfg);
                t.setupS = secondsSince(start);
                start = nowNs();
                report = runTimedSlots(*sys, seg_s);
                t.runS = secondsSince(start);
                if (rep == 0 && d == 0)
                    for (std::size_t c = 0;
                         c < std::min(kCheckChains, cfg.chains); ++c)
                        kept.push_back(sys->chains()[c]->shard());
            }
            setup_s += t.setupS;
            run_s += t.runS;
            if (best_seg[d].empty())
                best_seg[d] = seg_s;
            for (std::size_t k = 0; k < seg_s.size(); ++k)
                best_seg[d][k] = std::min(best_seg[d][k], seg_s[k]);

            // Checks, outside the timed region.  The measured system
            // is gone; only the kept shards remain.
            if (const std::string e = identityError(report, cfg);
                !e.empty())
                errs.push_back(e);
            digests.push_back(reportDigest(report));
            if (rep == 0)
                writeFile(out / ("report-" + std::to_string(d) + ".json"),
                          reportJson(report));
            if (!kept.empty())
                if (const std::string e = partitionMismatch(cfg, kept);
                    !e.empty())
                    errs.push_back(e);
        }
        if (rep == 0)
            digests0 = digests;
        else if (digests != digests0)
            errs.push_back("run " + std::to_string(rep) +
                           " report digests differ from run 0's");
        outcome.record(errs);
        setups.push_back(setup_s);
        rates.push_back(chain_slots / run_s);

        const double elapsed = secondsSince(begin);
        const double rep_s = secondsSince(rep_start);
        if (rep + 1 >= kMinReps && elapsed + rep_s > opt.seconds)
            break;
    }

    runOn(cpus);
    double best_s = 0.0;
    for (const auto &segs : best_seg)
        for (const double v : segs)
            best_s += v;
    const std::uint64_t digest = combinedDigest(digests0);
    writeFile(out / "digest.txt", hex(digest) + "\n");
    for (const std::string &e : outcome.errors)
        std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
    // Other tenants of a shared host only ever slow the work down, and
    // every repetition does the same work, so in-process throughput is
    // the work over the sum of each slot's fastest time across
    // repetitions: a slowdown has to hit the same slot in every
    // repetition to count.  A distributed repetition is one
    // multi-process call per deployment whose fastest time is decided
    // by a lucky call, so there it is the median repetition's rate.
    const double rate = w.distributed ? median(rates) : chain_slots / best_s;
    printResult(outcome,
                {{"chain_slots_per_s", rate, "1/s"},
                 {"setup_s", median(setups), "s"},
                 {"peak_rss_mib", peakRssMib(), "MiB"}},
                {{"digest", hex(digest)},
                 {"digest_deployment0", hex(digests0.front())},
                 {"deployments", std::to_string(deployments.size())},
                 {"reps", std::to_string(rates.size())},
                 {"median_chain_slots_per_s", std::to_string(median(rates))},
                 {"rep_chain_slots_per_s", joined(rates)},
                 {"best_chain_slots_per_s",
                  std::to_string(chain_slots / best_s)},
                 {"rep_setup_s", joined(setups)},
                 {"chains", std::to_string(deployments[0].chains)},
                 {"slots", std::to_string(deployments[0].slotCount())}});
    return 0;
}

// ---- traced mode: the per-layer metrics ----------------------------

/** What one traced pass measured. */
struct Replay
{
    LogHistogram runSlot;
    /** RSS samples of the first system or partition: slot, bytes. */
    std::vector<double> rssSlots, rssBytes;
    /** Snapshot bytes at each horizon quarter, summed over partitions. */
    std::vector<std::uintmax_t> snapshotBytes =
        std::vector<std::uintmax_t>(kCheckpointDivisor, 0);
    double integrateS = 0.0;
    std::uint64_t integrateCalls = 0;
    double memberS = 0.0;
    std::uint64_t memberCalls = 0;
    double codecS = 0.0;
    std::uintmax_t wireBytes = 0;
    double shardBytes = 0.0;
    /** Every chain's finalized shard, in chain order. */
    std::vector<SystemReport> shards;
    std::vector<std::string> errors;
    /** Wall time comparable with the untraced run (see tracedPass). */
    double coreS = 0.0;
    /** Folds the replayed results so the compiler keeps the calls. */
    double sink = 0.0;
};

/**
 * Replay each scheduled node's trace integral on sampled slots, then
 * the clone schedule over every group, on a live system.
 */
void
replayLayers(const FogSystem &sys, Replay &r, Tracer &tracer)
{
    const ScenarioConfig &cfg = sys.config();
    const std::int64_t slots = cfg.slotCount();
    const std::int64_t step =
        std::max<std::int64_t>(1, slots / kReplaySlots);
    {
        ScopedSpan span(tracer, "energy.integrate_replay");
        const std::int64_t start = nowNs();
        for (std::int64_t s = 0; s < slots; s += step) {
            const Tick t = s * cfg.slotInterval;
            for (const auto &engine : sys.chains())
                for (const CloneGroup &g : engine->groups()) {
                    r.sink += engine->nodes()[g.memberForSlot(s)]
                                  ->trace()
                                  .integrate(t, t + cfg.slotInterval)
                                  .joules();
                    ++r.integrateCalls;
                }
        }
        r.integrateS += secondsSince(start);
    }
    {
        ScopedSpan span(tracer, "virt.member_for_slot_replay");
        const std::int64_t start = nowNs();
        std::size_t members = 0;
        for (std::int64_t s = 0; s < slots; s += std::max<std::int64_t>(1, step / 4))
            for (const auto &engine : sys.chains())
                for (const CloneGroup &g : engine->groups()) {
                    members += g.memberForSlot(s);
                    ++r.memberCalls;
                }
        r.memberS += secondsSince(start);
        r.sink += static_cast<double>(members);
    }
}

/**
 * Ship every finalized shard through the coordinator's wire path
 * (ShardMsg -> frame -> decode -> report) and return the decoded
 * shards.
 */
std::vector<SystemReport>
shipShards(const FogSystem &sys, Replay &r, Tracer &tracer)
{
    ScopedSpan span(tracer, "dist.wire");
    std::vector<SystemReport> decoded;
    for (std::size_t i = 0; i < sys.chains().size(); ++i) {
        dist::ShardMsg msg;
        msg.chain = sys.chains()[i]->chainIndex();
        msg.blob = sys.shardBlob(i);
        const std::int64_t start = nowNs();
        const std::string frame =
            dist::encodeFrame(dist::MsgType::Shard, dist::encodeMsg(msg));
        std::size_t consumed = 0;
        const dist::Frame back = dist::decodeFrame(frame, consumed);
        const auto got = dist::decodeMsg<dist::ShardMsg>(back.payload);
        snapshot::InArchive ar(got.blob);
        SystemReport shard;
        ar.pushScope("shard");
        shard.serialize(ar);
        ar.popScope();
        r.codecS += secondsSince(start);
        r.wireBytes += frame.size();
        if (consumed != frame.size() || got.chain != msg.chain ||
            !(shard == sys.chains()[i]->shard()))
            r.errors.push_back("chain " + std::to_string(msg.chain) +
                               " shard did not survive the wire codec");
        decoded.push_back(std::move(shard));
    }
    return decoded;
}

/**
 * Traced set-up and slot loop of chains [range.lo, range.hi): every
 * runSlot call is timed into the histogram.  A full pass also samples
 * RSS at the horizon quarters (when @p sample_rss) and saves a snapshot
 * at each quarter; @p side_s collects the time those take.  Ends with
 * finalizeShards and returns the live system.
 */
std::unique_ptr<FogSystem>
tracedSlotLoop(const ScenarioConfig &cfg, const dist::ChainRange &range,
               bool full, bool sample_rss, Replay &r, Tracer &tracer,
               double &side_s)
{
    std::unique_ptr<FogSystem> sys;
    {
        ScopedSpan span(tracer, "fog.setup");
        sys = std::make_unique<FogSystem>(cfg, range.lo, range.hi);
    }
    sample_rss = sample_rss && full;
    if (sample_rss) {
        r.rssSlots.push_back(0.0);
        r.rssBytes.push_back(currentRssBytes());
    }
    const std::int64_t slots = cfg.slotCount();
    std::size_t quarter = 0;
    {
        ScopedSpan loop(tracer, "fog.run");
        const auto &chains = sys->chains();
        for (std::int64_t s = 0; s < slots; ++s) {
            for (const auto &engine : chains) {
                const std::int64_t t0 = nowNs();
                engine->runSlot(s);
                r.runSlot.add(static_cast<std::uint64_t>(nowNs() - t0));
            }
            const std::int64_t done = s + 1;
            if (!full ||
                done != slots * static_cast<std::int64_t>(quarter + 1) /
                            kCheckpointDivisor)
                continue;
            const std::int64_t side_start = nowNs();
            if (sample_rss) {
                ScopedSpan rss(tracer, "fog.rss_sample");
                r.rssSlots.push_back(static_cast<double>(done));
                r.rssBytes.push_back(currentRssBytes());
            }
            {
                ScopedSpan save(tracer, "snapshot.save");
                sys->saveSnapshot(done);
                const fs::path file = fs::path(cfg.snapshot.dir) /
                                      snapshot::snapshotFileName(done);
                std::error_code ec;
                r.snapshotBytes[quarter++] += fs::file_size(file, ec);
                fs::remove(file, ec);
                releaseFreedMemory();
            }
            side_s += secondsSince(side_start);
        }
    }
    {
        ScopedSpan span(tracer, "fog.finalize");
        sys->finalizeShards();
    }
    return sys;
}

/**
 * One traced pass over the workload: the whole system in-process, or
 * each partition in turn (with the wire codec) for the distributed
 * workload, then the chain-order merge.  A full pass also measures
 * snapshots, RSS and, on each live system outside the traced parts,
 * the layer replays and the wire codec.
 *
 * Replay::coreS is the pass's wall time less what the untraced run
 * does not do: snapshots, RSS samples and the wire, plus finalize for
 * the distributed workload, whose untraced run is constructor plus
 * runWindow per partition.
 */
Replay
tracedPass(const ScenarioConfig &cfg, bool distributed,
           const std::vector<dist::ChainRange> &parts, bool full,
           Tracer &tracer)
{
    Replay r;
    for (std::size_t p = 0; p < parts.size(); ++p) {
        double side_s = 0.0;
        std::unique_ptr<FogSystem> sys;
        const int part = tracer.open("traced.part");
        sys = tracedSlotLoop(cfg, parts[p], full, p == 0, r, tracer,
                             side_s);
        std::vector<SystemReport> shards;
        if (distributed) {
            const std::int64_t start = nowNs();
            shards = shipShards(*sys, r, tracer);
            side_s += secondsSince(start);
        } else {
            for (const auto &engine : sys->chains())
                shards.push_back(engine->shard());
        }
        tracer.close(part);
        r.coreS += tracer.span(part).seconds() - side_s;
        if (distributed)
            for (const int id : tracer.ids("fog.finalize"))
                if (tracer.span(id).parent == part)
                    r.coreS -= tracer.span(id).seconds();
        r.shards.insert(r.shards.end(), shards.begin(), shards.end());

        if (full) {
            for (const auto &engine : sys->chains())
                r.shardBytes +=
                    static_cast<double>(engine->soa().residentBytes());
            replayLayers(*sys, r, tracer);
            if (!distributed)
                shipShards(*sys, r, tracer);
        }
        sys.reset();
        releaseFreedMemory();
    }
    return r;
}

/** Chain-order merge of a pass's shards, as FogSystem::run does. */
SystemReport
mergeShards(const ScenarioConfig &cfg, Replay &r, bool distributed,
            Tracer &tracer)
{
    SystemReport report;
    report.idealPackages = cfg.idealPackages();
    const int id = tracer.open("fog.merge");
    for (const SystemReport &shard : r.shards)
        report.merge(shard);
    tracer.close(id);
    if (!distributed)
        r.coreS += tracer.span(id).seconds();
    return report;
}

/** Least-squares slope of y over x. */
double
slope(const std::vector<double> &x, const std::vector<double> &y)
{
    if (x.size() < 2)
        return 0.0;
    const double n = static_cast<double>(x.size());
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        sx += x[i];
        sy += y[i];
        sxx += x[i] * x[i];
        sxy += x[i] * y[i];
    }
    const double d = n * sxx - sx * sx;
    return d != 0.0 ? (n * sxy - sx * sy) / d : 0.0;
}

/** Milliseconds per thousand nodes to generate the workload's traces. */
double
traceBuildMsPerKnode(const ScenarioConfig &cfg, Tracer &tracer)
{
    ScopedSpan span(tracer, "energy.trace_build");
    const Tick horizon = cfg.horizon + 2 * cfg.slotInterval;
    double sink = 0.0;
    double nodes = 0.0;
    const std::int64_t start = nowNs();
    if (cfg.traceKind == TraceKind::ForestIndependent) {
        Rng root(cfg.seed ^ 0x7ACEULL);
        for (std::size_t i = 0; i < kTraceBuildNodes; ++i) {
            Rng rng = root.fork();
            sink += traces::makeForestTrace(rng, horizon, cfg.meanIncome)
                        ->at(horizon / 2)
                        .watts();
        }
        nodes = static_cast<double>(kTraceBuildNodes);
    } else {
        sink += traces::makeRainUnitStream(cfg.seed * 131 + 7, horizon)
                    ->at(horizon / 2)
                    .watts();
        nodes = static_cast<double>(physicalNodes(cfg, cfg.chains));
    }
    const double ms = secondsSince(start) * 1e3;
    if (!std::isfinite(sink))
        fatal("trace generation produced a non-finite level");
    return ms * 1000.0 / nodes;
}

/** Constructor plus runWindow of each partition, untraced. */
struct PartitionTimes
{
    double totalS = 0.0;
    double slowestWindowS = 0.0;
};

PartitionTimes
runPartitions(const ScenarioConfig &cfg,
              const std::vector<dist::ChainRange> &ranges, Tracer &tracer)
{
    PartitionTimes pt;
    for (const auto &range : ranges) {
        ScopedSpan span(tracer, "untraced.partition_window");
        std::int64_t start = nowNs();
        FogSystem part(cfg, range.lo, range.hi);
        const double setup = secondsSince(start);
        start = nowNs();
        part.runWindow(0, cfg.slotCount());
        const double window = secondsSince(start);
        pt.slowestWindowS = std::max(pt.slowestWindowS, window);
        pt.totalS += setup + window;
    }
    releaseFreedMemory();
    return pt;
}

/** Number of untraced / traced pass pairs; overhead uses the fastest. */
constexpr int kTracePairs = 2;

int
runTraced(const Options &opt)
{
    // A traced run follows the workload's first deployment.
    const ScenarioConfig cfg = scenarioFor(opt);
    const Workload &w = *opt.workload;
    const fs::path out(opt.outDir);
    const std::size_t chains = cfg.chains;
    const double chain_slots = static_cast<double>(chains) *
                               static_cast<double>(cfg.slotCount());
    const double nodes = static_cast<double>(physicalNodes(cfg, chains));
    Tracer tracer;
    Outcome outcome;

    // 1. The untraced distributed run: its wall time, its report (the
    //    reference digest of every other run here) and the size of its
    //    checkpoint files.
    RunTimes dist_t;
    std::uintmax_t checkpoint_bytes = 0;
    std::vector<std::string> errs;
    SystemReport dist_report;
    {
        ScopedSpan span(tracer, "untraced.run_distributed");
        dist_report = runDistributedOnce(cfg, out / "checkpoints", dist_t,
                                         errs, &checkpoint_bytes);
    }
    if (const std::string e = identityError(dist_report, cfg); !e.empty())
        errs.push_back(e);
    outcome.record(errs);
    const std::uint64_t ref_digest = reportDigest(dist_report);

    // 2. Each partition of that run in-process, untraced: the slowest
    //    one's runWindow is the floor the distributed run pays over.
    const auto ranges = dist::partitionChains(
        chains, dist::clampWorkers(kDistWorkers, chains));
    const PartitionTimes partitions = runPartitions(cfg, ranges, tracer);

    // 3. Untraced and traced passes, alternated.  The first traced
    //    pass is the full one that the per-layer metrics come from.
    const fs::path snap_dir = out / "snapshots";
    std::error_code ec;
    fs::create_directories(snap_dir, ec);
    ScenarioConfig snap_cfg = cfg;
    snap_cfg.snapshot.dir = snap_dir.string();
    const std::vector<dist::ChainRange> parts = w.distributed
        ? ranges
        : std::vector<dist::ChainRange>{{0, chains}};
    std::vector<double> untraced_s, traced_s;
    Replay r;
    SystemReport traced_report;
    for (int pair = 0; pair < kTracePairs; ++pair) {
        errs.clear();
        if (w.distributed) {
            untraced_s.push_back(
                pair == 0 ? partitions.totalS
                          : runPartitions(cfg, ranges, tracer).totalS);
        } else {
            ScopedSpan span(tracer, "untraced.fog_run");
            const std::int64_t start = nowNs();
            SystemReport report;
            {
                FogSystem sys(cfg);
                report = sys.run();
            }
            untraced_s.push_back(secondsSince(start));
            if (const std::string e = identityError(report, cfg);
                !e.empty())
                errs.push_back(e);
            if (reportDigest(report) != ref_digest)
                errs.push_back("runDistributed report differs from the "
                               "in-process run");
            outcome.record(errs);
            errs.clear();
            releaseFreedMemory();
        }

        Tracer lean;
        Tracer &t = pair == 0 ? tracer : lean;
        Replay pass = tracedPass(snap_cfg, w.distributed, parts, pair == 0,
                                 t);
        const SystemReport merged =
            mergeShards(cfg, pass, w.distributed, t);
        traced_s.push_back(pass.coreS);
        errs = pass.errors;
        const std::uint64_t digest = reportDigest(merged);
        if (digest != ref_digest)
            errs.push_back("traced run report digest " + hex(digest) +
                           " differs from the untraced run's " +
                           hex(ref_digest));
        if (const std::string e = identityError(merged, cfg); !e.empty())
            errs.push_back(e);
        outcome.record(errs);
        if (pair == 0) {
            r = std::move(pass);
            traced_report = merged;
        }
    }
    fs::remove_all(snap_dir, ec);
    const std::uint64_t traced_digest = reportDigest(traced_report);
    writeFile(out / "report-0.json", reportJson(traced_report));
    writeFile(out / "digest.txt", hex(traced_digest) + "\n");

    const double trace_build = traceBuildMsPerKnode(cfg, tracer);

    // Where the full traced pass's wall time went.  Each traced part
    // holds set-up, the slot loop (runSlot calls, RSS samples, snapshot
    // saves), finalize and, for the distributed workload, the wire.
    double parts_s = 0.0, covered_s = 0.0;
    for (const int id : tracer.ids("traced.part")) {
        parts_s += tracer.span(id).seconds();
        covered_s += tracer.childrenTotal(id);
        for (const int loop : tracer.ids("fog.run"))
            if (tracer.span(loop).parent == id)
                covered_s += tracer.childrenTotal(loop) -
                             tracer.span(loop).seconds();
    }
    covered_s += static_cast<double>(r.runSlot.sumNs()) * 1e-9;
    const double merge_s = tracer.total("fog.merge");
    const double coverage = (covered_s + merge_s) / (parts_s + merge_s);
    const double best_untraced =
        *std::min_element(untraced_s.begin(), untraced_s.end());
    const double best_traced =
        *std::min_element(traced_s.begin(), traced_s.end());
    const double overhead_s = best_traced - best_untraced;
    {
        std::ofstream os(out / "trace.json");
        tracer.writeChromeTrace(os);
    }

    const SystemReport &rep = traced_report;
    const auto per_chain_slot = [&](std::uint64_t v) {
        return static_cast<double>(v) / chain_slots;
    };
    const double n_chains = static_cast<double>(chains);
    const double rss_nodes =
        static_cast<double>(physicalNodes(cfg, parts.front().size()));
    for (const std::string &e : outcome.errors)
        std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
    printResult(
        outcome,
        {{"fog.run_slot_ns.p50", r.runSlot.quantile(0.50), "ns"},
         {"fog.run_slot_ns.p99", r.runSlot.quantile(0.99), "ns"},
         {"fog.merge_ms",
          (tracer.total("fog.finalize") + merge_s) * 1e3, "ms"},
         {"fog.orphan_scans_per_chain_slot",
          per_chain_slot(rep.orphanScans), "count"},
         {"fog.shard_bytes_per_node", r.shardBytes / nodes, "B"},
         {"fog.rss_after_setup_mib", r.rssBytes.front() / 1048576.0,
          "MiB"},
         {"fog.rss_growth_b_per_node_slot",
          slope(r.rssSlots, r.rssBytes) / rss_nodes, "B"},
         {"energy.integrate_ns_per_node_slot",
          r.integrateS * 1e9 / static_cast<double>(r.integrateCalls),
          "ns"},
         {"energy.trace_build_ms_per_knode", trace_build, "ms"},
         {"virt.member_for_slot_ns",
          r.memberS * 1e9 / static_cast<double>(r.memberCalls), "ns"},
         {"virt.membership_updates",
          static_cast<double>(rep.membershipUpdates), "count"},
         {"node.wakeups_per_chain_slot", per_chain_slot(rep.wakeups),
          "count"},
         {"balance.lb_messages_per_chain_slot",
          per_chain_slot(rep.lbMessages), "count"},
         {"balance.moves_per_message",
          rep.lbMessages == 0
              ? 0.0
              : static_cast<double>(rep.tasksBalancedAway) /
                    static_cast<double>(rep.lbMessages),
          "ratio"},
         {"net.tx_lost_per_chain_slot", per_chain_slot(rep.txLost),
          "count"},
         {"snapshot.save_ms", median(tracer.durations("snapshot.save")) * 1e3,
          "ms"},
         {"snapshot.bytes_per_node.half",
          static_cast<double>(r.snapshotBytes[1]) / nodes, "B"},
         {"snapshot.bytes_per_node.end",
          static_cast<double>(r.snapshotBytes[3]) / nodes, "B"},
         {"snapshot.checkpoint_bytes_per_node",
          static_cast<double>(checkpoint_bytes) / nodes, "B"},
         {"dist.overhead_frac",
          (dist_t.runS - partitions.slowestWindowS) / dist_t.runS,
          "ratio"},
         {"dist.wire_bytes_per_chain",
          static_cast<double>(r.wireBytes) / n_chains, "B"},
         {"dist.wire_codec_us_per_chain", r.codecS * 1e6 / n_chains,
          "us"},
         {"trace.overhead_frac", overhead_s / best_untraced, "ratio"},
         {"trace.coverage_frac", coverage, "ratio"}},
        {{"digest", hex(ref_digest)},
         {"traced_digest", hex(traced_digest)},
         {"untraced_s", joined(untraced_s)},
         {"traced_s", joined(traced_s)},
         {"trace_overhead_s", std::to_string(overhead_s)},
         {"run_slot_calls", std::to_string(r.runSlot.count())},
         {"chains", std::to_string(chains)},
         {"slots", std::to_string(cfg.slotCount())}});
    return 0;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &w : kWorkloads)
        if (name == w.name)
            return &w;
    return nullptr;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload {forest_24h|rain_24h|"
                 "rain_mux3_dist} --seed N --seconds S --trace 0|1 "
                 "--out DIR [--chains C] [--slots T]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        if (key == "--workload")
            opt.workload = findWorkload(val);
        else if (key == "--seed")
            opt.seed = std::stoull(val);
        else if (key == "--seconds")
            opt.seconds = std::stod(val);
        else if (key == "--trace")
            opt.trace = val == "1";
        else if (key == "--out")
            opt.outDir = val;
        else if (key == "--chains")
            opt.chains = std::stoull(val);
        else if (key == "--slots")
            opt.slots = std::stoll(val);
        else
            return usage(argv[0]);
    }
    if (argc % 2 == 0 || opt.workload == nullptr || opt.slots < 4)
        return usage(argv[0]);
    std::error_code ec;
    fs::create_directories(opt.outDir, ec);
    try {
        return opt.trace ? runTraced(opt) : runUntraced(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
