/**
 * @file
 * google-benchmark microbenchmarks for the library's hot kernels:
 * the Algorithm 1 DP (O(n*MAXTIME) scaling), the FFT,
 * the compressor, and a full FogSystem slot loop — plus a hand-timed
 * capacitor-update micro section comparing the scalar slot-boundary
 * banking path (Node::beginSlotWithIncome) against the vectorized
 * ShardSlotKernel on one shard, reported in ns/node-slot and written
 * to BENCH_micro_kernels.json (scripts/bench-trend gates the speedup).
 *
 * Options:
 *   --smoke   run only the capacitor micro section at a shrunk size,
 *             then validate the emitted JSON (the CI gate mode);
 *             everything else is forwarded to google-benchmark.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include "balance/assignment.hh"
#include "bench_util.hh"
#include "energy/power_trace.hh"
#include "fog/fog_system.hh"
#include "fog/presets.hh"
#include "kernels/compress.hh"
#include "kernels/fft.hh"
#include "kernels/signal_gen.hh"
#include "node/node.hh"
#include "node/shard_kernel.hh"
#include "sim/report_io.hh"
#include "sim/rng.hh"

using namespace neofog;
using namespace neofog::bench;

namespace {

void
BM_Algorithm1(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto max_time = state.range(1);
    Rng rng(7);
    std::vector<std::int64_t> a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
        a[i] = rng.uniformInt(1, 10);
        b[i] = rng.uniformInt(1, 10);
    }
    for (auto _ : state) {
        auto r = assignTasks(a, b, max_time);
        benchmark::DoNotOptimize(r);
    }
    state.SetComplexityN(static_cast<std::int64_t>(n) * max_time);
}
BENCHMARK(BM_Algorithm1)
    ->Args({8, 64})
    ->Args({32, 256})
    ->Args({128, 1024})
    ->Args({512, 4096})
    ->Complexity(benchmark::oN);

void
BM_Fft(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(3);
    auto sig = kernels::bridgeVibration(rng, n, 100.0, 1.2);
    for (auto _ : state) {
        auto spec = kernels::magnitudeSpectrum(sig);
        benchmark::DoNotOptimize(spec);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(n) *
                            state.iterations());
}
BENCHMARK(BM_Fft)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384);

void
BM_Compress(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng(5);
    const auto sig = kernels::temperatureSignal(rng, n / 2, 20.0, 8.0);
    const auto bytes = kernels::quantize16(sig, -40.0, 85.0);
    for (auto _ : state) {
        auto out = kernels::compress(bytes);
        benchmark::DoNotOptimize(out);
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(bytes.size()) *
                            state.iterations());
}
BENCHMARK(BM_Compress)->Arg(1024)->Arg(16384)->Arg(65536);

void
BM_FogSystemSlotLoop(benchmark::State &state)
{
    const auto nodes = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        ScenarioConfig cfg =
            presets::fig10(presets::fiosNeofog(), 0);
        cfg.nodesPerChain = 10;
        cfg.chains = nodes / 10;
        cfg.horizon = 30 * kMin;
        FogSystem sys(cfg);
        auto r = sys.run();
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(nodes) * 150 * state.iterations());
}
BENCHMARK(BM_FogSystemSlotLoop)->Arg(10)->Arg(100)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// Capacitor-update micro: scalar banking vs the vectorized shard
// kernel, head to head on one chain-shaped shard.
// ---------------------------------------------------------------------

/** One shard of FIOS nodes on scaled constant income (chain shape). */
struct MicroShard
{
    NodeShard shard;
    std::vector<std::unique_ptr<Node>> nodes;
};

void
buildMicroShard(MicroShard &m, std::size_t rows)
{
    m.shard.reserveRows(rows, 1);
    m.nodes.reserve(rows);
    Rng rng(20260808);
    for (std::size_t i = 0; i < rows; ++i) {
        Node::Config cfg;
        cfg.id = static_cast<std::uint32_t>(i);
        cfg.mode = OperatingMode::FiosNvMote;
        auto trace = std::make_unique<ConstantTrace>(
            Power::fromMilliwatts(2.2 * rng.uniform(0.5, 1.5)));
        m.nodes.push_back(std::make_unique<Node>(
            cfg, std::move(trace), rng.fork(), m.shard));
    }
}

/**
 * Per-row end state the banking arithmetic touches; two shards that
 * executed the same slots must agree on every field bit for bit.
 */
bool
shardsIdentical(const MicroShard &a, const MicroShard &b)
{
    for (std::size_t i = 0; i < a.nodes.size(); ++i) {
        const Node &x = *a.nodes[i];
        const Node &y = *b.nodes[i];
        const bool same =
            x.capacitor().stored() == y.capacitor().stored() &&
            x.capacitor().chargedTotal() ==
                y.capacitor().chargedTotal() &&
            x.capacitor().overflowTotal() ==
                y.capacitor().overflowTotal() &&
            x.capacitor().leakedTotal() == y.capacitor().leakedTotal() &&
            x.rtc().desyncCount() == y.rtc().desyncCount() &&
            x.lastSlotIncome() == y.lastSlotIncome() &&
            x.lastAccrualTime() == y.lastAccrualTime() &&
            x.stats().harvestedTotal == y.stats().harvestedTotal;
        if (!same)
            return false;
    }
    return true;
}

/**
 * Run @p slots consecutive slot boundaries over @p m and return the
 * wall-clock seconds.  @p first_slot keeps repeated timings advancing
 * (both paths must see the same boundary times to stay comparable).
 */
template <class Step>
double
timeSlots(std::int64_t first_slot, std::int64_t slots, Tick slot_len,
          Step &&step)
{
    const auto start = std::chrono::steady_clock::now();
    for (std::int64_t s = first_slot; s < first_slot + slots; ++s)
        step(static_cast<Tick>(s) * slot_len);
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Re-read the emitted JSON and check it against the schema. */
int
validateSink(const ResultSink &sink)
{
    std::ifstream in(sink.path());
    if (!in) {
        err("micro_kernels: cannot re-read %s\n", sink.path().c_str());
        return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    try {
        const auto doc = report_io::parseJson(text.str());
        const std::string schema_err = report_io::validateBenchJson(doc);
        if (!schema_err.empty()) {
            err("micro_kernels: schema violation: %s\n",
                schema_err.c_str());
            return 1;
        }
    } catch (const FatalError &e) {
        err("micro_kernels: emitted invalid JSON: %s\n", e.what());
        return 1;
    }
    out("micro_kernels: %s validates against neofog-bench-v1\n",
        sink.path().c_str());
    return 0;
}

int
runCapacitorMicro(bool smoke)
{
    const std::size_t rows = smoke ? 4'096 : 16'384;
    const std::int64_t slots = smoke ? 64 : 128;
    const int reps = 3;
    const Tick slot_len = 12 * kSec;

    header("Capacitor update: scalar banking vs vectorized shard "
           "kernel (" +
           std::to_string(rows) + " nodes x " + std::to_string(slots) +
           " slots x " + std::to_string(reps) + " reps)");

    // Two identically built shards: one advanced by the per-node
    // scalar path, one by the kernel.  Rep r of each path executes the
    // same slot boundaries, so the end states must match bit for bit.
    MicroShard scalar_shard;
    MicroShard kernel_shard;
    buildMicroShard(scalar_shard, rows);
    buildMicroShard(kernel_shard, rows);

    // Constant traces make every slot's income integral the same
    // Energy, so it is computed once per node here.
    std::vector<Energy> slot_income;
    slot_income.reserve(rows);
    for (const auto &n : scalar_shard.nodes)
        slot_income.push_back(n->trace().integrate(0, slot_len));

    const ShardSlotKernelParams params = ShardSlotKernelParams::fromConfigs(
        kernel_shard.nodes.front()->config().cap,
        kernel_shard.nodes.front()->config().rtc,
        kernel_shard.nodes.front()->frontend().config(),
        /*fios=*/true, kernel_shard.nodes.front()->config().rawPackageBytes);
    ShardSlotKernel kernel(params);
    std::vector<ShardSlotKernel::Lane> lanes(rows);
    for (std::size_t i = 0; i < rows; ++i) {
        lanes[i].row = kernel_shard.nodes[i]->shardRow();
        lanes[i].slotJoules = slot_income[i].joules();
    }

    // Consecutive boundaries (no gap windows): the pure banking
    // arithmetic, the loop the fleet sweep spends its time in.  Best
    // of `reps` per path; both paths advance through the same total
    // slot range so the final cross-check stays meaningful.
    double scalar_best = 0.0;
    double kernel_best = 0.0;
    for (int r = 0; r < reps; ++r) {
        const std::int64_t first = r * slots;
        const double scalar_secs =
            timeSlots(first, slots, slot_len, [&](Tick t) {
                for (std::size_t i = 0; i < rows; ++i)
                    scalar_shard.nodes[i]->beginSlotWithIncome(
                        t, slot_len, Energy::zero(), slot_income[i]);
            });
        const double kernel_secs =
            timeSlots(first, slots, slot_len, [&](Tick t) {
                kernel.run(kernel_shard.shard, lanes, t, slot_len);
            });
        scalar_best = r == 0 ? scalar_secs
                             : std::min(scalar_best, scalar_secs);
        kernel_best = r == 0 ? kernel_secs
                             : std::min(kernel_best, kernel_secs);
    }

    const bool identical = shardsIdentical(scalar_shard, kernel_shard);
    const double node_slots =
        static_cast<double>(rows) * static_cast<double>(slots);
    const double scalar_ns = scalar_best * 1e9 / node_slots;
    const double kernel_ns = kernel_best * 1e9 / node_slots;

    Table t({26, 18, 10});
    t.row({"Path", "ns/node-slot", "Speedup"});
    t.separator();
    t.row({"scalar beginSlot", fmt(scalar_ns, 1), "1.00x"});
    t.row({"vectorized shard kernel", fmt(kernel_ns, 1),
           fmt(scalar_ns / kernel_ns, 2) + "x"});
    out("\nend states bit-identical: %s\n", identical ? "yes" : "NO");

    ResultSink sink("micro_kernels");
    sink.add("capacitor_rows", static_cast<double>(rows));
    sink.add("capacitor_slots",
             static_cast<double>(slots) * static_cast<double>(reps));
    sink.add("capacitor_scalar_ns_per_node_slot", scalar_ns);
    sink.add("capacitor_simd_ns_per_node_slot", kernel_ns);
    sink.add("capacitor_simd_speedup", scalar_ns / kernel_ns);
    sink.add("capacitor_identical", identical ? 1.0 : 0.0);
    if (smoke)
        sink.note("mode", "smoke");
    if (!identical) {
        err("micro_kernels: shard kernel diverged from the scalar "
            "banking path\n");
        return 1;
    }
    if (!sink.write())
        return 1;
    return smoke ? validateSink(sink) : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::vector<char *> bench_args;
    bench_args.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0)
            smoke = true;
        else
            bench_args.push_back(argv[i]);
    }
    // Smoke mode is the CI gate: only the hand-timed micro section
    // (with its JSON sink + schema check) runs.  The google-benchmark
    // suite is the default interactive mode.
    if (!smoke) {
        int bench_argc = static_cast<int>(bench_args.size());
        benchmark::Initialize(&bench_argc, bench_args.data());
        if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                                   bench_args.data()))
            return 2;
        benchmark::RunSpecifiedBenchmarks();
        benchmark::Shutdown();
    }
    return runCapacitorMicro(smoke);
}
