/**
 * @file
 * Vectorized slot-boundary kernel over a NodeShard.
 *
 * Node::beginSlotWithIncome advances one node's capacitor charge, RTC
 * and income-accrual state at a slot boundary.  For a chain built from
 * one node template (every ChainEngine is), the banking arithmetic is
 * the same straight-line float program per node, differing only in the
 * per-node state and income — a textbook lane-per-node SIMD shape.
 * ShardSlotKernel runs that program for a whole chain at once,
 * directly on the NodeShard's energy-state columns (node_soa.hh keeps
 * the capacitor / RTC / direct-budget state as contiguous double
 * columns, shared bit for bit with the scalar CapacitorView/RtcView
 * path):
 *
 *   - dense lanes (consecutive rows in order — every non-multiplexed
 *     chain): one fused column loop advances the shard columns *in
 *     place*, streaming each cell exactly once with no gather/scatter;
 *   - sparse lanes (multiplexed chains waking a row subset): the
 *     touched cells are gathered into tile-sized scratch columns
 *     (kTileLanes — small enough to live in L1/L2), run through the
 *     same compute pass, and scattered back.
 *
 * The compute loop replicates the scalar banking statements *in the
 * same per-lane order*; every `std::min` / clamp / branch becomes a
 * per-lane select, so each node's own floating-point operation order
 * is unchanged and the auto-vectorizer is free to run independent
 * lanes side by side — vectorizing *across* nodes never reassociates
 * *within* a node, which is what keeps the result bit-identical to
 * the scalar path (DESIGN.md, "Slot banking").
 *
 * The kernel covers all of beginSlotWithIncome: the banking arithmetic
 * (direct flush, gap window, slot window) in the column pass, then one
 * per-lane bookkeeping pass for the rest — income/slot scalar resets,
 * the pending-age ring shift with its stale discard, and the sensor
 * and radio power-failure resets (Node::rolloverSlotState's work, done
 * by row).  Rows are mutually independent, so running the two passes
 * lane after lane instead of node after node is order-safe.
 *
 * The kernel is the fleet's only slot-banking path; the scalar
 * Node::beginSlotWithIncome stays as the reference it is tested
 * against (tests/test_shard_kernel.cpp).
 */

#ifndef NEOFOG_NODE_SHARD_KERNEL_HH
#define NEOFOG_NODE_SHARD_KERNEL_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "energy/capacitor.hh"
#include "energy/frontend.hh"
#include "hw/rtc.hh"
#include "node/node_soa.hh"
#include "sim/types.hh"

namespace neofog {

/**
 * Chain-uniform constants of the slot banking program, hoisted out of
 * the per-lane loops.  All of these are pure functions of the node
 * template's configuration (every node of a chain shares them; only
 * per-node state and income vary lane to lane).
 */
struct ShardSlotKernelParams
{
    double capGainPerAmbient = 0; ///< FrontEnd::incomeToCap factor
    double directGain = 0;        ///< incomeToLoadDirect factor (FIOS)
    double harvestEfficiency = 0; ///< RTC income pre-scale
    double capCapacityJ = 0;      ///< main cap capacity
    double capLeakW = 0;          ///< main cap self-leakage
    double rtcPriority = 0;       ///< RTC charge-priority share
    double rtcCapacityJ = 0;      ///< RTC cap capacity
    double rtcLeakW = 0;          ///< RTC cap self-leakage
    double rtcDrawW = 0;          ///< continuous RTC draw
    bool fios = false;            ///< direct channel present
    /** Buffer bytes one stale package frees (Node::Config). */
    std::size_t rawPackageBytes = 0;

    /** Hoist the constants from one node's component configs. */
    static ShardSlotKernelParams fromConfigs(
        const SuperCapacitor::Config &cap, const Rtc::Config &rtc,
        const FrontEnd::Config &frontend, bool fios,
        std::size_t raw_package_bytes);
};

/**
 * Batch slot-boundary banking over a shard's rows (lane-per-node).
 * One instance per ChainEngine; the scratch columns persist across
 * slots so the hot loop never allocates.
 */
class ShardSlotKernel
{
  public:
    /** One lane of input: the row and its income integrals. */
    struct Lane
    {
        std::uint32_t row = 0;
        Tick gapTicks = 0;     ///< lastAccrual → slot_start (0 = none)
        double gapJoules = 0;  ///< ambient income over the gap window
        double slotJoules = 0; ///< ambient income over the slot window
    };

    explicit ShardSlotKernel(const ShardSlotKernelParams &params);

    /**
     * Advance every lane of @p lanes to @p slot_start, bit-identically
     * to calling Node::beginSlotWithIncome on each row.  Lanes may
     * cover any subset of the shard's rows; each row at most once per
     * call.
     */
    void run(NodeShard &shard, const std::vector<Lane> &lanes,
             Tick slot_start, Tick slot_length);

    /**
     * Lanes per tile of the sparse-lane fallback.  12 scratch columns
     * x 256 lanes x 8 B = 24 KiB — small enough that a tile's
     * gather/compute/scatter all hit cache, large enough that loop
     * overhead amortizes.  (Dense lanes compute in place and never
     * tile.)
     */
    static constexpr std::size_t kTileLanes = 256;

  private:
    void gather(NodeShard &shard, const std::vector<Lane> &lanes,
                std::size_t begin, std::size_t count);
    void scatter(NodeShard &shard, const std::vector<Lane> &lanes,
                 std::size_t begin, std::size_t count);

    ShardSlotKernelParams _p;

    // Scratch state columns for the sparse-lane fallback, one entry
    // per lane of the current tile (dense lanes compute in place on
    // the shard columns and never touch these).
    std::vector<double> _capStored;
    std::vector<double> _capCharged;
    std::vector<double> _capOverflow;
    std::vector<double> _capLeaked;
    std::vector<double> _rtcStored;
    std::vector<double> _rtcCharged;
    std::vector<double> _rtcOverflow;
    std::vector<double> _rtcLeaked;
    std::vector<double> _rtcDischarged;
    std::vector<double> _rtcSync;    ///< 1.0 synchronized, 0.0 not
    std::vector<double> _rtcDesyncs; ///< desync count (exact integer)
    std::vector<double> _direct;     ///< FIOS direct budget

    // Per-lane input columns (full lane count, both paths).
    std::vector<double> _gapJ;   ///< per-lane gap income
    std::vector<double> _slotJ;  ///< per-lane slot income
    std::vector<double> _gapSec; ///< per-lane gap duration
};

} // namespace neofog

#endif // NEOFOG_NODE_SHARD_KERNEL_HH
