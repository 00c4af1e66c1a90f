#include "node/shard_kernel.hh"

#include "sim/logging.hh"
#include "sim/units.hh"

namespace neofog {

/*
 * Bit-identity notes (see also DESIGN.md, "Slot banking").  Every loop below is the scalar banking program of
 * Node::beginSlotWithIncome with each library call inlined *in its
 * exact argument order*:
 *
 *  - SuperCapacitor::charge clamps, then `std::min(amount, room)`,
 *    which is `(room < amount) ? room : amount` — the selects below
 *    replicate that argument order, not a mathematically-equivalent
 *    variant (min(a,b) and min(b,a) differ on NaN and signed zeros).
 *  - SuperCapacitor::leak is `std::min(leakage*dt, stored)`, i.e.
 *    `(stored < loss) ? stored : loss`.
 *  - Rtc::advance on a dry cap drains `std::min(need, stored)`; at
 *    that point stored < need, so the drained amount is `stored`.
 *  - Lanes without a gap window run the gap loop with zero duration
 *    and zero income: charge(0)/leak(0)/tryDischarge(0) leave every
 *    field bit-unchanged (`x + 0.0 == x` for the non-negative,
 *    non-(-0.0) energies involved), which is exactly the scalar
 *    path's skipped branch.
 *
 * There is no cross-lane arithmetic anywhere: each column statement
 * reads and writes only lane i, so the compiler may run any number of
 * lanes side by side without reassociating any node's own op order.
 *
 * The compute loop is written for GCC's loop vectorizer, which bails
 * on two patterns the naive transcription produces:
 *
 *  - `x[i] = cond ? x[i] + v : x[i]` — the else-arm stores the value
 *    just loaded, so the compiler turns it into a *conditional store*
 *    (`if (cond) x[i] += v`) and then reports "control flow in loop".
 *    Every guarded update below is instead a select on the *addend*
 *    (`x += cond ? v : 0.0`), which stays an unconditional store.
 *    Adding +0.0 is bit-exact on these columns: they are energies and
 *    counters that are never -0.0 (they start at +0.0, grow by
 *    non-negative amounts, and shrink by `x - min(x, loss)`, which
 *    yields +0.0 even when it drains the column).
 *  - conditionally-executed FP arithmetic cannot be speculated under
 *    the default -ftrapping-math, so the guarded charge arms would
 *    also block if-conversion.  The build compiles this file with
 *    -fno-trapping-math (src/node/CMakeLists.txt): that flag only
 *    drops FP-exception-flag ordering — it licenses no
 *    value-changing transform, so scalar/vector bit-identity is
 *    unaffected.
 */

ShardSlotKernelParams
ShardSlotKernelParams::fromConfigs(const SuperCapacitor::Config &cap,
                                   const Rtc::Config &rtc,
                                   const FrontEnd::Config &frontend,
                                   bool fios,
                                   std::size_t raw_package_bytes)
{
    ShardSlotKernelParams p;
    p.capGainPerAmbient =
        frontend.harvestEfficiency * frontend.chargeEfficiency;
    p.directGain =
        frontend.harvestEfficiency * frontend.directEfficiency;
    p.harvestEfficiency = frontend.harvestEfficiency;
    p.capCapacityJ = cap.capacity.joules();
    p.capLeakW = cap.leakage.watts();
    p.rtcPriority = rtc.chargePriority;
    p.rtcCapacityJ = rtc.cap.capacity.joules();
    p.rtcLeakW = rtc.cap.leakage.watts();
    p.rtcDrawW = rtc.draw.watts();
    p.fios = fios;
    p.rawPackageBytes = raw_package_bytes;
    return p;
}

ShardSlotKernel::ShardSlotKernel(const ShardSlotKernelParams &params)
    : _p(params)
{
}

void
ShardSlotKernel::gather(NodeShard &shard, const std::vector<Lane> &lanes,
                        std::size_t begin, std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i) {
        const std::uint32_t r = lanes[begin + i].row;
        _capStored[i] = shard.capStoredJ[r];
        _capCharged[i] = shard.capChargedJ[r];
        _capOverflow[i] = shard.capOverflowJ[r];
        _capLeaked[i] = shard.capLeakedJ[r];
        _rtcStored[i] = shard.rtcStoredJ[r];
        _rtcCharged[i] = shard.rtcChargedJ[r];
        _rtcOverflow[i] = shard.rtcOverflowJ[r];
        _rtcLeaked[i] = shard.rtcLeakedJ[r];
        _rtcDischarged[i] = shard.rtcDischargedJ[r];
        _rtcSync[i] = shard.rtcSync[r];
        _rtcDesyncs[i] = shard.rtcDesyncs[r];
        _direct[i] = shard.directBudgetJ[r];
    }
}

void
ShardSlotKernel::scatter(NodeShard &shard, const std::vector<Lane> &lanes,
                         std::size_t begin, std::size_t count)
{
    for (std::size_t i = 0; i < count; ++i) {
        const std::uint32_t r = lanes[begin + i].row;
        shard.capStoredJ[r] = _capStored[i];
        shard.capChargedJ[r] = _capCharged[i];
        shard.capOverflowJ[r] = _capOverflow[i];
        shard.capLeakedJ[r] = _capLeaked[i];
        shard.rtcStoredJ[r] = _rtcStored[i];
        shard.rtcChargedJ[r] = _rtcCharged[i];
        shard.rtcOverflowJ[r] = _rtcOverflow[i];
        shard.rtcLeakedJ[r] = _rtcLeaked[i];
        shard.rtcDischargedJ[r] = _rtcDischarged[i];
        shard.rtcSync[r] = _rtcSync[i];
        shard.rtcDesyncs[r] = _rtcDesyncs[i];
        shard.directBudgetJ[r] = _direct[i];
    }
}

namespace {

/**
 * The fused compute pass over the gathered columns.  A free function
 * because GCC only honors `__restrict` on *parameters*: with plain
 * member-vector pointers the vectorizer needs 100+ runtime alias
 * checks, far past --param vect-max-version-for-alias-checks, and
 * gives up.  The restrict qualifiers assert what the callers
 * guarantee — fifteen distinct column allocations (the shard's state
 * columns plus the staged inputs on the dense path, the scratch tiles
 * on the sparse path).  Templated on the FIOS flag
 * because a select on a loop-invariant scalar bool (`fios ? x : 0.0`)
 * is not a vectorizable operation either — `if constexpr` removes it.
 * Templated on kGap too: when no lane has a gap window (every chain
 * at mux 1 after its first slot), the gap phase is the scalar path's
 * skipped branch for every lane, so it is left out altogether — a
 * third of each lane's dependent chain of float ops.
 */
template <bool kFios, bool kGap>
void
computeLanes(double *__restrict cap_stored,
             double *__restrict cap_charged,
             double *__restrict cap_overflow,
             double *__restrict cap_leaked,
             double *__restrict rtc_stored,
             double *__restrict rtc_charged,
             double *__restrict rtc_overflow,
             double *__restrict rtc_leaked,
             double *__restrict rtc_discharged,
             double *__restrict rtc_sync,
             double *__restrict rtc_desyncs,
             double *__restrict direct,
             const double *__restrict gap_j,
             const double *__restrict slot_j,
             const double *__restrict gap_sec,
             const ShardSlotKernelParams &p, double slot_sec,
             std::size_t n)
{
    const double cap_gain = p.capGainPerAmbient;
    const double direct_gain = p.directGain;
    const double harvest_eff = p.harvestEfficiency;
    const double cap_capacity = p.capCapacityJ;
    const double cap_leak_w = p.capLeakW;
    const double rtc_priority = p.rtcPriority;
    const double rtc_capacity = p.rtcCapacityJ;
    const double rtc_leak_w = p.rtcLeakW;
    const double rtc_draw_w = p.rtcDrawW;

    // One fused pass: flush, gap window, slot window.  The three
    // phases are sequential *per lane* and touch no other lane, so
    // fusing them preserves the scalar statement order while reading
    // and writing every column exactly once.  All lane state lives in
    // locals between the loads at the top and the stores at the
    // bottom; every guard is a select on the amount being applied
    // (never on the store), so the loop body is a single straight-line
    // block the vectorizer can lay out lane-parallel.
    for (std::size_t i = 0; i < n; ++i) {
        double cs = cap_stored[i];
        double cc = cap_charged[i];
        double co = cap_overflow[i];
        double cl = cap_leaked[i];
        double rs = rtc_stored[i];
        double rc = rtc_charged[i];
        double ro = rtc_overflow[i];
        double rl = rtc_leaked[i];
        double rd = rtc_discharged[i];
        double sync = rtc_sync[i];
        double dz = rtc_desyncs[i];

        // 1. Direct-budget flush: unused FIOS direct income from the
        //    last slot flows into the capacitor through the charge
        //    path — SuperCapacitor::charge in registers.  A zero
        //    charge is the bit-exact no-op of the scalar skipped
        //    branch (header comment), so the guard masks the amount,
        //    not the store.  (The budget column itself is rewritten
        //    by the slot window below.)
        const double budget = direct[i];
        const double fin =
            budget > 0.0 ? (budget / direct_gain) * cap_gain : 0.0;
        const double famt = fin < 0.0 ? 0.0 : fin;
        const double froom = cap_capacity - cs;
        const double facc = froom < famt ? froom : famt;
        cs += facc;
        cc += facc;
        co += famt - facc;

        if constexpr (kGap) {
            // 2. Gap window (multiplexed nodes sleep through slots).
            //    Lanes without a gap run with zero duration/income — a
            //    bit-exact no-op (see the header comment).
            const double g = gap_j[i];
            const double gsec = gap_sec[i];
            const double gap_share = g * rtc_priority;
            // rtc.advance(gap, share * harvestEff):  charge ...
            const double grin = gap_share * harvest_eff;
            const double gramt = grin < 0.0 ? 0.0 : grin;
            const double grroom = rtc_capacity - rs;
            const double gracc = grroom < gramt ? grroom : gramt;
            rs += gracc;
            rc += gracc;
            ro += gramt - gracc;
            // ... leak ...
            const double grlk = rtc_leak_w * gsec;
            const double grloss = rs < grlk ? rs : grlk;
            rs -= grloss;
            rl += grloss;
            // ... draw (drain + desync when the cap runs dry).
            const double gneed_raw = rtc_draw_w * gsec;
            const double gneed = gneed_raw < 0.0 ? 0.0 : gneed_raw;
            const bool gok = !(rs < gneed);
            const double gremoved = gok ? gneed : rs;
            rs -= gremoved;
            rd += gremoved;
            const double gwas = sync;
            sync = gok ? gwas : 0.0;
            dz += (!gok && gwas != 0.0) ? 1.0 : 0.0;
            // cap.charge(incomeToCap(gap - share)); cap.leak(gap).
            const double gcin = (g - gap_share) * cap_gain;
            const double gcamt = gcin < 0.0 ? 0.0 : gcin;
            const double gcroom = cap_capacity - cs;
            const double gcacc = gcroom < gcamt ? gcroom : gcamt;
            cs += gcacc;
            cc += gcacc;
            co += gcamt - gcacc;
            const double gclk = cap_leak_w * gsec;
            const double gcloss = cs < gclk ? cs : gclk;
            cs -= gcloss;
            cl += gcloss;
        }

        // 3. Slot window: bank the slot's income (direct channel for
        //    FIOS, charge path otherwise) and keep the RTC alive.
        const double a = slot_j[i];
        const double slot_share = a * rtc_priority;
        const double srin = slot_share * harvest_eff;
        const double sramt = srin < 0.0 ? 0.0 : srin;
        const double srroom = rtc_capacity - rs;
        const double sracc = srroom < sramt ? srroom : sramt;
        rs += sracc;
        rc += sracc;
        ro += sramt - sracc;
        const double srlk = rtc_leak_w * slot_sec;
        const double srloss = rs < srlk ? rs : srlk;
        rs -= srloss;
        rl += srloss;
        const double sneed_raw = rtc_draw_w * slot_sec;
        const double sneed = sneed_raw < 0.0 ? 0.0 : sneed_raw;
        const bool sok = !(rs < sneed);
        const double sremoved = sok ? sneed : rs;
        rs -= sremoved;
        rd += sremoved;
        const double swas = sync;
        sync = sok ? swas : 0.0;
        dz += (!sok && swas != 0.0) ? 1.0 : 0.0;
        // FIOS banks through the direct channel, others through the
        // charge path; the off arm charges zero (bit-exact no-op).
        const double usable = a - slot_share;
        const double scin = kFios ? 0.0 : usable * cap_gain;
        const double scamt = scin < 0.0 ? 0.0 : scin;
        const double scroom = cap_capacity - cs;
        const double scacc = scroom < scamt ? scroom : scamt;
        cs += scacc;
        cc += scacc;
        co += scamt - scacc;
        const double direct_out = kFios ? usable * direct_gain : 0.0;
        const double sclk = cap_leak_w * slot_sec;
        const double scloss = cs < sclk ? cs : sclk;
        cs -= scloss;
        cl += scloss;

        cap_stored[i] = cs;
        cap_charged[i] = cc;
        cap_overflow[i] = co;
        cap_leaked[i] = cl;
        rtc_stored[i] = rs;
        rtc_charged[i] = rc;
        rtc_overflow[i] = ro;
        rtc_leaked[i] = rl;
        rtc_discharged[i] = rd;
        rtc_sync[i] = sync;
        rtc_desyncs[i] = dz;
        direct[i] = direct_out;
    }
}

} // namespace

void
ShardSlotKernel::run(NodeShard &shard, const std::vector<Lane> &lanes,
                     Tick slot_start, Tick slot_length)
{
    NEOFOG_ASSERT(slot_length > 0, "slot length must be positive");
    const std::size_t n = lanes.size();
    if (n == 0)
        return;

    // Stage the per-lane inputs as contiguous columns and detect the
    // common dense shape (lanes covering consecutive rows in order —
    // every non-multiplexed chain, and the fleet/micro benches).
    _gapJ.resize(n);
    _slotJ.resize(n);
    _gapSec.resize(n);
    const std::uint32_t row0 = lanes[0].row;
    bool dense = true;
    bool any_gap = false;
    for (std::size_t i = 0; i < n; ++i) {
        const Lane &lane = lanes[i];
        NEOFOG_ASSERT(shard.lastAccrual[lane.row] + lane.gapTicks ==
                          slot_start,
                      "kernel lane gap must close exactly at slot start");
        _gapJ[i] = lane.gapJoules;
        _slotJ[i] = lane.slotJoules;
        // (A gapless lane's duration is +0.0 either way; skipping the
        // division keeps mux-1 staging cheap.)
        _gapSec[i] = lane.gapTicks != 0 ? secondsFromTicks(lane.gapTicks)
                                        : 0.0;
        dense = dense && lane.row == row0 + i;
        any_gap = any_gap || lane.gapTicks != 0;
    }

    const auto compute = _p.fios
        ? (any_gap ? computeLanes<true, true> : computeLanes<true, false>)
        : (any_gap ? computeLanes<false, true> : computeLanes<false, false>);
    const double slot_sec = secondsFromTicks(slot_length);
    if (dense) {
        // In-place fast path: the shard's state columns ARE the kernel
        // columns, so the banking pass streams them once with no
        // gather/scatter round trip.
        compute(&shard.capStoredJ[row0], &shard.capChargedJ[row0],
                &shard.capOverflowJ[row0], &shard.capLeakedJ[row0],
                &shard.rtcStoredJ[row0], &shard.rtcChargedJ[row0],
                &shard.rtcOverflowJ[row0], &shard.rtcLeakedJ[row0],
                &shard.rtcDischargedJ[row0], &shard.rtcSync[row0],
                &shard.rtcDesyncs[row0], &shard.directBudgetJ[row0],
                _gapJ.data(), _slotJ.data(), _gapSec.data(), _p,
                slot_sec, n);
    } else {
        // Sparse lanes (multiplexed chains waking a row subset):
        // gather the touched rows' cells into tile-sized scratch
        // columns, run the same compute pass, and scatter back.  The
        // cells are 8-byte doubles out of contiguous columns, so even
        // this path moves only what the arithmetic needs.
        const std::size_t width = n < kTileLanes ? n : kTileLanes;
        _capStored.resize(width);
        _capCharged.resize(width);
        _capOverflow.resize(width);
        _capLeaked.resize(width);
        _rtcStored.resize(width);
        _rtcCharged.resize(width);
        _rtcOverflow.resize(width);
        _rtcLeaked.resize(width);
        _rtcDischarged.resize(width);
        _rtcSync.resize(width);
        _rtcDesyncs.resize(width);
        _direct.resize(width);
        for (std::size_t begin = 0; begin < n; begin += kTileLanes) {
            const std::size_t count =
                n - begin < kTileLanes ? n - begin : kTileLanes;
            gather(shard, lanes, begin, count);
            compute(_capStored.data(), _capCharged.data(),
                    _capOverflow.data(), _capLeaked.data(),
                    _rtcStored.data(), _rtcCharged.data(),
                    _rtcOverflow.data(), _rtcLeaked.data(),
                    _rtcDischarged.data(), _rtcSync.data(),
                    _rtcDesyncs.data(), _direct.data(),
                    _gapJ.data() + begin, _slotJ.data() + begin,
                    _gapSec.data() + begin, _p, slot_sec, count);
            scatter(shard, lanes, begin, count);
        }
    }

    // Slot bookkeeping for every lane: the non-FP resets, the income
    // memo, the harvested totals, then the rollover — the work of
    // Node::rolloverSlotState, by row.  harvestedTotal accumulates gap
    // then slot income as two separate adds, in the scalar statement
    // order (the total never feeds back into the banking arithmetic,
    // so deferring it past the compute pass cannot change any bit).
    const Tick slot_end = slot_start + slot_length;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t r = lanes[i].row;
        NodeStats &st = shard.stats[r];
        st.harvestedTotal += Energy::fromJoules(_gapJ[i]);
        st.harvestedTotal += Energy::fromJoules(_slotJ[i]);
        shard.lastIncome[r] = Power::fromWatts(_slotJ[i] / slot_sec);
        shard.slotCostsValid[r] = 0;
        shard.lastAccrual[r] = slot_end;
        shard.slotStart[r] = slot_start;
        shard.slotLength[r] = slot_length;
        shard.slotTimeUsed[r] = 0;
        shard.awake[r] = 0;
        shard.rfInitializedThisSlot[r] = 0;

        // Age the pending queue one slot; what falls off the end is
        // past its freshness deadline and is discarded.
        int *const ages = shard.pendingAge.data() + shard.pendingOffset[r];
        const std::size_t depth = shard.pendingDepth[r];
        const int stale = ages[depth - 1];
        for (std::size_t a = depth - 1; a > 0; --a)
            ages[a] = ages[a - 1];
        ages[0] = 0;
        if (stale > 0) {
            shard.pendingPackages[r] -= stale;
            shard.buffer[r].pop(static_cast<std::size_t>(stale) *
                                _p.rawPackageBytes);
            st.samplesDiscarded.increment(
                static_cast<std::uint64_t>(stale));
        }

        // Power cycle: volatile peripherals lose their configuration.
        shard.sensor[r].onPowerFailure();
        shard.rf[r]->onPowerFailure();
    }
}

} // namespace neofog
