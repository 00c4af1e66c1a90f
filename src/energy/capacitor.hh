/**
 * @file
 * Super-capacitor energy storage model.
 *
 * Every NEOFog node stores harvested energy in a super-capacitor (two,
 * actually: a small dedicated one keeps the RTC alive; see Rtc).  The
 * model tracks stored energy directly in joules with a capacity cap,
 * self-leakage, and accounting of energy rejected when full — the
 * "capacitor was frequently full, further energy was rejected" effect
 * that Fig 9 of the paper visualizes.
 */

#ifndef NEOFOG_ENERGY_CAPACITOR_HH
#define NEOFOG_ENERGY_CAPACITOR_HH

#include <string_view>

#include "sim/types.hh"
#include "sim/units.hh"

namespace neofog {

/**
 * A leaky, bounded energy store.
 */
class SuperCapacitor
{
  public:
    struct Config
    {
        /** Usable energy capacity. */
        Energy capacity = Energy::fromMillijoules(600.0);
        /** Initial stored energy. */
        Energy initial = Energy::zero();
        /** Constant self-discharge power. */
        Power leakage = Power::fromMicrowatts(15.0);

        /** Snapshot support (see src/snapshot/). */
        template <class Archive>
        void
        serialize(Archive &ar)
        {
            ar.io("capacity", capacity);
            ar.io("initial", initial);
            ar.io("leakage", leakage);
        }
    };

    explicit SuperCapacitor(const Config &cfg);

    /** Currently stored energy. */
    Energy stored() const { return _stored; }

    /** Capacity limit. */
    Energy capacity() const { return _cfg.capacity; }

    /** Stored energy as a fraction of capacity, in [0,1]. */
    double fillFraction() const
    { return _stored.joules() / _cfg.capacity.joules(); }

    /**
     * Add energy; amounts beyond capacity are rejected and counted.
     * @return Energy actually accepted.
     */
    Energy charge(Energy amount);

    /**
     * Remove energy if fully available.
     * @return true and deducts if stored() >= amount, else false with no
     *         state change.
     */
    bool tryDischarge(Energy amount);

    /**
     * Remove up to @p amount, draining to zero if necessary.
     * @return Energy actually removed.
     */
    Energy drain(Energy amount);

    /** Apply self-leakage for an elapsed duration. */
    void leak(Tick duration);

    /** Whether at least @p amount is available. */
    bool has(Energy amount) const { return _stored >= amount; }

    /** Set stored energy directly (testing / scenario setup). */
    void setStored(Energy e);

    /** Cumulative energy rejected because the capacitor was full. */
    Energy overflowTotal() const { return _overflowTotal; }

    /** Cumulative energy lost to self-leakage. */
    Energy leakedTotal() const { return _leakedTotal; }

    /** Cumulative energy accepted by charge(). */
    Energy chargedTotal() const { return _chargedTotal; }

    /** Cumulative energy removed by discharge/drain. */
    Energy dischargedTotal() const { return _dischargedTotal; }

    /** Snapshot support: stored level plus lifetime accounting. */
    template <class Archive>
    void
    serialize(Archive &ar)
    {
        ar.io("stored", _stored);
        ar.io("overflow_total", _overflowTotal);
        ar.io("leaked_total", _leakedTotal);
        ar.io("charged_total", _chargedTotal);
        ar.io("discharged_total", _dischargedTotal);
    }

  private:
    Config _cfg; // neofog-lint: allow(snapshot): construction-time configuration, rebuilt from the scenario on resume (only the stored level and lifetime accounting mutate)
    Energy _stored;
    Energy _overflowTotal;
    Energy _leakedTotal;
    Energy _chargedTotal;
    Energy _dischargedTotal;
};

/**
 * Row view over a shard's main-capacitor state columns.
 *
 * A NodeShard (node_soa.hh) stores the kernel-hot capacitor state as
 * contiguous double columns (joules) rather than embedded
 * SuperCapacitor objects, so the column slot kernel can advance the
 * columns in place without gathering whole objects.  CapacitorView is
 * the scalar-side facade over one row of those columns: the same
 * public API as SuperCapacitor, with every mutator replicating the
 * class's arithmetic statement for statement (same std::min argument
 * order, same clamp) — the scalar banking path runs through views
 * while ShardSlotKernel advances the identical columns lane-parallel,
 * and the bit-identity contract (tests/test_shard_kernel.cpp) holds
 * only if both sides execute the same floating-point program.
 *
 * Views are cheap value types: five cell pointers plus the config.
 * The config reference must outlive the view (it lives in the owning
 * Node's Config).
 */
class CapacitorView
{
  public:
    CapacitorView(const SuperCapacitor::Config &cfg, double &stored,
                  double &charged_total, double &overflow_total,
                  double &leaked_total, double &discharged_total)
        : _cfg(&cfg), _stored(&stored), _chargedTotal(&charged_total),
          _overflowTotal(&overflow_total), _leakedTotal(&leaked_total),
          _dischargedTotal(&discharged_total)
    {
    }

    /** Currently stored energy. */
    Energy stored() const { return Energy::fromJoules(*_stored); }

    /** Capacity limit. */
    Energy capacity() const { return _cfg->capacity; }

    /** Stored energy as a fraction of capacity, in [0,1]. */
    double fillFraction() const
    { return *_stored / _cfg->capacity.joules(); }

    /**
     * Add energy; amounts beyond capacity are rejected and counted.
     * @return Energy actually accepted.
     */
    Energy charge(Energy amount);

    /**
     * Remove energy if fully available.
     * @return true and deducts if stored() >= amount, else false with
     *         no state change.
     */
    bool tryDischarge(Energy amount);

    /**
     * Remove up to @p amount, draining to zero if necessary.
     * @return Energy actually removed.
     */
    Energy drain(Energy amount);

    /** Apply self-leakage for an elapsed duration. */
    void leak(Tick duration);

    /** Whether at least @p amount is available. */
    bool has(Energy amount) const { return *_stored >= amount.joules(); }

    /** Set stored energy directly (testing / scenario setup). */
    void setStored(Energy e);

    /** Cumulative energy rejected because the capacitor was full. */
    Energy overflowTotal() const
    { return Energy::fromJoules(*_overflowTotal); }

    /** Cumulative energy lost to self-leakage. */
    Energy leakedTotal() const
    { return Energy::fromJoules(*_leakedTotal); }

    /** Cumulative energy accepted by charge(). */
    Energy chargedTotal() const
    { return Energy::fromJoules(*_chargedTotal); }

    /** Cumulative energy removed by discharge/drain. */
    Energy dischargedTotal() const
    { return Energy::fromJoules(*_dischargedTotal); }

    /** Snapshot support: SuperCapacitor's exact wire keys and types. */
    template <class Archive>
    void
    serialize(Archive &ar)
    {
        ioJoules(ar, "stored", *_stored);
        ioJoules(ar, "overflow_total", *_overflowTotal);
        ioJoules(ar, "leaked_total", *_leakedTotal);
        ioJoules(ar, "charged_total", *_chargedTotal);
        ioJoules(ar, "discharged_total", *_dischargedTotal);
    }

  private:
    /** Archive one cell under SuperCapacitor's Energy wire type. */
    template <class Archive>
    static void
    ioJoules(Archive &ar, std::string_view key, double &cell)
    {
        Energy v = Energy::fromJoules(cell);
        ar.io(key, v);
        cell = v.joules();
    }

    const SuperCapacitor::Config *_cfg;
    double *_stored;
    double *_chargedTotal;
    double *_overflowTotal;
    double *_leakedTotal;
    double *_dischargedTotal;
};

} // namespace neofog

#endif // NEOFOG_ENERGY_CAPACITOR_HH
