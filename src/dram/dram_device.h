/**
 * @file
 * Channel-level DRAM device model.
 *
 * Owns the banks, rank-level timing, the shared data bus, the PRAC
 * counters, and the attached Rowhammer mitigation. The memory controller
 * issues commands through this class; the device verifies timing, applies
 * state changes and drives the mitigation hooks (ACT counting, RFM and
 * REF mitigation opportunities, ALERT_n with ABODelay gating).
 */
#ifndef QPRAC_DRAM_DRAM_DEVICE_H
#define QPRAC_DRAM_DRAM_DEVICE_H

#include <memory>
#include <vector>

#include "common/log.h"
#include "common/types.h"
#include "dram/address.h"
#include "dram/bank.h"
#include "dram/mitigation_iface.h"
#include "dram/prac_counters.h"
#include "dram/rank.h"
#include "dram/timing.h"

namespace qprac::obs {
class EventSink;
} // namespace qprac::obs

namespace qprac::dram {

/** Aggregate command counts for stats and the energy model. */
struct DeviceStats
{
    std::uint64_t acts = 0;
    std::uint64_t pres = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t refs = 0;
    std::uint64_t rfms = 0;

    void exportTo(StatSet& out, const std::string& prefix) const;

    /** Accumulate another channel's counters (cross-channel totals). */
    void add(const DeviceStats& o);
};

/**
 * One DRAM channel. A multi-channel Organization is accepted and
 * normalized to its per-channel slice (organization().channels == 1);
 * the MemorySystem shard layer instantiates one device per channel.
 * Every flat_bank is a per-channel id in [0, banksPerChannel()).
 */
class DramDevice
{
  public:
    /**
     * @param counter_update which row-cycle split banks run. With the
     *        default inline mode banks run the PRAC tRAS/tRP split and
     *        every ACT pays the counter RMW in its precharge. Queued
     *        mode reverts banks to the conventional split
     *        (tRAS_base/tRP_base); construction asserts that the RMW
     *        (tRP - tRP_base) fits in one conventional row cycle, so it
     *        always completes before the bank's next ACT.
     */
    DramDevice(const Organization& org, const TimingParams& timing,
               int blast_radius = 2,
               const CounterUpdateConfig& counter_update = {});

    /** Attach the in-DRAM mitigation (may be null = insecure baseline). */
    void setMitigation(RowhammerMitigation* mitigation);

    /** ABODelay in ACTs (paper Table I: equals Nmit). */
    void setAboDelay(int acts);

    /** Attach an event sink (nullptr = tracing off, the default). */
    void setEventSink(obs::EventSink* sink) { sink_ = sink; }

    const Organization& organization() const { return org_; }
    const TimingParams& timing() const { return t_; }
    /** The split banks actually run (== timing() in inline mode). */
    const TimingParams& bankTiming() const { return bank_t_; }
    PracCounters& pracCounters() { return counters_; }
    const PracCounters& pracCounters() const { return counters_; }

    /** Attached mitigation, with any pending ACT notifications flushed. */
    RowhammerMitigation*
    mitigation()
    {
        flushMitigationActs();
        return mitigation_;
    }

    /**
     * Deliver buffered ACT notifications to the mitigation in one
     * batched call. ACTs are accumulated per command-burst (issueAct
     * only appends) and flushed whenever mitigation state becomes
     * observable: RFM/REF dispatch, the mitigation() accessor, the
     * buffer filling, or an ALERT_n sample that a buffered ACT could
     * raise (see alertRiseThreshold(); samples no buffered count can
     * affect keep batching). Until then the per-ACT virtual call is
     * off the hot path.
     */
    void flushMitigationActs() const;

    Bank&
    bank(int flat_bank)
    {
        QP_ASSERT(flat_bank >= 0 && flat_bank < numBanks(),
                  "bank out of range");
        return banks_[static_cast<std::size_t>(flat_bank)];
    }
    const Bank&
    bank(int flat_bank) const
    {
        QP_ASSERT(flat_bank >= 0 && flat_bank < numBanks(),
                  "bank out of range");
        return banks_[static_cast<std::size_t>(flat_bank)];
    }
    int numBanks() const { return static_cast<int>(banks_.size()); }

    int rankOf(int flat_bank) const { return flat_bank / org_.banksPerRank(); }
    int bankgroupOf(int flat_bank) const;
    int bankIndexOf(int flat_bank) const; ///< index within the bank group

    // --- Command availability checks -----------------------------------
    bool canAct(int flat_bank, Cycle now) const;
    bool canPre(int flat_bank, Cycle now) const;
    bool canRead(int flat_bank, Cycle now) const;
    bool canWrite(int flat_bank, Cycle now) const;

    /** True when every bank in @p rank is precharged and unblocked. */
    bool rankIdle(int rank, Cycle now) const;

    // --- Event horizons (cycle-skipping engine) -------------------------
    // Each returns the earliest cycle the corresponding command *could*
    // satisfy the device-side timing constraints, assuming no further
    // commands are issued in between. They are conservative lower
    // bounds: the real issue cycle may be later (controller gates,
    // scheduling order), never earlier. kNeverCycle means "not until
    // some other command changes bank state first" (e.g. rankIdleAt of
    // a rank with an open bank).

    /** Earliest cycle an ACT to @p flat_bank could meet bank+rank timing. */
    Cycle actReadyAt(int flat_bank) const;

    /** Earliest cycle a PRE to @p flat_bank could meet bank timing. */
    Cycle preReadyAt(int flat_bank) const;

    /** Earliest cycle a RD to @p flat_bank could meet bank+rank+bus timing. */
    Cycle readReadyAt(int flat_bank) const;

    /** Earliest cycle a WR to @p flat_bank could meet bank+rank+bus timing. */
    Cycle writeReadyAt(int flat_bank) const;

    /**
     * Earliest cycle every bank in @p rank will satisfy idleAt(), or
     * kNeverCycle if some bank is open (closing it takes a PRE — an
     * event of its own).
     */
    Cycle rankIdleAt(int rank, Cycle now) const;

    // --- Command issue --------------------------------------------------
    /** Issue an ACT; increments PRAC and notifies the mitigation. */
    void issueAct(int flat_bank, int row, Cycle now);

    void issuePre(int flat_bank, Cycle now);

    /** Returns the cycle the read data is delivered. */
    Cycle issueRead(int flat_bank, Cycle now);

    /** Returns the cycle the write burst completes. */
    Cycle issueWrite(int flat_bank, Cycle now);

    /**
     * All-bank refresh of @p rank; banks blocked for tRFC and each bank
     * gets a proactive-mitigation opportunity in the REF shadow.
     */
    void issueRefresh(int rank, Cycle now);

    /**
     * RFM command. For AllBank the whole channel is blocked for tRFMab
     * and every bank receives a mitigation opportunity. For SameBank the
     * target bank-index across all bank groups of the alerting rank is
     * covered; for PerBank only the alerting bank.
     *
     * @param alert_bank flat bank whose tracker raised the alert (-1 if
     *        the RFM is controller-initiated, e.g. PrIDE/Mithril policy)
     * @return the cycle the RFM completes
     */
    Cycle issueRfm(RfmScope scope, int alert_bank, Cycle now);

    // --- Alert Back-Off -------------------------------------------------
    /** ALERT_n as seen by the controller (mitigation AND ABODelay gate). */
    bool alertAsserted() const;

    /** Called by the controller when an alert's RFMs have been issued. */
    void alertServiced(Cycle now);

    // --- Per-bank alert flow (isolated recovery policies) ---------------
    /**
     * @p bank's alert level: the mitigation's per-bank request gated by
     * that bank's own ABODelay accounting. Per-bank recovery
     * (ctrl/recovery) samples this instead of the channel-wide
     * alertAsserted(), so one bank's recovery neither masks nor resets
     * another bank's alert.
     */
    bool bankAlertAsserted(int bank) const;

    /**
     * Fast path for the per-bank recovery poll: true when the
     * mitigation wants an alert on *some* bank. One virtual call per
     * sample instead of one per bank; when false, no
     * bankAlertAsserted() can be true.
     */
    bool anyBankAlertRequested() const;

    /**
     * @p bank's recovery RFMs are done: restart that bank's ABODelay
     * gate (counted in ACTs *to that bank* — per-bank RAA accounting).
     */
    void bankAlertServiced(int bank, Cycle now);

    const DeviceStats& stats() const { return stats_; }

    // --- Metrics sampling accessors (obs time-series) -------------------
    /** Channel RAA proxy: ACTs since the last channel alert service. */
    std::uint64_t actsSinceAlertService() const
    {
        return acts_total_ - acts_at_last_service_;
    }

  private:
    Organization org_;
    TimingParams t_;
    /** Bank-facing timing: t_ verbatim in inline mode, the
     * conventional tRAS_base/tRP_base split otherwise. Banks hold a
     * reference to this member. */
    TimingParams bank_t_;
    PracCounters counters_;
    std::vector<Bank> banks_;
    std::vector<RankTiming> rank_timing_;
    RowhammerMitigation* mitigation_ = nullptr;
    obs::EventSink* sink_ = nullptr;

    /** ACT notifications not yet delivered to the mitigation. */
    mutable std::vector<ActEvent> act_batch_;
    static constexpr int kActBatchCapacity = 64;
    /** Cached RowhammerMitigation::alertRiseThreshold() (0 = none). */
    ActCount alert_rise_threshold_ = 0;
    /** Highest count currently buffered in act_batch_. */
    mutable ActCount batch_max_count_ = 0;

    /** Flush buffered ACTs iff one could raise the alert level. */
    void sampleFlush() const;

    Cycle data_bus_free_ = 0;
    int abo_delay_acts_ = 1;
    std::uint64_t acts_total_ = 0;
    std::uint64_t acts_at_last_service_ = 0;
    bool alert_ever_serviced_ = false;
    /** Per-bank ABODelay/RAA state (isolated recovery policies). */
    std::vector<std::uint64_t> acts_per_bank_;
    std::vector<std::uint64_t> bank_acts_at_service_;
    std::vector<char> bank_alert_serviced_;

    DeviceStats stats_;
};

} // namespace qprac::dram

#endif // QPRAC_DRAM_DRAM_DEVICE_H
