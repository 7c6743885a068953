#include "dram/dram_device.h"

#include <algorithm>

#include "common/log.h"
#include "obs/obs.h"

namespace qprac::dram {

void
DeviceStats::exportTo(StatSet& out, const std::string& prefix) const
{
    out.set(prefix + "acts", static_cast<double>(acts));
    out.set(prefix + "pres", static_cast<double>(pres));
    out.set(prefix + "reads", static_cast<double>(reads));
    out.set(prefix + "writes", static_cast<double>(writes));
    out.set(prefix + "refs", static_cast<double>(refs));
    out.set(prefix + "rfms", static_cast<double>(rfms));
}

void
DeviceStats::add(const DeviceStats& o)
{
    acts += o.acts;
    pres += o.pres;
    reads += o.reads;
    writes += o.writes;
    refs += o.refs;
    rfms += o.rfms;
}

namespace {

/**
 * The timing split banks run under the given counter-update mode.
 *
 * Queued updates take the counter RMW (tRP - tRP_base) off the row
 * cycle and revert banks to the conventional split (PRACtical). The
 * counter value still commits at ACT; only its write-back moves, and
 * it runs while the bank waits out the conventional row cycle
 * (tRAS_base + tRP_base) before its next ACT. When the RMW fits in
 * that cycle, no ACT can ever wait on a write-back, so the split is
 * the mode's whole timing effect.
 */
TimingParams
bankTimingFor(const TimingParams& t, const CounterUpdateConfig& cu)
{
    TimingParams bt = t;
    if (cu.mode == CounterUpdateMode::Queued && t.tRAS_base > 0 &&
        t.tRP_base > 0) {
        QP_ASSERT(t.tRP - t.tRP_base <= t.tRAS_base + t.tRP_base,
                  "counter-update=queued: the counter RMW (tRP - "
                  "tRP_base) must fit in one conventional row cycle "
                  "(tRAS_base + tRP_base)");
        bt.tRAS = t.tRAS_base;
        bt.tRP = t.tRP_base;
        bt.tRC = bt.tRAS + bt.tRP;
    }
    return bt;
}

} // namespace

DramDevice::DramDevice(const Organization& org, const TimingParams& timing,
                       int blast_radius,
                       const CounterUpdateConfig& counter_update)
    : org_(org.perChannel()),
      t_(timing),
      bank_t_(bankTimingFor(timing, counter_update)),
      counters_(org.banksPerChannel(), org.rows_per_bank, blast_radius)
{
    // One device is one channel: a multi-channel Organization is
    // normalized to its per-channel slice, and every flat_bank this
    // class sees is a per-channel id in [0, banksPerChannel()).
    const int total = org_.banksPerChannel();
    banks_.reserve(static_cast<std::size_t>(total));
    for (int i = 0; i < total; ++i)
        banks_.emplace_back(bank_t_);
    for (int r = 0; r < org_.ranks; ++r)
        rank_timing_.emplace_back(t_);
    acts_per_bank_.assign(static_cast<std::size_t>(total), 0);
    bank_acts_at_service_.assign(static_cast<std::size_t>(total), 0);
    bank_alert_serviced_.assign(static_cast<std::size_t>(total), 0);
}

void
DramDevice::setMitigation(RowhammerMitigation* mitigation)
{
    // Deliver anything still buffered to the outgoing mitigation before
    // swapping; a new mitigation must not see pre-attach ACTs.
    flushMitigationActs();
    mitigation_ = mitigation;
    alert_rise_threshold_ =
        mitigation_ ? mitigation_->alertRiseThreshold() : 0;
}

void
DramDevice::flushMitigationActs() const
{
    if (act_batch_.empty())
        return;
    if (mitigation_)
        mitigation_->onActivateBatch(act_batch_.data(),
                                     static_cast<int>(act_batch_.size()));
    act_batch_.clear();
    batch_max_count_ = 0;
}

void
DramDevice::setAboDelay(int acts)
{
    QP_ASSERT(acts >= 1, "ABODelay must be at least one ACT");
    abo_delay_acts_ = acts;
}

int
DramDevice::bankgroupOf(int flat_bank) const
{
    return (flat_bank % org_.banksPerRank()) / org_.banks_per_group;
}

int
DramDevice::bankIndexOf(int flat_bank) const
{
    return flat_bank % org_.banks_per_group;
}

bool
DramDevice::canAct(int flat_bank, Cycle now) const
{
    const Bank& b = bank(flat_bank);
    if (!b.canAct(now))
        return false;
    return rank_timing_[static_cast<std::size_t>(rankOf(flat_bank))].canAct(
        bankgroupOf(flat_bank), now);
}

bool
DramDevice::canPre(int flat_bank, Cycle now) const
{
    return bank(flat_bank).canPre(now);
}

bool
DramDevice::canRead(int flat_bank, Cycle now) const
{
    const Bank& b = bank(flat_bank);
    if (!b.canRead(now))
        return false;
    if (!rank_timing_[static_cast<std::size_t>(rankOf(flat_bank))].canCas(
            bankgroupOf(flat_bank), now))
        return false;
    return now + t_.tCL >= data_bus_free_;
}

bool
DramDevice::canWrite(int flat_bank, Cycle now) const
{
    const Bank& b = bank(flat_bank);
    if (!b.canWrite(now))
        return false;
    if (!rank_timing_[static_cast<std::size_t>(rankOf(flat_bank))].canCas(
            bankgroupOf(flat_bank), now))
        return false;
    return now + t_.tCWL >= data_bus_free_;
}

bool
DramDevice::rankIdle(int rank, Cycle now) const
{
    const int per_rank = org_.banksPerRank();
    for (int i = rank * per_rank; i < (rank + 1) * per_rank; ++i)
        if (!banks_[static_cast<std::size_t>(i)].idleAt(now))
            return false;
    return true;
}

Cycle
DramDevice::actReadyAt(int flat_bank) const
{
    const Bank& b = bank(flat_bank);
    return std::max(
        b.nextActReady(),
        rank_timing_[static_cast<std::size_t>(rankOf(flat_bank))]
            .nextActReady(bankgroupOf(flat_bank)));
}

Cycle
DramDevice::preReadyAt(int flat_bank) const
{
    return bank(flat_bank).nextPreReady();
}

Cycle
DramDevice::readReadyAt(int flat_bank) const
{
    const Bank& b = bank(flat_bank);
    Cycle ready = std::max(
        b.nextRdReady(),
        rank_timing_[static_cast<std::size_t>(rankOf(flat_bank))]
            .nextCasReady(bankgroupOf(flat_bank)));
    Cycle tCL = static_cast<Cycle>(t_.tCL);
    if (data_bus_free_ > tCL)
        ready = std::max(ready, data_bus_free_ - tCL);
    return ready;
}

Cycle
DramDevice::writeReadyAt(int flat_bank) const
{
    const Bank& b = bank(flat_bank);
    Cycle ready = std::max(
        b.nextWrReady(),
        rank_timing_[static_cast<std::size_t>(rankOf(flat_bank))]
            .nextCasReady(bankgroupOf(flat_bank)));
    Cycle tCWL = static_cast<Cycle>(t_.tCWL);
    if (data_bus_free_ > tCWL)
        ready = std::max(ready, data_bus_free_ - tCWL);
    return ready;
}

Cycle
DramDevice::rankIdleAt(int rank, Cycle now) const
{
    const int per_rank = org_.banksPerRank();
    Cycle at = now;
    for (int i = rank * per_rank; i < (rank + 1) * per_rank; ++i) {
        const Bank& b = banks_[static_cast<std::size_t>(i)];
        if (b.isOpen())
            return kNeverCycle;
        at = std::max(at, b.nextActReady());
    }
    return at;
}

void
DramDevice::issueAct(int flat_bank, int row, Cycle now)
{
    QP_ASSERT(canAct(flat_bank, now), "illegal ACT");
    bank(flat_bank).doAct(row, now);
    rank_timing_[static_cast<std::size_t>(rankOf(flat_bank))].recordAct(
        bankgroupOf(flat_bank), now);
    ++stats_.acts;
    ++acts_total_;
    ++acts_per_bank_[static_cast<std::size_t>(flat_bank)];
    // The PRAC counter update is synchronous (mitigations read counters
    // during RFM); only the mitigation notification is batched.
    ActCount count = counters_.onActivate(flat_bank, row);
    if (sink_)
        sink_->record(obs::kCmd, now, "ACT", "bank", flat_bank, "row", row);
    if (mitigation_) {
        act_batch_.push_back({flat_bank, row, count, now});
        batch_max_count_ = std::max(batch_max_count_, count);
        if (static_cast<int>(act_batch_.size()) >= kActBatchCapacity)
            flushMitigationActs();
    }
}

void
DramDevice::issuePre(int flat_bank, Cycle now)
{
    bank(flat_bank).doPre(now);
    ++stats_.pres;
    if (sink_)
        sink_->record(obs::kCmd, now, "PRE", "bank", flat_bank);
}

Cycle
DramDevice::issueRead(int flat_bank, Cycle now)
{
    QP_ASSERT(canRead(flat_bank, now), "illegal RD");
    Cycle done = bank(flat_bank).doRead(now);
    rank_timing_[static_cast<std::size_t>(rankOf(flat_bank))].recordCas(
        bankgroupOf(flat_bank), now);
    data_bus_free_ = now + t_.tCL + t_.tBL;
    ++stats_.reads;
    if (sink_)
        sink_->recordSpan(obs::kCmd, now, done, "RD", "bank", flat_bank);
    return done;
}

Cycle
DramDevice::issueWrite(int flat_bank, Cycle now)
{
    QP_ASSERT(canWrite(flat_bank, now), "illegal WR");
    Cycle done = bank(flat_bank).doWrite(now);
    rank_timing_[static_cast<std::size_t>(rankOf(flat_bank))].recordCas(
        bankgroupOf(flat_bank), now);
    data_bus_free_ = now + t_.tCWL + t_.tBL;
    ++stats_.writes;
    if (sink_)
        sink_->recordSpan(obs::kCmd, now, done, "WR", "bank", flat_bank);
    return done;
}

void
DramDevice::issueRefresh(int rank, Cycle now)
{
    QP_ASSERT(rankIdle(rank, now), "REF requires an idle rank");
    flushMitigationActs();
    const int per_rank = org_.banksPerRank();
    const Cycle until = now + t_.tRFC;
    for (int i = rank * per_rank; i < (rank + 1) * per_rank; ++i) {
        banks_[static_cast<std::size_t>(i)].block(until);
        // Proactive mitigation opportunity in the REF shadow (§III-D2).
        if (mitigation_)
            mitigation_->onRefresh(i, now);
    }
    ++stats_.refs;
    if (sink_)
        sink_->recordSpan(obs::kRefresh, now, until, "REF", "rank", rank);
}

Cycle
DramDevice::issueRfm(RfmScope scope, int alert_bank, Cycle now)
{
    flushMitigationActs();
    Cycle until = now;
    auto covered = [&](int flat_bank) {
        switch (scope) {
          case RfmScope::AllBank:
            return true;
          case RfmScope::SameBank:
            return alert_bank >= 0 &&
                   rankOf(flat_bank) == rankOf(alert_bank) &&
                   bankIndexOf(flat_bank) == bankIndexOf(alert_bank);
          case RfmScope::PerBank:
            return flat_bank == alert_bank;
        }
        return false;
    };
    int duration = scope == RfmScope::AllBank    ? t_.tRFMab
                   : scope == RfmScope::SameBank ? t_.tRFMsb
                                                 : t_.tRFMpb;
    until = now + duration;
    for (int i = 0; i < numBanks(); ++i) {
        if (!covered(i))
            continue;
        QP_ASSERT(banks_[static_cast<std::size_t>(i)].idleAt(now),
                  "RFM requires covered banks to be precharged");
        banks_[static_cast<std::size_t>(i)].block(until);
        if (mitigation_)
            mitigation_->onRfm(i, scope, i == alert_bank, now);
    }
    ++stats_.rfms;
    if (sink_)
        sink_->recordSpan(obs::kRfm, now, until, "RFM", "scope",
                          static_cast<int>(scope), "bank", alert_bank);
    return until;
}

void
DramDevice::sampleFlush() const
{
    // ALERT_n is an observation point — but the level can only RISE
    // because of a buffered ACT whose count reaches the mitigation's
    // alert threshold (it falls only through mitigation on RFM/REF,
    // which flush at dispatch). So the per-sample flush is needed only
    // when such an ACT is actually buffered; otherwise the batch keeps
    // accumulating across samples, which is what keeps the per-ACT
    // virtual call off the hot path even while ABO polls every cycle.
    if (!act_batch_.empty() &&
        (alert_rise_threshold_ == 0 ||
         batch_max_count_ >= alert_rise_threshold_))
        flushMitigationActs();
}

bool
DramDevice::alertAsserted() const
{
    if (!mitigation_)
        return false;
    sampleFlush();
    if (!mitigation_->wantsAlert())
        return false;
    // ABODelay: after an alert is serviced, the next alert may only be
    // asserted once the device has serviced abo_delay_acts_ further ACTs.
    if (alert_ever_serviced_ &&
        acts_total_ < acts_at_last_service_ + abo_delay_acts_) {
        return false;
    }
    return true;
}

void
DramDevice::alertServiced(Cycle now)
{
    (void)now;
    alert_ever_serviced_ = true;
    acts_at_last_service_ = acts_total_;
}

bool
DramDevice::anyBankAlertRequested() const
{
    if (!mitigation_)
        return false;
    sampleFlush();
    return mitigation_->wantsAlert();
}

bool
DramDevice::bankAlertAsserted(int bank) const
{
    if (!mitigation_)
        return false;
    sampleFlush();
    if (!mitigation_->bankWantsAlert(bank))
        return false;
    // Per-bank ABODelay: after @p bank's recovery, its next alert may
    // only rise once the bank itself has serviced abo_delay_acts_
    // further ACTs — one bank's activity never unlocks another's gate.
    const auto b = static_cast<std::size_t>(bank);
    if (bank_alert_serviced_[b] &&
        acts_per_bank_[b] < bank_acts_at_service_[b] +
                                static_cast<std::uint64_t>(
                                    abo_delay_acts_))
        return false;
    return true;
}

void
DramDevice::bankAlertServiced(int bank, Cycle now)
{
    (void)now;
    const auto b = static_cast<std::size_t>(bank);
    bank_alert_serviced_[b] = 1;
    bank_acts_at_service_[b] = acts_per_bank_[b];
}

} // namespace qprac::dram
