#include "mitigations/moat.h"

#include "common/log.h"
#include "dram/prac_counters.h"

namespace qprac::mitigations {

MoatConfig
MoatConfig::forNbo(int nbo, int proactive_period_refs)
{
    MoatConfig c;
    c.eth = nbo / 2;
    c.ath = nbo;
    c.proactive_period_refs = proactive_period_refs;
    return c;
}

Moat::Moat(const MoatConfig& config, dram::PracCounters* counters)
    : config_(config), counters_(counters)
{
    QP_ASSERT(counters_ != nullptr, "MOAT requires PRAC counters");
    QP_ASSERT(config_.eth >= 1 && config_.ath >= config_.eth,
              "invalid MOAT thresholds");
    const auto banks = static_cast<std::size_t>(counters_->numBanks());
    entries_.resize(banks);
    over_.assign(banks, 0);
    refs_seen_.assign(banks, 0);
}

void
Moat::onActivate(int flat_bank, int row, ActCount count, Cycle cycle)
{
    (void)cycle;
    auto& e = entries_[static_cast<std::size_t>(flat_bank)];
    if (e.row == row) {
        e.count = count;
        ++stats_.psq_hits;
    } else if (count >= static_cast<ActCount>(config_.eth) &&
               count > e.count) {
        if (e.row != kNoRow)
            ++stats_.psq_evictions;
        e = {row, count};
        ++stats_.psq_insertions;
    }
    if (e.count >= static_cast<ActCount>(config_.ath) &&
        !over_[static_cast<std::size_t>(flat_bank)]) {
        over_[static_cast<std::size_t>(flat_bank)] = 1;
        ++num_over_;
        ++stats_.alerts;
    }
}

bool
Moat::wantsAlert() const
{
    return num_over_ > 0;
}

int
Moat::alertingBank() const
{
    if (num_over_ == 0)
        return -1;
    for (std::size_t i = 0; i < over_.size(); ++i)
        if (over_[i])
            return static_cast<int>(i);
    return -1;
}

bool
Moat::mitigateEntry(int bank, bool proactive)
{
    auto& e = entries_[static_cast<std::size_t>(bank)];
    if (e.row == kNoRow)
        return false;
    dram::PracCounters::VictimInfo victims[dram::PracCounters::kMaxVictims];
    int nv = counters_->mitigate(bank, e.row, victims);
    stats_.victim_refreshes += static_cast<std::uint64_t>(nv);
    e = {};
    if (proactive)
        ++stats_.proactive_mitigations;
    else
        ++stats_.rfm_mitigations;
    updateAlertFlag(bank);
    return true;
}

void
Moat::updateAlertFlag(int bank)
{
    const auto& e = entries_[static_cast<std::size_t>(bank)];
    bool over = e.count >= static_cast<ActCount>(config_.ath);
    auto& flag = over_[static_cast<std::size_t>(bank)];
    if (flag && !over) {
        flag = 0;
        --num_over_;
    }
}

void
Moat::onRfm(int flat_bank, dram::RfmScope scope, bool alerting_bank,
            Cycle cycle)
{
    (void)scope;
    (void)alerting_bank;
    (void)cycle;
    mitigateEntry(flat_bank, false);
}

void
Moat::onRefresh(int flat_bank, Cycle cycle)
{
    (void)cycle;
    if (config_.proactive_period_refs <= 0)
        return;
    int& seen = refs_seen_[static_cast<std::size_t>(flat_bank)];
    if (++seen < config_.proactive_period_refs)
        return;
    seen = 0;
    const auto& e = entries_[static_cast<std::size_t>(flat_bank)];
    if (e.row != kNoRow && e.count >= static_cast<ActCount>(config_.eth))
        mitigateEntry(flat_bank, true);
}

int
Moat::trackedRow(int flat_bank) const
{
    return entries_[static_cast<std::size_t>(flat_bank)].row;
}

ActCount
Moat::trackedCount(int flat_bank) const
{
    return entries_[static_cast<std::size_t>(flat_bank)].count;
}

} // namespace qprac::mitigations
