#include "mitigations/pride.h"

#include "common/log.h"
#include "dram/prac_counters.h"

namespace qprac::mitigations {

Pride::Pride(const PrideConfig& config, dram::PracCounters* counters)
    : config_(config), counters_(counters), rng_(config.seed)
{
    QP_ASSERT(counters_ != nullptr, "PrIDE requires counters");
    queues_.resize(static_cast<std::size_t>(counters_->numBanks()));
}

void
Pride::onActivate(int flat_bank, int row, ActCount count, Cycle cycle)
{
    (void)count;
    (void)cycle;
    if (rng_.nextBelow(static_cast<std::uint64_t>(config_.sample_period)) !=
        0)
        return;
    auto& q = queues_[static_cast<std::size_t>(flat_bank)];
    if (static_cast<int>(q.size()) >= config_.queue_size)
        q.pop_front(); // sampled insert displaces the oldest entry
    q.push_back(row);
    ++stats_.psq_insertions;
}

void
Pride::mitigateFront(int bank, bool proactive)
{
    auto& q = queues_[static_cast<std::size_t>(bank)];
    if (q.empty())
        return;
    int row = q.front();
    q.pop_front();
    dram::PracCounters::VictimInfo victims[dram::PracCounters::kMaxVictims];
    int nv = counters_->mitigate(bank, row, victims);
    stats_.victim_refreshes += static_cast<std::uint64_t>(nv);
    if (proactive)
        ++stats_.proactive_mitigations;
    else
        ++stats_.rfm_mitigations;
}

void
Pride::onRfm(int flat_bank, dram::RfmScope scope, bool alerting_bank,
             Cycle cycle)
{
    (void)scope;
    (void)alerting_bank;
    (void)cycle;
    mitigateFront(flat_bank, false);
}

void
Pride::onRefresh(int flat_bank, Cycle cycle)
{
    (void)cycle;
    mitigateFront(flat_bank, true);
}

} // namespace qprac::mitigations
