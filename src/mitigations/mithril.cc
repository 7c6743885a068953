#include "mitigations/mithril.h"

#include <algorithm>

#include "common/log.h"
#include "dram/prac_counters.h"

namespace qprac::mitigations {

MithrilConfig
MithrilConfig::forTrh(int trh, int acts_per_trefw)
{
    // Misra-Gries guarantee: with N entries, any row activated more than
    // ACTs/(N+1) times is tracked; sizing N = 4 * ACTs / TRH keeps the
    // tracked threshold at TRH/4 (Graphene-style margin).
    MithrilConfig c;
    c.entries = std::max(16, 4 * acts_per_trefw / std::max(1, trh));
    return c;
}

Mithril::Mithril(const MithrilConfig& config, dram::PracCounters* counters)
    : config_(config), counters_(counters)
{
    QP_ASSERT(counters_ != nullptr, "Mithril requires counters");
    QP_ASSERT(config_.entries >= 1, "invalid Mithril config");
    tables_.resize(static_cast<std::size_t>(counters_->numBanks()));
}

void
Mithril::onActivate(int flat_bank, int row, ActCount count, Cycle cycle)
{
    (void)count;
    (void)cycle;
    auto& t = tables_[static_cast<std::size_t>(flat_bank)];
    auto it = t.counts.find(row);
    if (it != t.counts.end()) {
        ++it->second;
        ++stats_.psq_hits;
        return;
    }
    if (static_cast<int>(t.counts.size()) < config_.entries) {
        t.counts.emplace(row, t.spillover + 1);
        ++stats_.psq_insertions;
        return;
    }
    // Replace a minimum-count entry if it equals the spillover;
    // otherwise the activation is absorbed by the spillover counter.
    auto min_it = t.counts.begin();
    for (auto i = t.counts.begin(); i != t.counts.end(); ++i)
        if (i->second < min_it->second)
            min_it = i;
    if (min_it->second <= t.spillover) {
        t.counts.erase(min_it);
        t.counts.emplace(row, t.spillover + 1);
        ++stats_.psq_insertions;
        ++stats_.psq_evictions;
    } else {
        ++t.spillover;
    }
}

void
Mithril::mitigateMax(int bank, bool proactive)
{
    auto& t = tables_[static_cast<std::size_t>(bank)];
    if (t.counts.empty())
        return;
    auto max_it = t.counts.begin();
    for (auto i = t.counts.begin(); i != t.counts.end(); ++i)
        if (i->second > max_it->second)
            max_it = i;
    if (max_it->second <= t.spillover)
        return; // nothing meaningfully above the noise floor
    int row = max_it->first;
    dram::PracCounters::VictimInfo victims[dram::PracCounters::kMaxVictims];
    int nv = counters_->mitigate(bank, row, victims);
    stats_.victim_refreshes += static_cast<std::uint64_t>(nv);
    max_it->second = t.spillover; // Graphene-style post-TRR reset
    if (proactive)
        ++stats_.proactive_mitigations;
    else
        ++stats_.rfm_mitigations;
}

void
Mithril::onRfm(int flat_bank, dram::RfmScope scope, bool alerting_bank,
               Cycle cycle)
{
    (void)scope;
    (void)alerting_bank;
    (void)cycle;
    mitigateMax(flat_bank, false);
}

void
Mithril::onRefresh(int flat_bank, Cycle cycle)
{
    (void)cycle;
    mitigateMax(flat_bank, true);
}

long
Mithril::trackedCount(int flat_bank, int row) const
{
    const auto& t = tables_[static_cast<std::size_t>(flat_bank)];
    auto it = t.counts.find(row);
    return it == t.counts.end() ? t.spillover : it->second;
}

} // namespace qprac::mitigations
