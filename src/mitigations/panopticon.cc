#include "mitigations/panopticon.h"

#include "common/log.h"
#include "dram/prac_counters.h"

namespace qprac::mitigations {

PanopticonConfig
PanopticonConfig::tbit(int t, int queue_size)
{
    PanopticonConfig c;
    c.queue_size = queue_size;
    c.threshold = 1 << t;
    c.full_counter_compare = false;
    return c;
}

PanopticonConfig
PanopticonConfig::fullCounter(int threshold, int queue_size)
{
    PanopticonConfig c;
    c.queue_size = queue_size;
    c.threshold = threshold;
    c.full_counter_compare = true;
    return c;
}

Panopticon::Panopticon(const PanopticonConfig& config,
                       dram::PracCounters* counters)
    : config_(config), counters_(counters)
{
    QP_ASSERT(counters_ != nullptr, "Panopticon requires PRAC counters");
    QP_ASSERT(config_.queue_size >= 1 && config_.threshold >= 1,
              "invalid Panopticon config");
    queues_.resize(static_cast<std::size_t>(counters_->numBanks()));
}

std::string
Panopticon::name() const
{
    return config_.full_counter_compare ? "Panopticon-FullCtr"
                                        : "Panopticon";
}

void
Panopticon::tryEnqueue(int bank, int row)
{
    auto& q = queues_[static_cast<std::size_t>(bank)];
    if (q.members.count(row))
        return;
    if (static_cast<int>(q.fifo.size()) >= config_.queue_size) {
        // THE vulnerability: a row needing mitigation is silently
        // dropped because the FIFO is full.
        ++stats_.dropped_mitigations;
        return;
    }
    q.fifo.push_back(row);
    q.members.insert(row);
    ++stats_.psq_insertions;
}

void
Panopticon::onActivate(int flat_bank, int row, ActCount count, Cycle cycle)
{
    (void)cycle;
    const auto m = static_cast<ActCount>(config_.threshold);
    if (config_.full_counter_compare) {
        // Retry on every ACT at-or-above the threshold.
        if (count >= m)
            tryEnqueue(flat_bank, row);
    } else {
        // Mitigation event only when the t-bit toggles (count crosses a
        // multiple of 2^t).
        bool toggled = (count % m) == 0;
        if (toggled && config_.block_abo_toggle && abo_window_active_)
            return; // Appendix A variant: ABO_ACT cannot toggle the t-bit
        if (toggled)
            tryEnqueue(flat_bank, row);
    }
}

bool
Panopticon::wantsAlert() const
{
    // Panopticon requests ABO service when any bank's FIFO is full.
    for (const auto& q : queues_)
        if (static_cast<int>(q.fifo.size()) >= config_.queue_size)
            return true;
    return false;
}

int
Panopticon::alertingBank() const
{
    for (std::size_t i = 0; i < queues_.size(); ++i)
        if (static_cast<int>(queues_[i].fifo.size()) >= config_.queue_size)
            return static_cast<int>(i);
    return -1;
}

void
Panopticon::mitigateFront(int bank, bool proactive)
{
    auto& q = queues_[static_cast<std::size_t>(bank)];
    if (q.fifo.empty())
        return;
    int row = q.fifo.front();
    q.fifo.pop_front();
    q.members.erase(row);
    dram::PracCounters::VictimInfo victims[dram::PracCounters::kMaxVictims];
    // In t-bit mode the activation counter is NOT reset by mitigation;
    // the threshold bit simply toggles again 2^t activations later.
    int nv = counters_->mitigate(bank, row, victims,
                                 config_.full_counter_compare);
    stats_.victim_refreshes += static_cast<std::uint64_t>(nv);
    if (proactive)
        ++stats_.proactive_mitigations;
    else
        ++stats_.rfm_mitigations;
}

void
Panopticon::onRfm(int flat_bank, dram::RfmScope scope, bool alerting_bank,
                  Cycle cycle)
{
    (void)scope;
    (void)alerting_bank;
    (void)cycle;
    mitigateFront(flat_bank, false);
}

void
Panopticon::onRefresh(int flat_bank, Cycle cycle)
{
    (void)cycle;
    mitigateFront(flat_bank, true);
}

int
Panopticon::queueSize(int flat_bank) const
{
    return static_cast<int>(
        queues_[static_cast<std::size_t>(flat_bank)].fifo.size());
}

bool
Panopticon::queueFull(int flat_bank) const
{
    return queueSize(flat_bank) >= config_.queue_size;
}

bool
Panopticon::queueContains(int flat_bank, int row) const
{
    return queues_[static_cast<std::size_t>(flat_bank)].members.count(row) >
           0;
}

} // namespace qprac::mitigations
