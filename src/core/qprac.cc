#include "core/qprac.h"

#include <algorithm>

#include "common/log.h"
#include "dram/prac_counters.h"
#include "obs/obs.h"

namespace qprac::core {

std::string
QpracConfig::label() const
{
    if (ideal)
        return "QPRAC-Ideal";
    if (!opportunistic)
        return "QPRAC-NoOp";
    switch (proactive) {
      case ProactiveMode::None: return "QPRAC";
      case ProactiveMode::EveryRef: return "QPRAC+Proactive";
      case ProactiveMode::EnergyAware: return "QPRAC+Proactive-EA";
    }
    return "QPRAC";
}

std::string
QpracConfig::registryKey() const
{
    if (ideal)
        return "qprac-ideal";
    if (!opportunistic)
        return "qprac-noop";
    switch (proactive) {
      case ProactiveMode::None: return "qprac";
      case ProactiveMode::EveryRef: return "qprac+proactive";
      case ProactiveMode::EnergyAware: return "qprac+proactive-ea";
    }
    return "qprac";
}

QpracConfig
QpracConfig::noOp(int nbo, int nmit)
{
    QpracConfig c = base(nbo, nmit);
    c.opportunistic = false;
    return c;
}

QpracConfig
QpracConfig::base(int nbo, int nmit)
{
    QpracConfig c;
    c.nbo = nbo;
    c.nmit = nmit;
    c.npro = nbo / 2;
    return c;
}

QpracConfig
QpracConfig::proactiveEvery(int nbo, int nmit)
{
    QpracConfig c = base(nbo, nmit);
    c.proactive = ProactiveMode::EveryRef;
    return c;
}

QpracConfig
QpracConfig::proactiveEa(int nbo, int nmit)
{
    QpracConfig c = base(nbo, nmit);
    c.proactive = ProactiveMode::EnergyAware;
    return c;
}

QpracConfig
QpracConfig::idealTopN(int nbo, int nmit)
{
    QpracConfig c = base(nbo, nmit);
    c.ideal = true;
    c.proactive = ProactiveMode::EnergyAware;
    return c;
}

CountBuckets::CountBuckets(int banks, int rows_per_bank)
    : rows_per_bank_(rows_per_bank),
      banks_(static_cast<std::size_t>(banks))
{
    links_.reset(static_cast<Link*>(
        std::calloc(static_cast<std::size_t>(banks) *
                        static_cast<std::size_t>(rows_per_bank),
                    sizeof(Link))));
    QP_ASSERT(links_ != nullptr, "out of memory for Ideal's count buckets");
}

CountBuckets::Link*
CountBuckets::bankLinks(int bank)
{
    return links_.get() + static_cast<std::size_t>(bank) *
                              static_cast<std::size_t>(rows_per_bank_);
}

void
CountBuckets::unlink(int bank, int row, ActCount count)
{
    Bank& b = banks_[static_cast<std::size_t>(bank)];
    Link* links = bankLinks(bank);
    Link& self = links[row];
    Bucket& k = b.buckets[count];
    if (self.prev != 0)
        links[self.prev - 1].next = self.next;
    else
        k.head = self.next;
    if (self.next != 0)
        links[self.next - 1].prev = self.prev;
    else
        k.tail = self.prev;
    self = {0, 0};
}

void
CountBuckets::raise(int bank, int row, ActCount count)
{
    Bank& b = banks_[static_cast<std::size_t>(bank)];
    Link* links = bankLinks(bank);
    const auto self = static_cast<std::uint32_t>(row) + 1;
    if (count >= b.buckets.size())
        b.buckets.resize(static_cast<std::size_t>(count) + 1);
    // A linked row has a neighbour or heads its bucket; a row counted
    // only before this tracker was attached is in none.
    if (count > 1 &&
        (links[row].prev != 0 || b.buckets[count - 1].head == self))
        unlink(bank, row, count - 1);
    Bucket& k = b.buckets[count];
    links[row] = {k.tail, 0};
    if (k.tail != 0)
        links[k.tail - 1].next = self;
    else
        k.head = self;
    k.tail = self;
    b.max = std::max(b.max, count);
}

void
CountBuckets::clear(int bank, int row, ActCount count)
{
    unlink(bank, row, count);
    Bank& b = banks_[static_cast<std::size_t>(bank)];
    // A raise lifts the maximum by at most one (a row seen since the
    // tracker was attached moves up one bucket), so this walk down to
    // the next non-empty bucket is amortized O(1) per count change.
    while (b.max > 0 && b.buckets[b.max].head == 0)
        --b.max;
}

int
CountBuckets::topRow(int bank) const
{
    const Bank& b = banks_[static_cast<std::size_t>(bank)];
    return b.max == 0 ? kNoRow : static_cast<int>(b.buckets[b.max].head) - 1;
}

Qprac::Qprac(const QpracConfig& config, dram::PracCounters* counters)
    : config_(config), counters_(counters)
{
    QP_ASSERT(counters_ != nullptr, "QPRAC requires PRAC counters");
    QP_ASSERT(config_.psq_size >= 1, "PSQ size must be >= 1");
    QP_ASSERT(config_.nbo >= 1, "NBO must be >= 1");
    const int banks = counters_->numBanks();
    if (config_.ideal)
        ideal_.emplace(banks, counters_->rowsPerBank());
    else
        psqs_.assign(static_cast<std::size_t>(banks),
                     LinearCamQueue(config_.psq_size));
    over_threshold_.assign(static_cast<std::size_t>(banks), 0);
    refs_seen_.assign(static_cast<std::size_t>(banks), 0);
}

void
Qprac::onActivateBatch(const dram::ActEvent* events, int n)
{
    // One virtual entry for the whole burst.
    for (int i = 0; i < n; ++i)
        activateOne(events[i].flat_bank, events[i].row, events[i].count);
}

int
Qprac::alertingBank() const
{
    if (num_over_ == 0)
        return -1;
    for (int i = 0; i < static_cast<int>(over_threshold_.size()); ++i)
        if (over_threshold_[static_cast<std::size_t>(i)])
            return i;
    return -1;
}

bool
Qprac::mitigateTop(int bank, bool require_count, ActCount min_count)
{
    int row = kNoRow;
    ActCount count = 0;
    if (config_.ideal) {
        row = ideal_->topRow(bank);
        count = ideal_->maxCount(bank);
    } else if (const SqEntry* top =
                   psqs_[static_cast<std::size_t>(bank)].top()) {
        row = top->row;
        count = top->count;
    }
    if (row == kNoRow || (require_count && count < min_count))
        return false;

    dram::PracCounters::VictimInfo victims[dram::PracCounters::kMaxVictims];
    int nv = counters_->mitigate(bank, row, victims);
    stats_.victim_refreshes += static_cast<std::uint64_t>(nv);
    if (config_.ideal) {
        ideal_->clear(bank, row, count);
        for (int i = 0; i < nv; ++i)
            ideal_->raise(bank, victims[i].row, victims[i].count);
    } else {
        auto& psq = psqs_[static_cast<std::size_t>(bank)];
        psq.remove(row);
        // Transitive-attack handling: victims' incremented counts may
        // now qualify them for PSQ tracking (§III-C2).
        for (int i = 0; i < nv; ++i) {
            PsqInsert r = psq.onActivate(victims[i].row, victims[i].count);
            if (r == PsqInsert::Inserted || r == PsqInsert::Evicted)
                ++stats_.psq_insertions;
            if (r == PsqInsert::Evicted)
                ++stats_.psq_evictions;
        }
    }
    refreshAlertFlag(bank);
    return true;
}

void
Qprac::refreshAlertFlag(int bank)
{
    const bool over = topCount(bank) >= static_cast<ActCount>(config_.nbo);
    auto& flag = over_threshold_[static_cast<std::size_t>(bank)];
    if (flag && !over) {
        flag = 0;
        --num_over_;
    } else if (!flag && over) {
        flag = 1;
        ++num_over_;
    }
}

void
Qprac::onRfm(int flat_bank, dram::RfmScope scope, bool alerting_bank,
             Cycle cycle)
{
    (void)scope;
    // QPRAC-NoOp mitigates only the alerting bank; opportunistic QPRAC
    // mitigates the top entry in every covered bank (§III-D1).
    if (!config_.opportunistic && !alerting_bank)
        return;
    if (mitigateTop(flat_bank)) {
        ++stats_.rfm_mitigations;
        if (sink_)
            sink_->record(obs::kPsq, cycle, "psq-service", "bank",
                          flat_bank, "alerting", alerting_bank ? 1 : 0);
    }
}

void
Qprac::onRefresh(int flat_bank, Cycle cycle)
{
    if (config_.proactive == ProactiveMode::None)
        return;
    int& seen = refs_seen_[static_cast<std::size_t>(flat_bank)];
    if (++seen < config_.proactive_period_refs)
        return;
    seen = 0;
    bool require = config_.proactive == ProactiveMode::EnergyAware;
    if (mitigateTop(flat_bank, require,
                    static_cast<ActCount>(config_.npro))) {
        ++stats_.proactive_mitigations;
        if (sink_)
            sink_->record(obs::kPsq, cycle, "psq-proactive", "bank",
                          flat_bank);
    }
}

const LinearCamQueue&
Qprac::psq(int flat_bank) const
{
    QP_ASSERT(!config_.ideal, "QPRAC-Ideal keeps no PSQ");
    return psqs_[static_cast<std::size_t>(flat_bank)];
}

int
Qprac::queueOccupancy() const
{
    if (config_.ideal)
        return -1;
    int peak = 0;
    for (const LinearCamQueue& psq : psqs_)
        peak = std::max(peak, psq.size());
    return peak;
}

std::int64_t
Qprac::maxTrackedCount() const
{
    std::int64_t top = 0;
    for (int b = 0; b < static_cast<int>(over_threshold_.size()); ++b)
        top = std::max(top, static_cast<std::int64_t>(topCount(b)));
    return top;
}

ActCount
Qprac::topCount(int flat_bank) const
{
    if (config_.ideal)
        return ideal_->maxCount(flat_bank);
    return psqs_[static_cast<std::size_t>(flat_bank)].maxCount();
}

} // namespace qprac::core
