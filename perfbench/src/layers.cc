#include "layers.h"

#include "common/stats.h"

namespace perfbench {

namespace {

/** The lap layer a nested layer's spans sit inside (or kLayerCount). */
Layer
parentOf(Layer layer)
{
    switch (layer) {
    case kTrace:
        return kCore;
    case kMit:
        return kShard;
    default:
        return kLayerCount;
    }
}

} // namespace

TimerCost
LayerClock::calibrate()
{
    // Median of a few short batches, so one preemption cannot skew it.
    constexpr int kBatches = 7;
    constexpr int kSpans = 20000;
    std::vector<double> lap, nested_in, nested_all;
    for (int b = 0; b < kBatches; ++b) {
        LayerClock clock(0);
        std::uint64_t t0 = nowNs();
        clock.start();
        for (int i = 0; i < kSpans; ++i)
            clock.lap(kCore);
        lap.push_back(static_cast<double>(nowNs() - t0) / kSpans);

        t0 = nowNs();
        for (int i = 0; i < kSpans; ++i)
            clock.leave(kTrace, clock.enter(kTrace));
        nested_all.push_back(static_cast<double>(nowNs() - t0) / kSpans);
        nested_in.push_back(static_cast<double>(clock.raw_[kTrace]) /
                            kSpans);
    }
    return {qprac::percentileOf(lap, 50), qprac::percentileOf(nested_in, 50),
            qprac::percentileOf(nested_all, 50)};
}

double
LayerClock::nestedNs(Layer layer, const TimerCost& cost) const
{
    if (spans_[layer] == 0)
        return 0.0;
    const double timed = static_cast<double>(raw_[layer]) -
                         static_cast<double>(spans_[layer]) * cost.nested_in;
    return timed * static_cast<double>(calls_[layer]) /
           static_cast<double>(spans_[layer]);
}

double
LayerClock::busySeconds(Layer layer, const TimerCost& cost) const
{
    if (parentOf(layer) != kLayerCount)
        return nestedNs(layer, cost) * 1e-9;
    // A lap layer's reading holds its own work, one lap's timer cost
    // per lap, and every call nested in it with that call's timer cost.
    double ns = static_cast<double>(raw_[layer]) -
                static_cast<double>(laps_[layer]) * cost.lap;
    for (int c = 0; c < kLayerCount; ++c) {
        const auto child = static_cast<Layer>(c);
        if (parentOf(child) == layer)
            ns -= nestedNs(child, cost) +
                  static_cast<double>(spans_[child]) * cost.nested_all;
    }
    return ns * 1e-9;
}

double
LayerClock::timerSeconds(const TimerCost& cost) const
{
    double ns = 0.0;
    for (int l = 0; l < kLayerCount; ++l)
        ns += static_cast<double>(laps_[l]) * cost.lap +
              static_cast<double>(spans_[l]) * cost.nested_all;
    return ns * 1e-9;
}

// --- TracedTraceSource --------------------------------------------------

TracedTraceSource::TracedTraceSource(
    std::unique_ptr<qprac::cpu::TraceSource> inner, LayerClock& clock)
    : inner_(std::move(inner)), clock_(clock)
{
}

bool
TracedTraceSource::next(qprac::cpu::TraceEntry& out)
{
    const std::uint64_t t0 = clock_.enter(kTrace);
    const bool ok = inner_->next(out);
    clock_.leave(kTrace, t0);
    records_ += ok ? 1 : 0;
    return ok;
}

void
TracedTraceSource::warmupAddrs(std::vector<qprac::Addr>& out) const
{
    inner_->warmupAddrs(out);
}

// --- TracedMitigation ---------------------------------------------------

TracedMitigation::TracedMitigation(
    std::unique_ptr<qprac::dram::RowhammerMitigation> inner,
    LayerClock& clock, MitigationCounts& counts)
    : inner_(std::move(inner)), clock_(clock), counts_(counts)
{
}

void
TracedMitigation::onActivate(int flat_bank, int row, qprac::ActCount count,
                             qprac::Cycle cycle)
{
    const std::uint64_t t0 = clock_.enter(kMit);
    inner_->onActivate(flat_bank, row, count, cycle);
    clock_.leave(kMit, t0);
    ++counts_.calls;
    ++counts_.act_events;
}

void
TracedMitigation::onActivateBatch(const qprac::dram::ActEvent* events,
                                  int n)
{
    const std::uint64_t t0 = clock_.enter(kMit);
    inner_->onActivateBatch(events, n);
    clock_.leave(kMit, t0);
    ++counts_.calls;
    counts_.act_events += static_cast<std::uint64_t>(n);
}

bool
TracedMitigation::wantsAlert() const
{
    const std::uint64_t t0 = clock_.enter(kMit);
    const bool hit = inner_->wantsAlert();
    clock_.leave(kMit, t0);
    ++counts_.calls;
    ++counts_.polls;
    counts_.poll_hits += hit ? 1 : 0;
    return hit;
}

qprac::ActCount
TracedMitigation::alertRiseThreshold() const
{
    const std::uint64_t t0 = clock_.enter(kMit);
    const qprac::ActCount v = inner_->alertRiseThreshold();
    clock_.leave(kMit, t0);
    ++counts_.calls;
    return v;
}

void
TracedMitigation::onRfm(int flat_bank, qprac::dram::RfmScope scope,
                        bool alerting_bank, qprac::Cycle cycle)
{
    const std::uint64_t t0 = clock_.enter(kMit);
    inner_->onRfm(flat_bank, scope, alerting_bank, cycle);
    clock_.leave(kMit, t0);
    ++counts_.calls;
}

void
TracedMitigation::onRefresh(int flat_bank, qprac::Cycle cycle)
{
    const std::uint64_t t0 = clock_.enter(kMit);
    inner_->onRefresh(flat_bank, cycle);
    clock_.leave(kMit, t0);
    ++counts_.calls;
}

int
TracedMitigation::alertingBank() const
{
    const std::uint64_t t0 = clock_.enter(kMit);
    const int bank = inner_->alertingBank();
    clock_.leave(kMit, t0);
    ++counts_.calls;
    ++counts_.polls;
    counts_.poll_hits += bank >= 0 ? 1 : 0;
    return bank;
}

bool
TracedMitigation::bankWantsAlert(int bank) const
{
    const std::uint64_t t0 = clock_.enter(kMit);
    const bool hit = inner_->bankWantsAlert(bank);
    clock_.leave(kMit, t0);
    ++counts_.calls;
    ++counts_.polls;
    counts_.poll_hits += hit ? 1 : 0;
    return hit;
}

const qprac::dram::MitigationStats&
TracedMitigation::stats() const
{
    ++counts_.calls;
    return inner_->stats();
}

std::string
TracedMitigation::name() const
{
    ++counts_.calls;
    return inner_->name();
}

int
TracedMitigation::queueOccupancy() const
{
    ++counts_.calls;
    return inner_->queueOccupancy();
}

std::int64_t
TracedMitigation::maxTrackedCount() const
{
    ++counts_.calls;
    return inner_->maxTrackedCount();
}

qprac::ctrl::MitigationFactory
tracedFactory(qprac::ctrl::MitigationFactory inner, LayerClock& clock,
              MitigationCounts& counts)
{
    if (!inner)
        return inner;
    return [inner = std::move(inner), &clock,
            &counts](qprac::dram::PracCounters* counters)
               -> std::unique_ptr<qprac::dram::RowhammerMitigation> {
        auto m = inner(counters);
        if (!m)
            return nullptr;
        return std::make_unique<TracedMitigation>(std::move(m), clock,
                                                  counts);
    };
}

} // namespace perfbench
