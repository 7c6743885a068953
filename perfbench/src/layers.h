/**
 * @file
 * Outside-in layer timing for the benchmark's traced runs.
 *
 * Nothing here touches the simulator's sources: host time is split by
 * timing, from the benchmark's own code, the calls it makes into each
 * layer's public functions, plus two forwarding decorators the
 * simulator calls back into (a TraceSource and a RowhammerMitigation).
 *
 * Two kinds of span keep the timer cost low and correctable:
 *  - laps: a chain of clock reads in the benchmark's run loop; each
 *    read charges the time since the previous one to a layer, so the
 *    chain covers the whole loop with one read per boundary;
 *  - nested spans: an entry/exit pair inside a lap (trace records
 *    inside core ticks, mitigation calls inside shard windows), whose
 *    time is also taken out of the enclosing lap's layer. These calls
 *    are short and number in the millions, so only one in 2^shift is
 *    timed and the layer's time is scaled up by calls / timed calls.
 * Every span's timer cost is measured on the spot (calibrate()) and
 * subtracted, so a layer's busy time is its self time.
 */
#ifndef QPRAC_PERFBENCH_LAYERS_H
#define QPRAC_PERFBENCH_LAYERS_H

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cpu/trace.h"
#include "ctrl/memory_system.h"
#include "dram/mitigation_iface.h"

namespace perfbench {

/** The simulator layers a traced run attributes host time to. */
enum Layer
{
    kTrace,   ///< cpu/trace: TraceSource::next
    kCore,    ///< cpu/core: O3Core::tick minus nested trace time
    kLlc,     ///< cpu/llc: SharedLlc::tick
    kMailbox, ///< ctrl/memory_system epoch sync
    kShard,   ///< ctrl/ + dram/: shard windows minus mitigation time
    kMit,     ///< core/qprac + mitigations/: every mitigation virtual
    kCompute, ///< attacks/ + core/: runScenario per sweep point
    kLookup,  ///< sim/result_cache: ResultCache::lookup
    kStore,   ///< sim/result_cache: ResultCache::store
    kOther,   ///< the benchmark's own loop glue
    kLayerCount,
};

inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** Seconds elapsed since @p start_ns. */
inline double
secondsSince(std::uint64_t start_ns)
{
    return static_cast<double>(nowNs() - start_ns) * 1e-9;
}

/** Measured cost of the span kinds, in nanoseconds. */
struct TimerCost
{
    double lap = 0.0;        ///< one lap() call, charged to its layer
    double nested_in = 0.0;  ///< what a nested span reads when empty
    double nested_all = 0.0; ///< full cost of a nested span to its parent
};

/**
 * Lap chain plus nested spans; one per traced run, single-threaded.
 * Raw readings accumulate per layer; busySeconds() applies the timer
 * cost correction.
 */
class LayerClock
{
  public:
    /** Times one nested call in 2^@p sample_shift (0 = every call). */
    explicit LayerClock(unsigned sample_shift = 4)
        : sample_mask_((1ull << sample_shift) - 1)
    {
    }

    /** Start (or restart) the lap chain. */
    void start() { last_ = nowNs(); }

    /** Charge the time since the previous boundary to @p layer. */
    void lap(Layer layer)
    {
        const std::uint64_t t = nowNs();
        raw_[layer] += t - last_;
        ++laps_[layer];
        last_ = t;
    }

    /**
     * Open a nested span (inside some lap); 0 when not sampled. The
     * sample is pseudo-random, so a periodic call pattern (polls every
     * cycle, say) cannot alias with it.
     */
    std::uint64_t enter(Layer layer)
    {
        ++calls_[layer];
        rng_ ^= rng_ << 13;
        rng_ ^= rng_ >> 7;
        rng_ ^= rng_ << 17;
        return (rng_ & sample_mask_) == 0 ? nowNs() : 0;
    }

    /** Close a nested span opened by enter(). */
    void leave(Layer layer, std::uint64_t t0)
    {
        if (t0 == 0)
            return;
        raw_[layer] += nowNs() - t0;
        ++spans_[layer];
    }

    /** Measure this host's timer costs for the correction. */
    static TimerCost calibrate();

    /** Self time of @p layer after removing every span's timer cost. */
    double busySeconds(Layer layer, const TimerCost& cost) const;

    /** Total timer cost of every span recorded, in seconds. */
    double timerSeconds(const TimerCost& cost) const;

    std::uint64_t laps(Layer layer) const { return laps_[layer]; }
    /** Nested calls made / timed. */
    std::uint64_t calls(Layer layer) const { return calls_[layer]; }
    std::uint64_t spans(Layer layer) const { return spans_[layer]; }

  private:
    /** Self time of the nested layer @p layer, scaled to every call. */
    double nestedNs(Layer layer, const TimerCost& cost) const;

    std::uint64_t sample_mask_;
    std::uint64_t rng_ = 0x9E3779B97F4A7C15ull; ///< xorshift64 state
    std::uint64_t last_ = 0;
    std::array<std::uint64_t, kLayerCount> calls_{};
    std::array<std::uint64_t, kLayerCount> raw_{};
    std::array<std::uint64_t, kLayerCount> laps_{};
    std::array<std::uint64_t, kLayerCount> spans_{};
};

/** Forwards every TraceSource virtual; times and counts next(). */
class TracedTraceSource final : public qprac::cpu::TraceSource
{
  public:
    TracedTraceSource(std::unique_ptr<qprac::cpu::TraceSource> inner,
                      LayerClock& clock);

    bool next(qprac::cpu::TraceEntry& out) override;
    void warmupAddrs(std::vector<qprac::Addr>& out) const override;

    std::uint64_t records() const { return records_; }

  private:
    std::unique_ptr<qprac::cpu::TraceSource> inner_;
    LayerClock& clock_;
    std::uint64_t records_ = 0;
};

/** Call counts seen by the mitigation decorators of one run. */
struct MitigationCounts
{
    std::uint64_t calls = 0;      ///< every virtual call
    std::uint64_t act_events = 0; ///< ACTs delivered (single + batched)
    std::uint64_t polls = 0;      ///< wantsAlert/bankWantsAlert/alertingBank
    std::uint64_t poll_hits = 0;  ///< polls that found an alert
};

/** Forwards every RowhammerMitigation virtual; times and counts them. */
class TracedMitigation final : public qprac::dram::RowhammerMitigation
{
  public:
    TracedMitigation(std::unique_ptr<qprac::dram::RowhammerMitigation> inner,
                     LayerClock& clock, MitigationCounts& counts);

    void onActivate(int flat_bank, int row, qprac::ActCount count,
                    qprac::Cycle cycle) override;
    void onActivateBatch(const qprac::dram::ActEvent* events,
                         int n) override;
    bool wantsAlert() const override;
    qprac::ActCount alertRiseThreshold() const override;
    void onRfm(int flat_bank, qprac::dram::RfmScope scope,
               bool alerting_bank, qprac::Cycle cycle) override;
    void onRefresh(int flat_bank, qprac::Cycle cycle) override;
    int alertingBank() const override;
    bool bankWantsAlert(int bank) const override;
    const qprac::dram::MitigationStats& stats() const override;
    std::string name() const override;
    int queueOccupancy() const override;
    std::int64_t maxTrackedCount() const override;

  private:
    std::unique_ptr<qprac::dram::RowhammerMitigation> inner_;
    LayerClock& clock_;
    MitigationCounts& counts_;
};

/**
 * Wrap @p inner so every instance it builds is a TracedMitigation.
 * A null factory or null instance (the insecure baseline) stays null.
 */
qprac::ctrl::MitigationFactory
tracedFactory(qprac::ctrl::MitigationFactory inner, LayerClock& clock,
              MitigationCounts& counts);

} // namespace perfbench

#endif // QPRAC_PERFBENCH_LAYERS_H
