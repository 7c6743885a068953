/**
 * @file
 * The memory controller: request queues, FR-FCFS scheduling with an
 * open-page policy, write draining, refresh, the ABO protocol, and
 * controller-paced RFM policies.
 */
#ifndef QPRAC_CTRL_MEMORY_CONTROLLER_H
#define QPRAC_CTRL_MEMORY_CONTROLLER_H

#include <queue>
#include <string>

#include "common/stats.h"
#include "ctrl/abo.h"
#include "ctrl/refresh.h"
#include "ctrl/request.h"
#include "ctrl/scheduler.h"
#include "dram/dram_device.h"
#include "mitigations/rfm_policy.h"

namespace qprac::obs {
class EventSink;
struct ShardMetrics;
} // namespace qprac::obs

namespace qprac::ctrl {

/** Controller configuration. */
struct ControllerConfig
{
    int read_q_capacity = 64;
    int write_q_capacity = 64;
    int write_drain_high = 48; ///< enter drain mode at this occupancy
    int write_drain_low = 16;  ///< leave drain mode at this occupancy
    AboConfig abo;
    mitigations::RfmPolicy rfm_policy; ///< Mithril/PrIDE pacing (optional)
};

/**
 * Why a skipped shard woke up: the concern that produced the winning
 * (earliest) horizon in MemoryController::nextEventAt, plus the two
 * engine-level wake sources (mailbox arrivals, epoch windows) that
 * clamp the jump in MemorySystem::runShard.
 */
enum class WakeSource
{
    CommandReady,  ///< a queued request's timing constraint expires
    Refresh,       ///< a rank's tREFI deadline or REF drain completes
    Recovery,      ///< an ABO / per-bank recovery machine transition
    CuqDrain,      ///< counter-update-queue work (lazy: never fires, see
                   ///< MemoryController::nextEventAt)
    Mailbox,       ///< a staged submit becomes eligible for ingest,
                   ///< or a direct enqueue arrived (serial path)
    EpochBoundary, ///< the shard window ended before the horizon
};

/** Controller stat counters. */
struct CtrlStats
{
    std::uint64_t reads_enqueued = 0;
    std::uint64_t writes_enqueued = 0;
    std::uint64_t reads_done = 0;
    std::uint64_t row_hits = 0;
    std::uint64_t row_misses = 0;
    std::uint64_t read_latency_sum = 0;
    std::uint64_t alerts = 0;
    std::uint64_t rfms = 0;
    std::uint64_t policy_rfms = 0;
    std::uint64_t refs = 0;

    void exportTo(StatSet& out, const std::string& prefix) const;

    /** Accumulate another channel's counters (cross-channel totals). */
    void add(const CtrlStats& o);
};

/**
 * DDR5 memory controller for one channel. MemorySystem owns one
 * instance per channel; ABO, refresh, RFM pacing and the per-bank RAA
 * vectors are all channel-local state.
 */
class MemoryController
{
  public:
    /**
     * Receives every scheduled read completion at CAS-issue time: the
     * data-return cycle plus the requester's callback. The epoch engine
     * (ctrl/memory_system.h) installs one per shard to route
     * completions into that shard's outbox mailbox; without a sink the
     * controller fires callbacks itself at the completion cycle.
     *
     * Scheduling happens tCL + tBL cycles before the completion fires —
     * the lookahead the engine's epoch length is derived from.
     */
    using CompletionSink =
        std::function<void(Cycle at, std::function<void(Cycle)> fn)>;

    MemoryController(dram::DramDevice& dev, const ControllerConfig& config);

    void setCompletionSink(CompletionSink sink)
    {
        completion_sink_ = std::move(sink);
    }

    /**
     * Attach the shard's observability lanes (either may be null).
     * Forwards the event sink to the ABO engine, the refresh scheduler
     * and the per-bank recovery machinery.
     */
    void setObservability(obs::EventSink* sink, obs::ShardMetrics* metrics);

    /**
     * Enqueue a read; @p on_complete fires at data return.
     * @return false when the read queue is full (caller retries).
     */
    bool enqueueRead(Addr addr, const dram::DecodedAddr& dec, int source,
                     std::function<void(Cycle)> on_complete, Cycle now);

    /** Enqueue a posted write; false when the write queue is full. */
    bool enqueueWrite(Addr addr, const dram::DecodedAddr& dec, int source,
                      Cycle now);

    /** Advance one DRAM command-clock cycle. */
    void tick(Cycle now);

    /**
     * Event horizon for the cycle-skipping engine: the earliest future
     * cycle (> @p now) at which this controller could change observable
     * state — issue a command, fire a completion, or move a state
     * machine — assuming *no external input* (no enqueue) arrives in
     * between. Call after tick(now); the MemorySystem shard loop jumps
     * straight to the returned cycle.
     *
     * Contract: the bound is conservative (never over-reports). Waking
     * earlier than the true event is always safe — the shard just pays
     * a dense tick — so every concern below is a lower bound, and
     * anything that cannot be bounded cheaply returns now + 1 (dense).
     * Gated candidates (an ACT behind a quiesce, a CAS behind a pump)
     * are excluded by induction: the gate can only open on a machine
     * transition that is itself a wake, after which the horizon is
     * recomputed with the gate open. CounterUpdateQueues contribute no
     * concern at all: their drains are evaluated lazily at command
     * time (dram/counter_update.h), so between commands they cannot
     * change state — the CuqDrain wake source is honestly zero.
     *
     * @param why (optional) receives the concern that produced the
     *        winning horizon.
     */
    Cycle nextEventAt(Cycle now, WakeSource* why = nullptr) const;

    /** True when no requests are queued or in flight. */
    bool drained() const;

    bool readQueueFull() const { return reads_.full(); }
    bool writeQueueFull() const { return writes_.full(); }
    int readQueueCapacity() const { return reads_.capacity(); }
    int readQueueDepth() const { return reads_.size(); }

    CtrlStats stats() const;
    const AboEngine& abo() const { return abo_; }
    dram::DramDevice& device() { return dev_; }

  private:
    struct Completion
    {
        Cycle at;
        std::function<void(Cycle)> fn;
        bool operator>(const Completion& o) const { return at > o.at; }
    };

    void processCompletions(Cycle now);
    bool issueQuiescePre(Cycle now);
    bool scheduleQueue(RequestQueue& q, bool is_write,
                       const SchedConstraints& cons, Cycle now);
    void maybeTriggerPolicyRfm();
    void noteActForPolicy(int flat_bank, Cycle now);
    bool servicePerBankRfms(Cycle now);
    void setBankRfmPending(int flat_bank, Cycle now);
    void clearBankRfmPending(int flat_bank);

    /**
     * True when some bank may be under quiesce, REF or per-bank-RFM
     * demand: a channel-wide quiesce, a per-bank recovery in flight, a
     * pending REF on any rank, or a pending per-bank policy RFM. O(ranks)
     * from held state; when false, the per-bank demand sweeps in tick()
     * and nextEventAt() would find nothing and are skipped.
     */
    bool bankDemand() const;

    dram::DramDevice& dev_;
    ControllerConfig cfg_;
    CompletionSink completion_sink_;
    obs::EventSink* sink_ = nullptr;
    obs::ShardMetrics* metrics_ = nullptr;
    RequestQueue reads_;
    RequestQueue writes_;
    bool drain_mode_ = false;
    AboEngine abo_;
    RefreshScheduler refresh_;
    std::priority_queue<Completion, std::vector<Completion>,
                        std::greater<Completion>>
        completions_;
    std::uint64_t acts_since_policy_rfm_ = 0;
    std::vector<std::uint32_t> bank_policy_acts_; ///< per-bank RAA counters
    std::vector<char> bank_rfm_pending_;
    std::vector<Cycle> bank_rfm_since_;
    /** Number of set bank_rfm_pending_ entries (changed only by
     * setBankRfmPending / clearBankRfmPending). */
    int bank_rfms_pending_ = 0;
    /** Per-rank REF gate handed to the scheduler by pointer; sized once
     * here and refreshed in place so the per-tick constraint build
     * never touches the heap. */
    std::vector<char> rank_ref_blocked_;
    /** Per-bank scheduling gates (isolated recovery policies): the
     * union of policy-RFM pending and the recovery engine's blocking,
     * rebuilt in place only on ticks where that recovery is in flight.
     * Unused (empty) under channel-stall — those ticks alias the
     * policy-RFM vector instead of rebuilding anything. */
    std::vector<char> recovery_act_blocked_;
    std::vector<char> recovery_cas_blocked_;
    std::uint64_t per_bank_policy_rfms_ = 0;
    std::uint64_t next_req_id_ = 0;
    CtrlStats stats_;
};

} // namespace qprac::ctrl

#endif // QPRAC_CTRL_MEMORY_CONTROLLER_H
