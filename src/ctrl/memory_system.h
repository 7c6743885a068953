/**
 * @file
 * The channel shard layer between the LLC and the DRAM channels, and
 * the deterministic epoch engine that executes it.
 *
 * A MemorySystem owns N independent shards — each a (MemoryController,
 * DramDevice, RowhammerMitigation) triple — and routes requests by the
 * decoded channel bits. Every shard has its own ABO engine, refresh
 * scheduler, RFM pacing state, PRAC counters and mitigation instance;
 * nothing but the command clock is shared, so an alert or quiesce on
 * one channel never perturbs another. Flat bank ids below this layer
 * are per-channel ([0, banksPerChannel())); only cross-channel stat
 * aggregation uses the global flat-bank space.
 *
 * # The epoch engine
 *
 * The LLC<->shard handoff runs over per-shard SPSC mailboxes: request
 * submits flow in (submitRead/submitWrite, stamped with their cycle),
 * read completions flow out (emitted at CAS-issue time, stamped with
 * the data-return cycle). That decoupling lets shards execute a whole
 * *epoch* of cycles at a time — runEpoch(begin, end) — with no access
 * to LLC/core state, so the shard loops can fan out across a worker
 * pool. Determinism is by construction, not by luck:
 *
 *  - A submit stamped t is ingested by its shard before the shard's
 *    tick t+1 — exactly when the serial loop's controller first saw a
 *    request enqueued at t.
 *  - A read completion is *scheduled* at CAS issue with a fixed
 *    tCL + tBL data-return latency, so every completion that fires
 *    inside an epoch was already sitting in the outbox before that
 *    epoch's main phase began, provided the epoch is no longer than
 *    that latency. epochLength() is derived as exactly this bound.
 *  - Completions drain at deterministic cycle boundaries in canonical
 *    shard order (deliverCompletions), matching the serial per-cycle
 *    channel-0..N-1 iteration.
 *
 * The same machinery executes single-threaded (a null/degree-1 pool);
 * thread count only changes which OS thread runs a shard's loop, never
 * the sequence of operations — so threads=N runs are bit-identical to
 * threads=1, and both reproduce the pre-engine serial goldens.
 */
#ifndef QPRAC_CTRL_MEMORY_SYSTEM_H
#define QPRAC_CTRL_MEMORY_SYSTEM_H

#include <functional>
#include <memory>
#include <vector>

#include "common/parallel.h"
#include "common/spsc.h"
#include "common/stats.h"
#include "ctrl/memory_controller.h"
#include "dram/dram_device.h"
#include "dram/mitigation_iface.h"

namespace qprac::obs {
class EventRecorder;
struct ShardMetrics;
} // namespace qprac::obs

namespace qprac::ctrl {

/** One LLC->shard request crossing the epoch boundary. */
struct SubmitMsg
{
    Addr addr = 0;
    dram::DecodedAddr dec;
    int source = 0;
    Cycle stamp = 0; ///< submit cycle; ingested before shard tick stamp+1
    std::function<void(Cycle)> on_complete; ///< reads only
};

/** One shard->LLC read completion, emitted at CAS-issue time. */
struct CompletionMsg
{
    Cycle at = 0; ///< data-return cycle (now + tCL + tBL at issue)
    std::function<void(Cycle)> fn;
};

/**
 * Builds one in-DRAM mitigation instance from that channel's PRAC
 * counters. The MemorySystem invokes the factory once per channel, so
 * one spec yields N independent instances (null factory or null result
 * = insecure baseline).
 */
using MitigationFactory =
    std::function<std::unique_ptr<dram::RowhammerMitigation>(
        dram::PracCounters*)>;

/**
 * Cycle-skipping efficiency counters. cycles_skipped counts shard
 * cycles never densely ticked; the wakes_* counters attribute each
 * horizon-bounded jump to the concern that ended it (WakeSource).
 * Purely observational — they never feed result documents or hashes.
 */
struct SkipStats
{
    std::uint64_t cycles_skipped = 0;
    std::uint64_t wakes_command = 0;  ///< WakeSource::CommandReady
    std::uint64_t wakes_refresh = 0;  ///< WakeSource::Refresh
    std::uint64_t wakes_recovery = 0; ///< WakeSource::Recovery
    std::uint64_t wakes_cuq = 0;      ///< WakeSource::CuqDrain (always 0:
                                      ///< cuq drains are command-lazy)
    std::uint64_t wakes_mailbox = 0;  ///< WakeSource::Mailbox
    std::uint64_t wakes_epoch = 0;    ///< jump truncated by the window

    /** Attribute one wake to @p why. */
    void note(WakeSource why);

    /** Accumulate another shard's counters. */
    void add(const SkipStats& o);
};

/** N-channel sharded memory system. */
class MemorySystem
{
  public:
    MemorySystem(const dram::Organization& org,
                 const dram::TimingParams& timing,
                 const ControllerConfig& ctrl_config,
                 const MitigationFactory& mitigation, int blast_radius = 2,
                 const dram::CounterUpdateConfig& counter_update = {});

    int channels() const { return static_cast<int>(shards_.size()); }
    const dram::Organization& organization() const { return org_; }

    // --- Routing (by the decoded channel bits) --------------------------
    /** Enqueue a read on @p dec's channel; false when that queue is full. */
    bool enqueueRead(Addr addr, const dram::DecodedAddr& dec, int source,
                     std::function<void(Cycle)> on_complete, Cycle now);

    /** Enqueue a posted write; false when that channel's queue is full. */
    bool enqueueWrite(Addr addr, const dram::DecodedAddr& dec, int source,
                      Cycle now);

    bool readQueueFull(int channel) const;
    bool writeQueueFull(int channel) const;

    /** Advance every channel one DRAM command-clock cycle. */
    void tick(Cycle now);

    /** True when no shard has requests queued, mailboxed or in flight. */
    bool drained() const;

    // --- Epoch engine (mailbox handoff; see file comment) ---------------
    /**
     * Max cycles a shard may run ahead of the LLC: the CAS-issue ->
     * data-return latency (tCL + tBL), i.e. the minimum lookahead of
     * any shard->LLC interaction. Always >= 1.
     */
    Cycle epochLength() const { return epoch_; }

    /**
     * Mail a read to @p dec's channel. Admission control against the
     * controller's bounded read queue happens shard-side at ingest;
     * the mailbox itself must never fill — the LLC's MSHR limit bounds
     * outstanding reads, and the ring is sized far beyond any MSHR
     * file (fatal assert otherwise). @p on_complete fires from
     * deliverCompletions at the data-return cycle.
     */
    void submitRead(Addr addr, const dram::DecodedAddr& dec, int source,
                    std::function<void(Cycle)> on_complete, Cycle now);

    /**
     * Mail a posted write to @p dec's channel; false when that
     * channel's write mailbox is full (writebacks have no MSHR-style
     * bound, so the caller keeps the entry and retries next cycle).
     */
    bool submitWrite(Addr addr, const dram::DecodedAddr& dec, int source,
                     Cycle now);

    /**
     * Fire every mailboxed completion due at or before @p now, in
     * canonical channel order and per-channel FIFO (= data-return
     * cycle) order. Call once per cycle before the LLC/core ticks.
     */
    void deliverCompletions(Cycle now);

    /**
     * Run every shard's tick loop over [begin, end) — at most
     * epochLength() cycles — ingesting mailboxed submits stamped
     * before each cycle and emitting completions to the outboxes.
     * With a pool of degree > 1 the shards run on the worker pool;
     * results are identical either way.
     *
     * @p emit_guard is the earliest cycle a completion emitted inside
     * this window may fire at (0 = @p end, the v1 alternating-phase
     * bound). The pipelined engine runs its main phase one window
     * ahead of the shards and passes end + window so the overlap is
     * assert-checked, not assumed.
     */
    void runEpoch(Cycle begin, Cycle end, WorkerPool* pool,
                  Cycle emit_guard = 0);

    /**
     * Run one shard's tick loop over [begin, end) — the task body of
     * runEpoch, exposed so the engine can dispatch shard windows to
     * its pool while its own main phase runs (sim/system.cc).
     * Safe to call from any thread, one call per shard at a time.
     */
    void runShard(int channel, Cycle begin, Cycle end, Cycle emit_guard);

    /**
     * Refresh every shard's submit-mailbox staged producer view
     * (common/spsc.h). The pipelined engine calls this at each window
     * barrier (shard consumers quiescent) from the submitting thread;
     * the serial tick() path syncs itself every cycle.
     */
    void syncSubmitMailboxes();

    /** Land buffered ACT notifications on every channel's mitigation. */
    void flushMitigationActs() const;

    // --- Observability ---------------------------------------------------
    /**
     * Attach (or detach, with nullptr) a run-wide recorder: each
     * shard's event lane goes to its controller chain (device, ABO,
     * refresh, per-bank recovery) and mitigation, and the shard starts
     * driving its epoch-aligned metrics sampler. Recording points are
     * command-/transition-synchronized and samples fire at fixed
     * stamps, so traces and series are byte-identical across
     * threads/pipeline/skip — see obs/obs.h.
     */
    void setEventRecorder(obs::EventRecorder* recorder);

    // --- Cycle skipping (next-event shard loops) -------------------------
    /**
     * Enable/disable horizon-bounded jumps in runShard. With skipping
     * on, each shard asks its controller for an event horizon
     * (MemoryController::nextEventAt) after every tick and bulk-skips
     * the dead cycles up to it, clamped by the staged submit mailbox
     * heads (a submit stamped t is ingested before tick t+1) and the
     * window end. The observable command sequence is bit-identical to
     * dense ticking — the horizon is a conservative bound and every
     * external input lands on a wake — so results, goldens and
     * scenario hashes are unaffected. The serial tick() path honours
     * the same horizon: its caller still calls it every cycle, but a
     * shard whose horizon and staged submit heads lie in the future
     * is not ticked (counted in skipStats() like a runShard jump).
     * Direct enqueues reset the horizon, so a caller may enqueue on
     * any cycle. No cycle-proportional per-tick state exists in the
     * controller or device (stats count commands, ages derive from
     * arrival stamps), so skipping needs no bulk catch-up.
     */
    void setCycleSkipping(bool on);

    bool cycleSkipping() const { return skip_; }

    /** Summed per-shard skip counters (zeros when skipping is off). */
    SkipStats skipStats() const;

    // --- Per-shard access -----------------------------------------------
    dram::DramDevice& device(int channel);
    const dram::DramDevice& device(int channel) const;
    MemoryController& controller(int channel);
    const MemoryController& controller(int channel) const;
    dram::RowhammerMitigation* mitigation(int channel) const;

    // --- Cross-channel aggregation --------------------------------------
    dram::DeviceStats deviceStats() const;
    CtrlStats ctrlStats() const;
    /** Summed counter write-back queue ledger (all channels). */
    dram::CounterUpdateStats counterUpdateStats() const;
    /** Summed mitigation stats (zeros when no mitigation is attached). */
    dram::MitigationStats mitigationStats() const;
    bool hasMitigation() const;
    /** Σ ABO alerts over all channels. */
    std::uint64_t alerts() const;

    /**
     * Export dram./ctrl./mit. aggregates under @p prefix; with more than
     * one channel also per-channel copies under "<prefix>chK.".
     */
    void exportStats(StatSet& out, const std::string& prefix) const;

  private:
    struct Shard
    {
        std::unique_ptr<dram::DramDevice> device;
        std::unique_ptr<dram::RowhammerMitigation> mitigation;
        std::unique_ptr<MemoryController> controller;
        /** Main -> shard mailboxes (separate rings: reads and writes
         * were always admitted independently by the serial loop). */
        std::unique_ptr<SpscRing<SubmitMsg>> read_in;
        std::unique_ptr<SpscRing<SubmitMsg>> write_in;
        /** Shard -> main completion outbox (per-shard clock domain). */
        std::unique_ptr<SpscRing<CompletionMsg>> complete_out;
        Cycle epoch_end = 0; ///< first cycle after the current epoch
        /** Persisted event horizon (cycle skipping): no controller
         * event before this cycle absent external input. 0 = unknown,
         * tick densely. Survives window boundaries; invalidated by
         * direct enqueues (the serial paths bypass the mailboxes). */
        Cycle wake_at = 0;
        WakeSource wake_why = WakeSource::CommandReady;
        /** The serial tick() skipped this shard's last cycle; its next
         * tick is a wake to attribute. */
        bool asleep = false;
        SkipStats skip; ///< this shard's skip counters
        /** Metrics sampler state (owned by the EventRecorder; null =
         * metrics off). Written only from this shard's tick loop. */
        obs::ShardMetrics* metrics = nullptr;

        /** A direct enqueue landed: tick densely until recomputed (it
         * is external input, attributed like a mailbox arrival). */
        void wake()
        {
            wake_at = 0;
            wake_why = WakeSource::Mailbox;
        }
    };

    Shard& shard(int channel);
    const Shard& shard(int channel) const;

    void ingest(Shard& s, Cycle now);
    void tickShard(Shard& s, Cycle now);

    /** Append one metrics row stamped @p at from @p s's current state. */
    void sampleShard(Shard& s, Cycle at);

    /** Fire every sample scheduled at or before @p limit. */
    void sampleUpTo(Shard& s, Cycle limit);

    /** Earliest cycle @p s must tick (skipping on): its persisted
     * horizon, clamped by the staged submit heads (a submit stamped t
     * is ingested before tick t + 1). @p why receives the cause. */
    Cycle nextWake(Shard& s, WakeSource* why) const;

    dram::Organization org_;
    Cycle epoch_ = 1;
    bool skip_ = false;
    std::vector<Shard> shards_;
};

} // namespace qprac::ctrl

#endif // QPRAC_CTRL_MEMORY_SYSTEM_H
