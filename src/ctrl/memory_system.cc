#include "ctrl/memory_system.h"

#include <algorithm>

#include "common/log.h"
#include "obs/obs.h"

namespace qprac::ctrl {

namespace {

/**
 * Mailbox sizing. Reads are bounded by the LLC's MSHR file (64 by
 * default) plus one epoch of completion-freed re-issues; completions
 * by outstanding reads plus one epoch of delivery lag. Writebacks have
 * no architectural bound — the LLC keeps its unbounded pending deque
 * as the overflow buffer and retries when submitWrite reports a full
 * ring — so the ring only needs to cover the in-flight window.
 */
constexpr std::size_t kMailboxCapacity = 4096;

} // namespace

void
SkipStats::note(WakeSource why)
{
    switch (why) {
      case WakeSource::CommandReady:
        ++wakes_command;
        break;
      case WakeSource::Refresh:
        ++wakes_refresh;
        break;
      case WakeSource::Recovery:
        ++wakes_recovery;
        break;
      case WakeSource::CuqDrain:
        ++wakes_cuq;
        break;
      case WakeSource::Mailbox:
        ++wakes_mailbox;
        break;
      case WakeSource::EpochBoundary:
        ++wakes_epoch;
        break;
    }
}

void
SkipStats::add(const SkipStats& o)
{
    cycles_skipped += o.cycles_skipped;
    wakes_command += o.wakes_command;
    wakes_refresh += o.wakes_refresh;
    wakes_recovery += o.wakes_recovery;
    wakes_cuq += o.wakes_cuq;
    wakes_mailbox += o.wakes_mailbox;
    wakes_epoch += o.wakes_epoch;
}

MemorySystem::MemorySystem(const dram::Organization& org,
                           const dram::TimingParams& timing,
                           const ControllerConfig& ctrl_config,
                           const MitigationFactory& mitigation,
                           int blast_radius,
                           const dram::CounterUpdateConfig& counter_update)
    : org_(org)
{
    QP_ASSERT(org.channels >= 1, "need at least one channel");
    // The epoch bound: a read completion is scheduled at CAS issue and
    // fires tCL + tBL cycles later (Bank::doRead), so shards may run
    // that many cycles ahead of the LLC without a completion ever
    // landing in a main-phase cycle that already executed.
    epoch_ = std::max<Cycle>(
        1, static_cast<Cycle>(timing.tCL) + static_cast<Cycle>(timing.tBL));
    shards_.reserve(static_cast<std::size_t>(org.channels));
    for (int c = 0; c < org.channels; ++c) {
        Shard s;
        s.device = std::make_unique<dram::DramDevice>(
            org, timing, blast_radius, counter_update);
        if (mitigation)
            s.mitigation = mitigation(&s.device->pracCounters());
        s.device->setMitigation(s.mitigation.get());
        s.controller =
            std::make_unique<MemoryController>(*s.device, ctrl_config);
        s.read_in = std::make_unique<SpscRing<SubmitMsg>>(kMailboxCapacity);
        s.write_in =
            std::make_unique<SpscRing<SubmitMsg>>(kMailboxCapacity);
        s.complete_out =
            std::make_unique<SpscRing<CompletionMsg>>(kMailboxCapacity);
        shards_.push_back(std::move(s));
        // shards_ is reserved up front, so this reference stays valid.
        Shard& ref = shards_.back();
        ref.controller->setCompletionSink(
            [&ref](Cycle at, std::function<void(Cycle)> fn) {
                // The engine's safety condition: everything emitted in
                // an epoch fires strictly after it.
                QP_ASSERT(at >= ref.epoch_end,
                          "completion scheduled with less lookahead "
                          "than the epoch length");
                bool ok = ref.complete_out->push({at, std::move(fn)});
                QP_ASSERT(ok, "completion outbox overflow");
            });
    }
}

MemorySystem::Shard&
MemorySystem::shard(int channel)
{
    QP_ASSERT(channel >= 0 && channel < channels(),
              "channel out of range");
    return shards_[static_cast<std::size_t>(channel)];
}

const MemorySystem::Shard&
MemorySystem::shard(int channel) const
{
    QP_ASSERT(channel >= 0 && channel < channels(),
              "channel out of range");
    return shards_[static_cast<std::size_t>(channel)];
}

bool
MemorySystem::enqueueRead(Addr addr, const dram::DecodedAddr& dec,
                          int source,
                          std::function<void(Cycle)> on_complete,
                          Cycle now)
{
    Shard& s = shard(dec.channel);
    if (!s.controller->enqueueRead(addr, dec, source, std::move(on_complete),
                                   now))
        return false;
    s.wake();
    return true;
}

bool
MemorySystem::enqueueWrite(Addr addr, const dram::DecodedAddr& dec,
                           int source, Cycle now)
{
    Shard& s = shard(dec.channel);
    if (!s.controller->enqueueWrite(addr, dec, source, now))
        return false;
    s.wake();
    return true;
}

bool
MemorySystem::readQueueFull(int channel) const
{
    return shard(channel).controller->readQueueFull();
}

bool
MemorySystem::writeQueueFull(int channel) const
{
    return shard(channel).controller->writeQueueFull();
}

void
MemorySystem::submitRead(Addr addr, const dram::DecodedAddr& dec,
                         int source,
                         std::function<void(Cycle)> on_complete,
                         Cycle now)
{
    // Staged pushes keep full/not-full deterministic while the
    // pipelined engine's shards drain these rings concurrently.
    bool ok = shard(dec.channel)
                  .read_in->pushStaged(
                      {addr, dec, source, now, std::move(on_complete)});
    QP_ASSERT(ok, "read mailbox overflow (MSHR file larger than the "
                  "mailbox capacity?)");
}

bool
MemorySystem::submitWrite(Addr addr, const dram::DecodedAddr& dec,
                          int source, Cycle now)
{
    return shard(dec.channel)
        .write_in->pushStaged({addr, dec, source, now, {}});
}

void
MemorySystem::syncSubmitMailboxes()
{
    for (auto& s : shards_) {
        s.read_in->syncProducer();
        s.write_in->syncProducer();
    }
}

void
MemorySystem::ingest(Shard& s, Cycle now)
{
    // A submit stamped t becomes visible at shard tick t+1 — the cycle
    // the serial loop's controller first scheduled it. Writes drain
    // first, mirroring the serial order (LLC writeback drain ran
    // before the cores' reads within a cycle); entries blocked by a
    // full controller queue stay mailboxed, FIFO intact, exactly like
    // the serial loop left them in the LLC's pending deque.
    //
    // Requests are enqueued with arrive = now - 1, the cycle the serial
    // loop's (retrying) enqueue call succeeded: for an unblocked entry
    // that equals its submit stamp, and for a backpressured one it is
    // the retry cycle that finally found queue space — so quiesce-drain
    // decisions keyed on arrival (issueQuiescePre) match the serial
    // engine under saturation too. now >= 1 whenever an entry is
    // eligible (stamps are >= 0 and must be < now).
    while (SubmitMsg* m = s.write_in->peek()) {
        if (m->stamp >= now || s.controller->writeQueueFull())
            break;
        bool ok = s.controller->enqueueWrite(m->addr, m->dec, m->source,
                                             now - 1);
        QP_ASSERT(ok, "write admission raced with writeQueueFull()");
        s.write_in->popFront();
    }
    while (SubmitMsg* m = s.read_in->peek()) {
        if (m->stamp >= now || s.controller->readQueueFull())
            break;
        bool ok = s.controller->enqueueRead(m->addr, m->dec, m->source,
                                            std::move(m->on_complete),
                                            now - 1);
        QP_ASSERT(ok, "read admission raced with readQueueFull()");
        s.read_in->popFront();
    }
}

void
MemorySystem::sampleShard(Shard& s, Cycle at)
{
    // Land buffered ACT notifications before reading mitigation state:
    // batching is delivery-timing transparent (every decision point
    // flushes first), but the lazy flush points differ between the
    // dense and next-event loops — forcing the flush here pins the
    // sampled occupancy/count to "all ACTs issued before this tick",
    // identical in every engine mode.
    s.device->flushMitigationActs();
    const dram::RowhammerMitigation* mit = s.mitigation.get();
    // Column order must match obs::metricsTrackNames().
    s.metrics->series.append(
        at,
        {mit ? static_cast<std::int64_t>(mit->queueOccupancy()) : -1,
         mit ? mit->maxTrackedCount() : -1,
         static_cast<std::int64_t>(s.device->actsSinceAlertService()),
         static_cast<std::int64_t>(s.device->cuqOccupancy()),
         static_cast<std::int64_t>(s.controller->readQueueDepth())});
}

void
MemorySystem::sampleUpTo(Shard& s, Cycle limit)
{
    obs::ShardMetrics& m = *s.metrics;
    while (m.next_sample_at <= limit) {
        sampleShard(s, m.next_sample_at);
        m.next_sample_at += m.interval;
    }
}

void
MemorySystem::tickShard(Shard& s, Cycle now)
{
    // Samples stamped in (last executed tick, now] fire here, before
    // the tick mutates anything. Skipped spans change no sampled state
    // (no commands, no ingest — both are wakes), so a sample fired
    // "late" after a jump reads exactly the values dense execution
    // would have read at its stamp.
    if (s.metrics)
        sampleUpTo(s, now);
    ingest(s, now);
    s.controller->tick(now);
}

void
MemorySystem::deliverCompletions(Cycle now)
{
    for (auto& s : shards_) {
        while (CompletionMsg* m = s.complete_out->peek()) {
            if (m->at > now)
                break;
            auto fn = std::move(m->fn);
            Cycle at = m->at;
            s.complete_out->popFront();
            if (fn)
                fn(at);
        }
    }
}

Cycle
MemorySystem::nextWake(Shard& s, WakeSource* why) const
{
    Cycle at = kNeverCycle;
    if (SubmitMsg* m = s.write_in->peek())
        at = std::min(at, m->stamp + 1);
    if (SubmitMsg* m = s.read_in->peek())
        at = std::min(at, m->stamp + 1);
    if (at < s.wake_at) {
        *why = WakeSource::Mailbox;
        return at;
    }
    *why = s.wake_why;
    return s.wake_at;
}

void
MemorySystem::runShard(int channel, Cycle begin, Cycle end,
                       Cycle emit_guard)
{
    Shard& s = shard(channel);
    s.epoch_end = emit_guard;
    if (!skip_) {
        for (Cycle u = begin; u < end; ++u)
            tickShard(s, u);
        return;
    }
    // Next-event loop: after each tick the controller advertises the
    // earliest cycle it could act again (nextEventAt, a conservative
    // bound), and the loop jumps straight there. Two clamps keep the
    // jump sound against external input: the staged submit heads (a
    // submit stamped t must be ingested before tick t+1 — within this
    // window the staged producer view is fixed, and heads only advance
    // at ticks we execute) and the window end (the LLC interacts at
    // window boundaries; the persisted wake_at survives into the next
    // window). Everything else the controller can do is, by the
    // horizon contract, not before wake_at — so the skipped cycles are
    // exactly the ticks dense execution would have spent doing nothing.
    for (Cycle u = begin; u < end;) {
        WakeSource why = WakeSource::CommandReady;
        const Cycle wake = nextWake(s, &why);
        if (wake > u) {
            Cycle to = std::min(wake, end);
            s.skip.cycles_skipped += to - u;
            u = to;
            if (u >= end) {
                // The window closed before the horizon. Samples the
                // jump skipped over still belong to this window (dense
                // execution fires them at ticks <= end - 1).
                if (s.metrics)
                    sampleUpTo(s, end - 1);
                s.skip.note(WakeSource::EpochBoundary);
                break;
            }
            s.skip.note(why);
        }
        tickShard(s, u);
        s.wake_at = s.controller->nextEventAt(u, &s.wake_why);
        ++u;
    }
}

void
MemorySystem::runEpoch(Cycle begin, Cycle end, WorkerPool* pool,
                       Cycle emit_guard)
{
    QP_ASSERT(end > begin, "empty epoch");
    QP_ASSERT(end - begin <= epoch_,
              "epoch longer than the completion lookahead");
    // Alternating-phase callers push between runEpoch calls; syncing
    // here (producer thread, shards quiescent) makes the staged submit
    // view identical to the live head the v1 engine always saw.
    syncSubmitMailboxes();
    const Cycle guard = emit_guard ? emit_guard : end;
    auto task = [&](std::size_t i) {
        runShard(static_cast<int>(i), begin, end, guard);
    };
    if (pool && pool->degree() > 1 && shards_.size() > 1)
        pool->run(shards_.size(), task);
    else
        for (std::size_t i = 0; i < shards_.size(); ++i)
            task(i);
}

void
MemorySystem::tick(Cycle now)
{
    // Serial compatibility path (direct drivers and tests): each tick
    // is a one-cycle epoch with completions delivered inline. Producer
    // and consumer are the same thread here, so syncing every cycle
    // makes the staged submit view identical to the live one.
    syncSubmitMailboxes();
    deliverCompletions(now);
    for (auto& s : shards_) {
        if (skip_) {
            // runShard's horizon, one cycle at a time: the caller's
            // only inputs are direct enqueues (they reset wake_at) and
            // staged submits (their heads clamp it), so a shard whose
            // wake lies in the future has nothing to do this cycle.
            WakeSource why = WakeSource::CommandReady;
            if (nextWake(s, &why) > now) {
                ++s.skip.cycles_skipped;
                s.asleep = true;
                // The sample the skipped tick would have fired.
                if (s.metrics)
                    sampleUpTo(s, now);
                continue;
            }
            if (s.asleep) {
                s.skip.note(why);
                s.asleep = false;
            }
        }
        s.epoch_end = now + 1;
        tickShard(s, now);
        if (skip_)
            s.wake_at = s.controller->nextEventAt(now, &s.wake_why);
    }
}

void
MemorySystem::setEventRecorder(obs::EventRecorder* recorder)
{
    for (int c = 0; c < channels(); ++c) {
        Shard& s = shards_[static_cast<std::size_t>(c)];
        obs::EventSink* sink = recorder ? recorder->sink(c) : nullptr;
        s.metrics = recorder ? recorder->metrics(c) : nullptr;
        s.controller->setObservability(sink, s.metrics);
        if (s.mitigation)
            s.mitigation->setEventSink(sink);
    }
}

void
MemorySystem::setCycleSkipping(bool on)
{
    skip_ = on;
    for (auto& s : shards_) {
        s.wake_at = 0;
        s.asleep = false;
    }
}

SkipStats
MemorySystem::skipStats() const
{
    SkipStats total;
    for (const auto& s : shards_)
        total.add(s.skip);
    return total;
}

bool
MemorySystem::drained() const
{
    for (const auto& s : shards_)
        if (!s.controller->drained() || !s.read_in->empty() ||
            !s.write_in->empty() || !s.complete_out->empty())
            return false;
    return true;
}

void
MemorySystem::flushMitigationActs() const
{
    for (const auto& s : shards_)
        s.device->flushMitigationActs();
}

dram::DramDevice&
MemorySystem::device(int channel)
{
    return *shard(channel).device;
}

const dram::DramDevice&
MemorySystem::device(int channel) const
{
    return *shard(channel).device;
}

MemoryController&
MemorySystem::controller(int channel)
{
    return *shard(channel).controller;
}

const MemoryController&
MemorySystem::controller(int channel) const
{
    return *shard(channel).controller;
}

dram::RowhammerMitigation*
MemorySystem::mitigation(int channel) const
{
    return shard(channel).mitigation.get();
}

dram::DeviceStats
MemorySystem::deviceStats() const
{
    dram::DeviceStats total;
    for (const auto& s : shards_)
        total.add(s.device->stats());
    return total;
}

dram::CounterUpdateStats
MemorySystem::counterUpdateStats() const
{
    dram::CounterUpdateStats total;
    for (const auto& s : shards_)
        total.add(s.device->counterUpdateStats());
    return total;
}

CtrlStats
MemorySystem::ctrlStats() const
{
    CtrlStats total;
    for (const auto& s : shards_)
        total.add(s.controller->stats());
    return total;
}

dram::MitigationStats
MemorySystem::mitigationStats() const
{
    dram::MitigationStats total;
    flushMitigationActs();
    for (const auto& s : shards_)
        if (s.mitigation)
            total.add(s.mitigation->stats());
    return total;
}

bool
MemorySystem::hasMitigation() const
{
    for (const auto& s : shards_)
        if (s.mitigation)
            return true;
    return false;
}

std::uint64_t
MemorySystem::alerts() const
{
    std::uint64_t total = 0;
    for (const auto& s : shards_)
        total += s.controller->abo().alerts();
    return total;
}

void
MemorySystem::exportStats(StatSet& out, const std::string& prefix) const
{
    // mitigationStats() flushes buffered ACTs before the per-channel
    // reads below; no separate flush needed here.
    deviceStats().exportTo(out, prefix + "dram.");
    ctrlStats().exportTo(out, prefix + "ctrl.");
    if (hasMitigation())
        mitigationStats().exportTo(out, prefix + "mit.");
    // Counter write-back stats exist only off the critical path; the
    // inline configuration's stat set stays byte-identical to pre-
    // subarray output (part of the golden-pin contract).
    const bool queued_updates =
        !shards_.empty() &&
        shards_.front().device->counterUpdateConfig().offCriticalPath();
    if (queued_updates)
        counterUpdateStats().exportTo(out, prefix + "dram.counter_update.");
    if (channels() > 1) {
        for (int c = 0; c < channels(); ++c) {
            const std::string ch = prefix + strCat("ch", c, ".");
            const Shard& s = shards_[static_cast<std::size_t>(c)];
            s.device->stats().exportTo(out, ch + "dram.");
            s.controller->stats().exportTo(out, ch + "ctrl.");
            if (queued_updates)
                s.device->counterUpdateStats().exportTo(
                    out, ch + "dram.counter_update.");
            if (s.mitigation)
                s.mitigation->stats().exportTo(out, ch + "mit.");
        }
    }
}

} // namespace qprac::ctrl
