#include "sim/system.h"

#include <algorithm>
#include <chrono>

#include "common/json.h"
#include "common/log.h"
#include "common/parse.h"

namespace qprac::sim {

bool
parseEngineToggle(const std::string& text, EngineToggle* out)
{
    const std::string t = trimmed(text);
    if (t == "auto")
        *out = EngineToggle::Auto;
    else if (t == "on" || t == "true" || t == "1")
        *out = EngineToggle::On;
    else if (t == "off" || t == "false" || t == "0")
        *out = EngineToggle::Off;
    else
        return false;
    return true;
}

std::string
toString(EngineToggle t)
{
    switch (t) {
    case EngineToggle::Auto:
        return "auto";
    case EngineToggle::On:
        return "on";
    case EngineToggle::Off:
        return "off";
    }
    return "auto";
}

int
enginePoolDegree(int threads, int channels, bool pipeline)
{
    threads = std::max(1, threads);
    // The useful parallel width: one lane per shard, plus the caller
    // lane when the main phase runs concurrently (pipeline) — capped by
    // the thread budget, so a run never keeps more than `threads`
    // threads busy.
    const int width = pipeline ? channels + 1 : channels;
    return std::max(1, std::min(threads, width));
}

System::System(const SystemConfig& config, MitigationFactory mitigation,
               std::vector<std::unique_ptr<cpu::TraceSource>> traces)
    : cfg_(config),
      mapper_(config.org, config.mapping),
      traces_(std::move(traces))
{
    QP_ASSERT(static_cast<int>(traces_.size()) == cfg_.num_cores,
              "one trace per core required");
    memory_ = std::make_unique<ctrl::MemorySystem>(
        cfg_.org, cfg_.timing, cfg_.ctrl, mitigation, cfg_.blast_radius,
        cfg_.counter_update);
    llc_ = std::make_unique<cpu::SharedLlc>(cfg_.llc, *memory_, mapper_);

    // Resolve the engine v2 switches. Every `auto` resolves from the
    // config alone (never the host), so results are machine-portable.
    const Cycle lookahead = memory_->epochLength();
    const bool can_split = lookahead >= 2;
    pipeline_ = cfg_.engine.pipeline == EngineToggle::On ||
                (cfg_.engine.pipeline == EngineToggle::Auto && can_split);
    if (pipeline_ && !can_split) {
        warn("pipeline=on needs a completion lookahead >= 2; running "
             "the alternating engine");
        pipeline_ = false;
    }
    // The pipelined window: half the lookahead, so everything a shard
    // window emits lands beyond the main window running one step ahead.
    step_ = pipeline_ ? std::max<Cycle>(1, lookahead / 2) : lookahead;

    const int degree =
        enginePoolDegree(cfg_.threads, cfg_.org.channels, pipeline_);
    if (degree > 1)
        pool_ = std::make_unique<WorkerPool>(degree);
    // Cycle skipping is bit-identical to dense ticking (the horizon
    // contract, ctrl/memory_system.h), so auto = on.
    skip_ = cfg_.engine.skip != EngineToggle::Off;
    memory_->setCycleSkipping(skip_);
    if (cfg_.recorder)
        memory_->setEventRecorder(cfg_.recorder);

    for (int i = 0; i < cfg_.num_cores; ++i)
        cores_.push_back(std::make_unique<cpu::O3Core>(
            i, cfg_.core, *traces_[static_cast<std::size_t>(i)], *llc_));

    // Pre-warm each trace's resident set so short runs are not
    // dominated by cold-start misses.
    std::vector<Addr> warm;
    for (const auto& trace : traces_) {
        warm.clear();
        trace->warmupAddrs(warm);
        for (Addr a : warm)
            llc_->warmInstall(a);
    }
}

Cycle
System::runAlternating()
{
    // v1 epoch-phased execution (see ctrl/memory_system.h). Each
    // iteration runs the serial main phase over [start, epoch_end) —
    // completions due that cycle, then LLC, then cores, mailing new
    // requests — and then advances every shard over the same cycles,
    // in parallel when a pool is attached. The interleaving is
    // bit-identical to the historical one-cycle loop: submits stamped
    // t reach their controller before its tick t+1, and every
    // completion firing in this main phase was mailed by an earlier
    // shard phase (the epoch length is the completion lookahead).
    const Cycle epoch = memory_->epochLength();
    Cycle cycle = 0;
    bool all_done = false;
    while (cycle < cfg_.max_cycles && !all_done) {
        const Cycle epoch_end = std::min(cycle + epoch, cfg_.max_cycles);
        Cycle shard_end = epoch_end;
        for (Cycle u = cycle; u < epoch_end; ++u) {
            memory_->deliverCompletions(u);
            llc_->tick(u);
            all_done = true;
            for (auto& core : cores_) {
                core->tick(u);
                all_done = all_done && core->done();
            }
            if (all_done) {
                // The serial loop still ticked memory at the finish
                // cycle; match it, then stop.
                shard_end = u + 1;
                break;
            }
        }
        if (pool_ && pool_->degree() > 1 && memory_->channels() > 1) {
            memory_->syncSubmitMailboxes();
            const Cycle b = cycle, e = shard_end;
            pool_->run(static_cast<std::size_t>(memory_->channels()),
                       [this, b, e](std::size_t i) {
                           memory_->runShard(static_cast<int>(i), b, e, e);
                       });
        } else {
            memory_->runEpoch(cycle, shard_end);
        }
        cycle = shard_end;
    }
    if (all_done)
        --cycle; // report the cycle the last core finished on
    else
        warn("simulation hit max_cycles before cores finished");
    return cycle;
}

Cycle
System::runPipelined()
{
    // Pipelined schedule: the serial main phase runs window k while
    // the shards execute window k-1 on the pool. With the window set
    // to half the completion lookahead, anything a shard emits while
    // executing window k-1 fires at or after window k+1 — so the
    // overlapped main phase never races a completion it could observe,
    // and the operation order per domain is exactly the alternating
    // schedule's. Submit mailboxes use the staged producer view
    // (common/spsc.h), so admission decisions made while a shard
    // drains concurrently stay deterministic.
    const Cycle step = step_;
    const auto nshards = static_cast<std::size_t>(memory_->channels());
    Cycle cycle = 0;
    bool all_done = false;
    Cycle prev_b = 0, prev_e = 0;
    bool have_prev = false;
    std::function<void(std::size_t)> shard_job;
    while (cycle < cfg_.max_cycles && !all_done) {
        const Cycle end = std::min(cycle + step, cfg_.max_cycles);
        bool overlapped = false;
        if (have_prev && pool_) {
            const Cycle b = prev_b, e = prev_e;
            shard_job = [this, b, e, step](std::size_t i) {
                memory_->runShard(static_cast<int>(i), b, e, e + step);
            };
            pool_->dispatch(nshards, shard_job);
            overlapped = true;
        }
        Cycle main_end = end;
        for (Cycle u = cycle; u < end; ++u) {
            memory_->deliverCompletions(u);
            llc_->tick(u);
            all_done = true;
            for (auto& core : cores_) {
                core->tick(u);
                all_done = all_done && core->done();
            }
            if (all_done) {
                main_end = u + 1;
                break;
            }
        }
        if (overlapped)
            pool_->wait();
        else if (have_prev)
            for (std::size_t i = 0; i < nshards; ++i)
                memory_->runShard(static_cast<int>(i), prev_b, prev_e,
                                  prev_e + step);
        // Window barrier: shards are quiescent; refresh the staged
        // submit views from the thread that produces into them.
        memory_->syncSubmitMailboxes();
        prev_b = cycle;
        prev_e = main_end;
        have_prev = true;
        cycle = main_end;
    }
    // Drain the trailing shard window so memory state covers every
    // cycle the main phase executed (the serial loop ticked memory
    // through the finish cycle too).
    if (have_prev)
        for (std::size_t i = 0; i < nshards; ++i)
            memory_->runShard(static_cast<int>(i), prev_b, prev_e,
                              prev_e + step);
    if (all_done)
        --cycle;
    else
        warn("simulation hit max_cycles before cores finished");
    return cycle;
}

SimResult
System::collectResult(Cycle cycles) const
{
    SimResult r;
    r.cycles = cycles;
    double total_insts = 0.0;
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        double ipc = cores_[i]->ipc();
        r.core_ipc.push_back(ipc);
        r.ipc_sum += ipc;
        total_insts += static_cast<double>(cores_[i]->retired());
        cores_[i]->exportStats(r.stats, strCat("core", i, "."));
    }
    memory_->exportStats(r.stats, "");
    llc_->stats().exportTo(r.stats, "llc.");

    r.acts = static_cast<double>(memory_->deviceStats().acts);
    r.rbmpki = total_insts > 0 ? r.acts / (total_insts / 1000.0) : 0.0;
    double trefis = static_cast<double>(cycles) /
                    static_cast<double>(cfg_.timing.tREFI);
    r.alerts_per_trefi =
        trefis > 0 ? static_cast<double>(memory_->alerts()) / trefis : 0.0;
    r.stats.set("sim.cycles", static_cast<double>(cycles));
    r.stats.set("sim.ipc_sum", r.ipc_sum);
    r.stats.set("sim.rbmpki", r.rbmpki);
    r.stats.set("sim.alerts_per_trefi", r.alerts_per_trefi);
    return r;
}

SimResult
System::run()
{
    const auto start = std::chrono::steady_clock::now();
    const Cycle cycles = pipeline_ ? runPipelined() : runAlternating();
    // Land any still-buffered ACT notifications before reading stats.
    memory_->flushMitigationActs();
    SimResult r = collectResult(cycles);
    r.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    r.skip = memory_->skipStats(); // engine-only, like wall_ms
    return r;
}

double
SimResult::simCyclesPerSec() const
{
    if (wall_ms <= 0.0)
        return 0.0;
    return static_cast<double>(cycles) / (wall_ms / 1000.0);
}

std::string
SimResult::toJson() const
{
    // wall_ms / simCyclesPerSec() are deliberately absent: this
    // document is compared bit-for-bit across thread counts and engine
    // modes (tests/test_determinism.cc); timing lives beside it in
    // SweepPointResult and the bench emitters.
    JsonWriter w;
    w.beginObject();
    w.key("cycles").value(static_cast<std::uint64_t>(cycles));
    w.key("ipc_sum").value(ipc_sum);
    w.key("rbmpki").value(rbmpki);
    w.key("alerts_per_trefi").value(alerts_per_trefi);
    w.key("acts").value(acts);
    w.key("core_ipc").beginArray();
    for (double ipc : core_ipc)
        w.value(ipc);
    w.endArray();
    w.key("stats").beginObject();
    for (const auto& [name, value] : stats.entries())
        w.key(name).value(value);
    w.endObject();
    w.endObject();
    return w.str();
}

} // namespace qprac::sim
