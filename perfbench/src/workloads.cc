#include "workloads.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "attacks/recovery_attacks.h"
#include "common/log.h"
#include "cpu/core.h"
#include "cpu/llc.h"
#include "dram/address.h"
#include "security/prac_model.h"
#include "sim/experiment.h"
#include "sim/result_cache.h"
#include "sim/scenario_hash.h"
#include "sim/system.h"

namespace perfbench {

namespace sim = qprac::sim;
namespace ctrl = qprac::ctrl;
namespace cpu = qprac::cpu;
namespace dram = qprac::dram;
using qprac::Cycle;
using qprac::strCat;

namespace {

/**
 * Share of each timed repetition spent re-serving its results from the
 * result cache (warm_s). Interleaved with the runs, so both metrics see
 * the same host drift.
 */
constexpr double kWarmShare = 0.15;

/** A timed run cuts its wall time into this many batches. */
constexpr double kBatches = 8.0;

/**
 * Per-layer metrics of the layers some workload does not have. A
 * workload reports the groups it lacks as 0 and measures the rest, so
 * a metric it forgets stays missing and run.py fails the run.
 */
const std::vector<const char*> kCpuSideMetrics = {
    "trace.busy_s",   "trace.records",      "core.busy_s",
    "core.ticks",     "core.stall_frac",    "llc.busy_s",
    "llc.accesses",   "llc.load_miss_frac", "llc.writebacks",
    "mailbox.busy_s", "mailbox.calls"};
const std::vector<const char*> kDramSideMetrics = {
    "shard.busy_s",        "shard.cycles",          "shard.ticked_frac",
    "shard.cmds_per_tick", "shard.epoch_wake_frac", "mit.busy_s",
    "mit.calls",           "mit.act_events",        "mit.polls",
    "mit.poll_hit_frac",   "sim.cycles",            "dram.acts",
    "ctrl.alerts",         "dram.rfms"};
const std::vector<const char*> kSweepMetrics = {
    "sweep.compute_s", "sweep.points", "wave.acts",
    "cache.lookup_s",  "cache.store_s", "cache.hits",
    "cache.misses",    "cache.rejected", "cache.hit_frac"};

void
absent(Report& rep, const std::vector<const char*>& names)
{
    for (const char* name : names)
        rep.metrics[name] = 0.0;
}

/**
 * Median, averaging the two middle values of an even count (8 batches),
 * as Python's statistics.median does; 0 if empty.
 */
double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

void
setKey(sim::ScenarioConfig& cfg, const std::string& key,
       const std::string& value)
{
    std::string err;
    if (!cfg.set(key, value, &err))
        qprac::fatal(strCat("benchmark scenario: ", err));
}

bool
isSystemWorkload(const std::string& w)
{
    return w == "mcf-4ch" || w == "namd-4ch";
}

sim::SystemConfig
systemConfig(const sim::ScenarioConfig& cfg)
{
    return sim::makeSystemConfig(cfg.design(), cfg.experiment());
}

sim::ScenarioResult
systemResult(const sim::ScenarioConfig& cfg, const sim::SimResult& r)
{
    // What ScenarioRegistry::run fills in for a workload scenario.
    sim::ScenarioResult res;
    res.config = cfg;
    res.sim = r;
    res.stats = r.stats;
    return res;
}

/** Every core retired its instruction target (no "hit max_cycles"). */
bool
coresComplete(const sim::ScenarioConfig& cfg, const qprac::StatSet& stats)
{
    const double target =
        static_cast<double>(cfg.experiment().insts_per_core);
    for (int i = 0; i < cfg.cores; ++i)
        if (stats.getOr(strCat("core", i, ".retired"), 0.0) < target)
            return false;
    return true;
}

/** Σ over cores of @p key ("stall_cycles", "cpu_cycles"). */
double
coreSum(const sim::ScenarioConfig& cfg, const qprac::StatSet& stats,
        const std::string& key)
{
    double sum = 0.0;
    for (int i = 0; i < cfg.cores; ++i)
        sum += stats.getOr(strCat("core", i, ".", key), 0.0);
    return sum;
}

/**
 * The parts System's constructor builds for a threads=1 run, built the
 * same way through their public constructors, with the trace sources
 * and mitigations wrapped in the timing decorators.
 */
struct SystemParts
{
    SystemParts(const sim::ScenarioConfig& cfg, LayerClock& clock,
                MitigationCounts& mit)
        : sc(systemConfig(cfg)), mapper(sc.org, sc.mapping)
    {
        for (auto& t : sim::buildScenarioTraces(cfg)) {
            auto wrapped =
                std::make_unique<TracedTraceSource>(std::move(t), clock);
            traced.push_back(wrapped.get());
            traces.push_back(std::move(wrapped));
        }
        const std::uint64_t t0 = nowNs();
        mem = std::make_unique<ctrl::MemorySystem>(
            sc.org, sc.timing, sc.ctrl,
            tracedFactory(cfg.design().factory, clock, mit),
            sc.blast_radius, sc.counter_update);
        memory_s = secondsSince(t0);
        llc = std::make_unique<cpu::SharedLlc>(sc.llc, *mem, mapper);
        // The replica covers the schedule System::run resolves for the
        // benchmark's scenarios: pipelined, no pool, skipping on.
        if (mem->epochLength() < 2 ||
            sc.engine.pipeline == sim::EngineToggle::Off ||
            sc.engine.corepar == sim::EngineToggle::On ||
            sc.engine.skip == sim::EngineToggle::Off || sc.threads != 1)
            qprac::fatal("traced replica needs the default threads=1 "
                         "engine");
        mem->setCycleSkipping(true);
        for (int i = 0; i < sc.num_cores; ++i)
            cores.push_back(std::make_unique<cpu::O3Core>(
                i, sc.core, *traces[static_cast<std::size_t>(i)], *llc));
        std::vector<qprac::Addr> warm;
        for (const auto& trace : traces) {
            warm.clear();
            trace->warmupAddrs(warm);
            for (qprac::Addr a : warm)
                llc->warmInstall(a);
        }
    }

    sim::SystemConfig sc;
    dram::AddressMapper mapper;
    std::vector<std::unique_ptr<cpu::TraceSource>> traces;
    std::vector<TracedTraceSource*> traced;
    std::unique_ptr<ctrl::MemorySystem> mem;
    double memory_s = 0.0;
    std::unique_ptr<cpu::SharedLlc> llc;
    std::vector<std::unique_ptr<cpu::O3Core>> cores;
};

/** What ScenarioRegistry maps attack:recovery-dos onto. */
qprac::attacks::RecoveryAttackConfig
dosAttackConfig(const sim::ScenarioConfig& cfg, ctrl::MitigationFactory f)
{
    qprac::attacks::RecoveryAttackConfig a;
    a.org.channels = cfg.channels;
    a.org.ranks = cfg.ranks;
    const sim::DesignSpec d = cfg.design();
    a.timing = d.timing;
    a.ctrl.abo = d.abo;
    a.ctrl.rfm_policy = d.rfm_policy;
    a.mitigation = std::move(f);
    if (!dram::parseMappingScheme(cfg.mapping, &a.mapping))
        qprac::fatal(strCat("bad mapping scheme '", cfg.mapping, "'"));
    if (cfg.attack_cycles)
        a.attack_cycles = static_cast<Cycle>(cfg.attack_cycles);
    a.counter_update = cfg.experiment().counter_update;
    a.attack_banks = std::min(8, a.org.banksPerRank() - 1);
    return a;
}

/** The attack:recovery-dos result document, as runScenario emits it. */
std::string
dosDocument(const sim::ScenarioConfig& cfg,
            const qprac::attacks::RecoveryDosResult& r)
{
    sim::ScenarioResult res;
    res.config = cfg;
    res.is_attack = true;
    qprac::StatSet& s = res.stats;
    s.set("attack.alerts", static_cast<double>(r.alerts));
    s.set("attack.rfms", static_cast<double>(r.rfms));
    s.set("attack.attacker_acts", static_cast<double>(r.attacker_acts));
    s.set("attack.peak_concurrent_recoveries",
          static_cast<double>(r.peak_concurrent_recoveries));
    s.set("attack.victim_quiet_lat", r.victim_quiet.mean());
    s.set("attack.victim_attack_lat", r.victim_attack.mean());
    s.set("attack.victim_probes",
          static_cast<double>(r.victim_quiet.probes + r.victim_attack.probes));
    s.set("attack.victim_slowdown", r.victimSlowdown());
    return res.resultJson();
}

/** Simulated DRAM cycles of one dos-storm run (warmup + attack). */
double
dosCycles(const sim::ScenarioConfig& cfg)
{
    const auto a = dosAttackConfig(cfg, nullptr);
    return static_cast<double>(a.warmup_cycles + a.attack_cycles);
}

/** Grid configs of a sweep, as runSweep materializes them. */
std::vector<sim::ScenarioConfig>
sweepConfigs(const sim::ScenarioConfig& base, const sim::SweepSpec& spec)
{
    std::vector<sim::ScenarioConfig> configs;
    for (const auto& point : spec.enumerate()) {
        sim::ScenarioConfig cfg = base;
        for (const auto& [key, value] : point)
            setKey(cfg, key, value);
        std::string err;
        if (!cfg.validate(&err))
            qprac::fatal(strCat("benchmark sweep point: ", err));
        configs.push_back(std::move(cfg));
    }
    return configs;
}

/**
 * The analytic Wave bound tests/test_properties.cc applies: no row
 * passes nbo + N_online(r1) (PRAC-1) + 2.
 */
bool
waveWithinBound(const sim::SweepPointResult& p)
{
    const int nbo = p.result.config.nbo;
    const long r1 = p.result.config.r1;
    const qprac::security::PracSecurityModel model(
        qprac::security::PracModelConfig::prac(1));
    const double max_count = p.result.stats.getOr("attack.max_count", -1);
    return max_count >= 0 && max_count <= nbo + model.nOnline(r1) + 2;
}

/** One cached re-serve of @p cfg's single point; false on a miss. */
bool
warmRerun(const sim::ScenarioConfig& cfg, sim::ResultCache& cache,
          const std::string& expect, double* seconds)
{
    const std::uint64_t t0 = nowNs();
    std::string err;
    auto points = sim::runSweep(cfg, sim::SweepSpec{}, {&cache, false, ""},
                                &err);
    *seconds = secondsSince(t0);
    return points.size() == 1 && points[0].cached &&
           points[0].result.resultJson() == expect;
}

/**
 * Timing samples pooled into batches, each contributing its mean; the
 * metric is the median over batches. Host speed on a shared VM moves
 * between states for seconds at a time, and a median over single
 * repetitions flips between those states, while a batch averages over
 * them.
 */
class Batches
{
  public:
    void add(double s)
    {
        sum_ += s;
        ++n_;
        ++samples_;
    }

    /** Close the open batch, if it holds any sample. */
    void close()
    {
        if (n_ == 0)
            return;
        means_.push_back(sum_ / static_cast<double>(n_));
        sum_ = 0.0;
        n_ = 0;
    }

    const std::vector<double>& means() const { return means_; }
    double median() const { return perfbench::median(means_); }
    std::size_t batches() const { return means_.size(); }
    std::size_t samples() const { return samples_; }

  private:
    double sum_ = 0.0;
    std::size_t n_ = 0;
    std::size_t samples_ = 0;
    std::vector<double> means_;
};

} // namespace

void
Report::check(bool ok, const std::string& what)
{
    ++attempted;
    if (!ok) {
        ++failed;
        if (failures.size() < 20)
            failures.push_back(what);
    }
}

const std::vector<std::string>&
workloadNames()
{
    static const std::vector<std::string> names = {
        "mcf-4ch", "namd-4ch", "dos-storm", "wave-sweep"};
    return names;
}

std::string
digest(const std::string& text)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, sim::fnv1a64(text));
    return buf;
}

sim::ScenarioConfig
systemScenario(const std::string& workload, std::uint64_t seed)
{
    // Run lengths are fixed here, never taken from QPRAC_* variables.
    sim::ScenarioConfig cfg;
    if (workload == "mcf-4ch") {
        setKey(cfg, "source", "workload:429.mcf");
        setKey(cfg, "insts", "300000");
    } else if (workload == "namd-4ch") {
        setKey(cfg, "source", "workload:444.namd");
        setKey(cfg, "insts", "3000000");
    } else {
        qprac::fatal(strCat("not a System workload: ", workload));
    }
    setKey(cfg, "channels", "4");
    setKey(cfg, "llc_mb", "2");
    setKey(cfg, "threads", "1");
    setKey(cfg, "seed", std::to_string(seed));
    return cfg;
}

sim::ScenarioConfig
dosScenario()
{
    sim::ScenarioConfig cfg;
    setKey(cfg, "source", "attack:recovery-dos");
    setKey(cfg, "recovery", "bank-isolated");
    setKey(cfg, "channels", "1");
    setKey(cfg, "threads", "1");
    return cfg;
}

sim::ScenarioConfig
waveBase()
{
    sim::ScenarioConfig cfg;
    setKey(cfg, "source", "attack:wave");
    // PRAC-1 only: with nmit >= 2 and psq_size=1 the Wave model does
    // not converge (README.md, "Known defect").
    setKey(cfg, "nmit", "1");
    setKey(cfg, "threads", "1");
    return cfg;
}

sim::SweepSpec
waveSpec()
{
    sim::SweepSpec spec;
    std::string err;
    for (const char* axis :
         {"mitigation=qprac,qprac+proactive,qprac-ideal", "psq_size=1:8",
          "nbo=16,32,64,128", "r1=10,100,1000,5000"})
        if (!spec.add(axis, &err))
            qprac::fatal(strCat("benchmark sweep: ", err));
    return spec;
}

SystemRun
runSystem(const sim::ScenarioConfig& cfg)
{
    const sim::DesignSpec d = cfg.design();
    sim::System system(systemConfig(cfg), d.factory,
                       sim::buildScenarioTraces(cfg));
    const std::uint64_t t0 = nowNs();
    const sim::SimResult r = system.run();
    SystemRun run;
    run.run_s = secondsSince(t0);
    run.result = systemResult(cfg, r);
    run.doc = run.result.resultJson();
    run.complete = system.poolDegree() == 1 && coresComplete(cfg, r.stats);
    return run;
}

SystemRun
runSystemTraced(const sim::ScenarioConfig& cfg, LayerClock& clock,
                SystemLayerCounts* counts)
{
    SystemParts parts(cfg, clock, counts->mit);
    ctrl::MemorySystem& mem = *parts.mem;
    cpu::SharedLlc& llc = *parts.llc;
    auto& cores = parts.cores;
    // Construction-time calls are set-up, not run time.
    clock = LayerClock();
    counts->mit = MitigationCounts();

    // System::runPipelined with no pool: the main phase runs window k,
    // then the shards run window k-1, then the window barrier.
    const Cycle max_cycles = parts.sc.max_cycles;
    const Cycle step = std::max<Cycle>(1, mem.epochLength() / 2);
    const int nshards = mem.channels();
    Cycle cycle = 0;
    bool all_done = false;
    Cycle prev_b = 0, prev_e = 0;
    bool have_prev = false;
    const std::uint64_t t0 = nowNs();
    clock.start();
    while (cycle < max_cycles && !all_done) {
        const Cycle end = std::min(cycle + step, max_cycles);
        Cycle main_end = end;
        for (Cycle u = cycle; u < end; ++u) {
            mem.deliverCompletions(u);
            clock.lap(kMailbox);
            llc.tick(u);
            clock.lap(kLlc);
            all_done = true;
            for (auto& core : cores) {
                core->tick(u);
                all_done = all_done && core->done();
            }
            counts->core_ticks += cores.size();
            clock.lap(kCore);
            if (all_done) {
                main_end = u + 1;
                break;
            }
        }
        if (have_prev) {
            for (int i = 0; i < nshards; ++i)
                mem.runShard(i, prev_b, prev_e, prev_e + step);
            clock.lap(kShard);
        }
        mem.syncSubmitMailboxes();
        clock.lap(kMailbox);
        prev_b = cycle;
        prev_e = main_end;
        have_prev = true;
        cycle = main_end;
    }
    if (have_prev)
        for (int i = 0; i < nshards; ++i)
            mem.runShard(i, prev_b, prev_e, prev_e + step);
    mem.flushMitigationActs();
    clock.lap(kShard);
    const Cycle shard_cycles = cycle;
    if (all_done)
        --cycle;

    // System::collectResult.
    sim::SimResult r;
    r.cycles = cycle;
    double total_insts = 0.0;
    for (std::size_t i = 0; i < cores.size(); ++i) {
        const double ipc = cores[i]->ipc();
        r.core_ipc.push_back(ipc);
        r.ipc_sum += ipc;
        total_insts += static_cast<double>(cores[i]->retired());
        cores[i]->exportStats(r.stats, strCat("core", i, "."));
    }
    mem.exportStats(r.stats, "");
    llc.stats().exportTo(r.stats, "llc.");
    r.acts = static_cast<double>(mem.deviceStats().acts);
    r.rbmpki = total_insts > 0 ? r.acts / (total_insts / 1000.0) : 0.0;
    const double trefis = static_cast<double>(cycle) /
                          static_cast<double>(parts.sc.timing.tREFI);
    r.alerts_per_trefi =
        trefis > 0 ? static_cast<double>(mem.alerts()) / trefis : 0.0;
    r.stats.set("sim.cycles", static_cast<double>(cycle));
    r.stats.set("sim.ipc_sum", r.ipc_sum);
    r.stats.set("sim.rbmpki", r.rbmpki);
    r.stats.set("sim.alerts_per_trefi", r.alerts_per_trefi);

    SystemRun run;
    run.result = systemResult(cfg, r);
    run.doc = run.result.resultJson();
    clock.lap(kOther);
    run.run_s = secondsSince(t0);
    run.complete = all_done && coresComplete(cfg, r.stats);

    for (const TracedTraceSource* t : parts.traced)
        counts->trace_records += t->records();
    counts->mailbox_calls = clock.laps(kMailbox);
    counts->skip = mem.skipStats();
    counts->shard_cycles = static_cast<std::uint64_t>(nshards) * shard_cycles;
    const dram::DeviceStats dev = mem.deviceStats();
    counts->commands = dev.acts + dev.pres + dev.reads + dev.writes +
                       dev.refs + dev.rfms;
    return run;
}

std::string
runDosTraced(const sim::ScenarioConfig& cfg, LayerClock& clock,
             MitigationCounts* counts)
{
    const auto a = dosAttackConfig(
        cfg, tracedFactory(cfg.design().factory, clock, *counts));
    clock.start();
    const auto r = qprac::attacks::runRecoveryDosAttack(a);
    clock.lap(kShard);
    std::string doc = dosDocument(cfg, r);
    clock.lap(kOther);
    return doc;
}

std::vector<std::string>
sweepDocuments(const std::vector<sim::SweepPointResult>& points)
{
    std::vector<std::string> docs;
    for (const auto& p : points)
        docs.push_back(p.failed ? strCat("failed: ", p.error)
                                : strCat(p.hash, " ", p.result.resultJson()));
    return docs;
}

std::vector<std::string>
runSweepTraced(const sim::ScenarioConfig& base, const sim::SweepSpec& spec,
               const std::string& cache_dir, LayerClock& clock,
               SweepLayerCounts* counts)
{
    clock.start();
    const auto configs = sweepConfigs(base, spec);
    sim::ResultCache cache(cache_dir);
    clock.lap(kOther);
    std::vector<std::string> docs;
    for (const auto& cfg : configs) {
        sim::ScenarioResult res;
        const bool hit = cache.lookup(cfg, &res);
        clock.lap(kLookup);
        if (!hit) {
            res = sim::runScenario(cfg, 1);
            clock.lap(kCompute);
            cache.store(cfg, res);
            clock.lap(kStore);
            counts->wave_acts += res.stats.getOr("attack.total_acts", 0.0);
        }
        docs.push_back(strCat(sim::scenarioHashHex(cfg), " ",
                              res.resultJson()));
        clock.lap(kOther);
    }
    const auto c = cache.counters();
    counts->points = configs.size();
    counts->hits += c.hits;
    counts->misses += c.misses;
    counts->rejected += c.rejected;
    return docs;
}

Report
measureSetup(const std::string& workload, std::uint64_t seed, bool traced)
{
    Report rep;
    double setup_s = 0.0, memory_s = 0.0;
    if (isSystemWorkload(workload)) {
        const sim::ScenarioConfig cfg = systemScenario(workload, seed);
        if (traced) {
            LayerClock clock;
            MitigationCounts mit;
            const std::uint64_t t0 = nowNs();
            SystemParts parts(cfg, clock, mit);
            setup_s = secondsSince(t0);
            memory_s = parts.memory_s;
        } else {
            const std::uint64_t t0 = nowNs();
            const sim::DesignSpec d = cfg.design();
            sim::System system(systemConfig(cfg), d.factory,
                               sim::buildScenarioTraces(cfg));
            setup_s = secondsSince(t0);
        }
    } else if (workload == "dos-storm") {
        // The driver's own set-up: its mapper and MemorySystem.
        const sim::ScenarioConfig cfg = dosScenario();
        const std::uint64_t t0 = nowNs();
        const auto a = dosAttackConfig(cfg, cfg.design().factory);
        dram::AddressMapper mapper(a.org, a.mapping);
        ctrl::MemorySystem mem(a.org, a.timing, a.ctrl, a.mitigation, 2,
                               a.counter_update);
        setup_s = memory_s = secondsSince(t0);
    } else if (workload == "wave-sweep") {
        // runSweep's up-front pass: materialize, validate and hash
        // every point.
        const std::uint64_t t0 = nowNs();
        std::size_t hashed = 0;
        for (const auto& cfg : sweepConfigs(waveBase(), waveSpec()))
            hashed += sim::scenarioHashHex(cfg).size();
        setup_s = secondsSince(t0);
        rep.check(hashed > 0, "setup: no sweep points");
    } else {
        qprac::fatal(strCat("unknown workload '", workload, "'"));
    }
    rep.check(setup_s > 0.0, "setup: no time measured");
    rep.metrics["setup_s"] = setup_s;
    if (traced)
        rep.metrics["setup.memory_s"] = memory_s;
    return rep;
}

Report
runTimed(const std::string& workload, std::uint64_t seed, double seconds,
         const std::string& workdir)
{
    Report rep;
    Batches run_s, warm_s;
    double cycles = 0.0;
    const std::uint64_t start = nowNs();
    auto more = [&] { return secondsSince(start) < seconds; };
    // One repetition took @p s.
    auto ran = [&](double s) {
        run_s.add(s);
        return s;
    };
    // The run's wall time is cut into kBatches equal slices. A batch
    // holds the repetitions (and the warm reruns after them) that ended
    // in one slice; a repetition longer than a slice is a batch alone.
    const double slice = seconds / kBatches;
    double next_cut = slice;
    auto closeBatch = [&] {
        const double elapsed = secondsSince(start);
        if (elapsed < next_cut)
            return;
        run_s.close();
        warm_s.close();
        next_cut = (std::floor(elapsed / slice) + 1.0) * slice;
    };

    // Re-serve the workload from @p cache for kWarmShare of @p run.
    auto warm = [&](const sim::ScenarioConfig& cfg, sim::ResultCache& cache,
                    const std::string& doc, double run) {
        double spent = 0.0;
        do {
            double s = 0.0;
            rep.check(warmRerun(cfg, cache, doc, &s),
                      "warm: cached rerun missed or differs");
            warm_s.add(s);
            spent += s;
        } while (spent < kWarmShare * run);
        closeBatch();
    };

    if (isSystemWorkload(workload)) {
        const sim::ScenarioConfig cfg = systemScenario(workload, seed);
        sim::ResultCache cache(workdir + "/cache");
        std::string first;
        do {
            const SystemRun r = runSystem(cfg);
            rep.check(r.complete, "run: a core missed its instruction "
                                  "target or the run was threaded");
            if (first.empty()) {
                first = r.doc;
                rep.check(cache.store(cfg, r.result), "warm: store failed");
                cycles = static_cast<double>(r.result.sim.cycles);
                rep.info["digest"] = digest(r.doc);
                rep.info["cycles"] = strCat(r.result.sim.cycles);
                rep.info["ipc_sum"] = strCat(r.result.sim.ipc_sum);
                rep.info["acts"] = strCat(r.result.sim.acts);
                rep.info["alerts"] = strCat(r.result.stats.getOr("ctrl.alerts", 0));
                rep.info["rfms"] = strCat(r.result.stats.getOr("dram.rfms", 0));
            } else {
                rep.check(r.doc == first, "run: result differs from the "
                                          "first repetition");
            }
            warm(cfg, cache, first, ran(r.run_s));
        } while (more());
    } else if (workload == "dos-storm") {
        const sim::ScenarioConfig cfg = dosScenario();
        sim::ResultCache cache(workdir + "/cache");
        cycles = dosCycles(cfg);
        std::string first;
        do {
            const std::uint64_t t0 = nowNs();
            const sim::ScenarioResult res = sim::runScenario(cfg, 1);
            const double s = ran(secondsSince(t0));
            const std::string doc = res.resultJson();
            rep.check(res.stats.getOr("attack.alerts", 0) > 0,
                      "run: the alert storm raised no alert");
            if (first.empty()) {
                first = doc;
                rep.check(cache.store(cfg, res), "warm: store failed");
                rep.info["digest"] = digest(doc);
                rep.info["alerts"] = strCat(res.stats.get("attack.alerts"));
                rep.info["rfms"] = strCat(res.stats.get("attack.rfms"));
                rep.info["peak_concurrent_recoveries"] = strCat(
                    res.stats.get("attack.peak_concurrent_recoveries"));
            } else {
                rep.check(doc == first, "run: result differs from the "
                                        "first repetition");
            }
            warm(cfg, cache, first, s);
        } while (more());
    } else if (workload == "wave-sweep") {
        const sim::ScenarioConfig base = waveBase();
        const sim::SweepSpec spec = waveSpec();
        const std::string dir = workdir + "/wave-cache";
        const double trc = static_cast<double>(
            dram::TimingParams::ddr5Prac().tRC);
        std::vector<std::string> first;
        do {
            std::filesystem::remove_all(dir);
            std::string err;
            const std::uint64_t t0 = nowNs();
            std::vector<sim::SweepPointResult> cold;
            {
                sim::ResultCache cache(dir);
                cold = sim::runSweep(base, spec, {&cache, false, ""}, &err);
            }
            const double cold_s = ran(secondsSince(t0));
            rep.check(err.empty() && cold.size() == spec.points(),
                      strCat("cold: sweep failed: ", err));
            double acts = 0.0;
            for (const auto& p : cold) {
                rep.check(!p.failed && !p.cached,
                          strCat("cold: point ", p.hash, " ", p.error));
                rep.check(waveWithinBound(p),
                          strCat("wave bound: point ", p.hash,
                                 " exceeds nbo + N_online + 2"));
                acts += p.result.stats.getOr("attack.total_acts", 0.0);
            }
            const auto docs = sweepDocuments(cold);
            if (first.empty()) {
                first = docs;
                cycles = acts * trc;
                std::string all;
                for (const auto& d : docs)
                    all += d + "\n";
                rep.info["digest"] = digest(all);
                rep.info["points"] = strCat(cold.size());
                rep.info["wave_acts"] = strCat(acts);
            } else {
                rep.check(docs == first, "cold: documents differ from the "
                                         "first pass");
            }
            double spent = 0.0;
            do {
                const std::uint64_t w0 = nowNs();
                sim::ResultCache cache(dir);
                const auto warm_pts =
                    sim::runSweep(base, spec, {&cache, false, ""}, &err);
                const double s = secondsSince(w0);
                bool all_hits = true;
                for (const auto& p : warm_pts)
                    all_hits = all_hits && p.cached;
                rep.check(all_hits && sweepDocuments(warm_pts) == first,
                          "warm: pass missed the cache or its documents "
                          "differ from the cold pass");
                warm_s.add(s);
                spent += s;
            } while (spent < kWarmShare * cold_s);
            closeBatch();
        } while (more());
        std::filesystem::remove_all(dir);
    } else {
        qprac::fatal(strCat("unknown workload '", workload, "'"));
    }

    // The last slice ends when the loop does.
    run_s.close();
    warm_s.close();
    const double run = run_s.median();
    rep.metrics["run_s"] = run;
    rep.metrics["warm_s"] = warm_s.median();
    rep.metrics["sim_mcycles_per_s"] = ratio(cycles, run) * 1e-6;
    rep.info["repetitions"] = strCat(run_s.samples(), " in ",
                                     run_s.batches(), " batches");
    rep.info["warm_repetitions"] = strCat(warm_s.samples());
    std::string means;
    for (double m : run_s.means())
        means += strCat(means.empty() ? "" : ",", m);
    rep.info["run_s_batches"] = means;
    return rep;
}

Report
runTraced(const std::string& workload, std::uint64_t seed, double seconds,
          const std::string& workdir)
{
    Report rep;
    auto& m = rep.metrics;
    // Per-repetition samples of every timed quantity; medians reported.
    std::map<std::string, std::vector<double>> samples;
    std::vector<double> untraced_s, traced_s;
    const std::uint64_t start = nowNs();
    auto more = [&] { return secondsSince(start) < seconds; };

    // Busy times of @p layers plus the rest of the corrected traced time.
    auto account = [&](const LayerClock& clock, const TimerCost& cost,
                       double wall_s, double untraced,
                       std::initializer_list<std::pair<const char*, Layer>>
                           layers) {
        const double corrected = wall_s - clock.timerSeconds(cost);
        double named = 0.0;
        for (const auto& [name, layer] : layers) {
            const double busy = clock.busySeconds(layer, cost);
            samples[name].push_back(busy);
            named += busy;
        }
        samples["other.busy_s"].push_back(corrected - named);
        untraced_s.push_back(untraced);
        traced_s.push_back(corrected);
        rep.info["timer_ns"] = strCat("lap=", cost.lap, ",nested_in=",
                                      cost.nested_in, ",nested_all=",
                                      cost.nested_all);
    };

    if (isSystemWorkload(workload)) {
        const sim::ScenarioConfig cfg = systemScenario(workload, seed);
        SystemLayerCounts c;
        sim::ScenarioResult result;
        LayerClock clock;
        do {
            const SystemRun u = runSystem(cfg);
            rep.check(u.complete, "run: a core missed its instruction target");
            const TimerCost cost = LayerClock::calibrate();
            c = SystemLayerCounts();
            const SystemRun t = runSystemTraced(cfg, clock, &c);
            rep.check(t.complete && t.doc == u.doc,
                      "traced: result bytes differ from System::run");
            account(clock, cost, t.run_s, u.run_s,
                    {{"trace.busy_s", kTrace},
                     {"core.busy_s", kCore},
                     {"llc.busy_s", kLlc},
                     {"mailbox.busy_s", kMailbox},
                     {"shard.busy_s", kShard},
                     {"mit.busy_s", kMit}});
            result = t.result;
            rep.info["digest"] = digest(u.doc);
        } while (more());
        absent(rep, kSweepMetrics);
        const qprac::StatSet& s = result.stats;
        m["trace.records"] = static_cast<double>(c.trace_records);
        m["core.ticks"] = static_cast<double>(c.core_ticks);
        m["core.stall_frac"] = ratio(coreSum(cfg, s, "stall_cycles"),
                                     coreSum(cfg, s, "cpu_cycles"));
        m["llc.accesses"] = s.getOr("llc.loads", 0) + s.getOr("llc.stores", 0);
        m["llc.load_miss_frac"] =
            ratio(s.getOr("llc.load_misses", 0), s.getOr("llc.loads", 0));
        m["llc.writebacks"] = s.getOr("llc.writebacks", 0);
        m["mailbox.calls"] = static_cast<double>(c.mailbox_calls);
        const double shard_cycles = static_cast<double>(c.shard_cycles);
        const double ticked =
            shard_cycles - static_cast<double>(c.skip.cycles_skipped);
        m["shard.cycles"] = shard_cycles;
        m["shard.ticked_frac"] = ratio(ticked, shard_cycles);
        m["shard.cmds_per_tick"] =
            ratio(static_cast<double>(c.commands), ticked);
        const double wakes = static_cast<double>(
            c.skip.wakes_command + c.skip.wakes_refresh +
            c.skip.wakes_recovery + c.skip.wakes_cuq + c.skip.wakes_mailbox +
            c.skip.wakes_epoch);
        m["shard.epoch_wake_frac"] =
            ratio(static_cast<double>(c.skip.wakes_epoch), wakes);
        m["mit.calls"] = static_cast<double>(c.mit.calls);
        m["mit.act_events"] = static_cast<double>(c.mit.act_events);
        m["mit.polls"] = static_cast<double>(c.mit.polls);
        m["mit.poll_hit_frac"] = ratio(static_cast<double>(c.mit.poll_hits),
                                       static_cast<double>(c.mit.polls));
        m["sim.cycles"] = static_cast<double>(result.sim.cycles);
        m["sim.ipc_sum"] = result.sim.ipc_sum;
        m["dram.acts"] = s.getOr("dram.acts", 0);
        m["ctrl.alerts"] = s.getOr("ctrl.alerts", 0);
        m["dram.rfms"] = s.getOr("dram.rfms", 0);
    } else if (workload == "dos-storm") {
        const sim::ScenarioConfig cfg = dosScenario();
        MitigationCounts c;
        sim::ScenarioResult result;
        LayerClock clock;
        do {
            const std::uint64_t t0 = nowNs();
            result = sim::runScenario(cfg, 1);
            const double u = secondsSince(t0);
            const TimerCost cost = LayerClock::calibrate();
            clock = LayerClock();
            c = MitigationCounts();
            const std::uint64_t t1 = nowNs();
            const std::string doc = runDosTraced(cfg, clock, &c);
            const double t = secondsSince(t1);
            rep.check(doc == result.resultJson(),
                      "traced: result bytes differ from runScenario");
            account(clock, cost, t, u,
                    {{"shard.busy_s", kShard}, {"mit.busy_s", kMit}});
            rep.info["digest"] = digest(doc);
        } while (more());
        // No cores, LLC or sweep. The driver keeps its MemorySystem
        // private, so its skip counters and per-command stats are unseen.
        absent(rep, kCpuSideMetrics);
        absent(rep, kSweepMetrics);
        absent(rep, {"shard.cmds_per_tick", "shard.epoch_wake_frac",
                     "sim.ipc_sum"});
        const double cycles = dosCycles(cfg);
        m["shard.cycles"] = cycles * cfg.channels;
        m["shard.ticked_frac"] = 1.0; // the driver ticks every cycle
        m["mit.calls"] = static_cast<double>(c.calls);
        m["mit.act_events"] = static_cast<double>(c.act_events);
        m["mit.polls"] = static_cast<double>(c.polls);
        m["mit.poll_hit_frac"] = ratio(static_cast<double>(c.poll_hits),
                                       static_cast<double>(c.polls));
        m["sim.cycles"] = cycles;
        m["dram.acts"] = static_cast<double>(c.act_events);
        m["ctrl.alerts"] = result.stats.getOr("attack.alerts", 0);
        m["dram.rfms"] = result.stats.getOr("attack.rfms", 0);
    } else if (workload == "wave-sweep") {
        const sim::ScenarioConfig base = waveBase();
        const sim::SweepSpec spec = waveSpec();
        const std::string dir = workdir + "/wave-cache";
        const std::string traced_dir = workdir + "/wave-cache-traced";
        SweepLayerCounts c;
        do {
            std::filesystem::remove_all(dir);
            std::filesystem::remove_all(traced_dir);
            std::string err;
            const std::uint64_t t0 = nowNs();
            std::vector<std::string> cold, warm;
            {
                sim::ResultCache cache(dir);
                cold = sweepDocuments(
                    sim::runSweep(base, spec, {&cache, false, ""}, &err));
            }
            {
                sim::ResultCache cache(dir);
                warm = sweepDocuments(
                    sim::runSweep(base, spec, {&cache, false, ""}, &err));
            }
            const double u = secondsSince(t0);
            rep.check(err.empty() && cold == warm &&
                          cold.size() == spec.points(),
                      "warm: documents differ from the cold pass");

            const TimerCost cost = LayerClock::calibrate();
            LayerClock clock;
            c = SweepLayerCounts();
            const std::uint64_t t1 = nowNs();
            const auto tcold = runSweepTraced(base, spec, traced_dir, clock, &c);
            const auto twarm = runSweepTraced(base, spec, traced_dir, clock, &c);
            const double t = secondsSince(t1);
            rep.check(tcold == cold && twarm == cold,
                      "traced: sweep documents differ from runSweep");
            account(clock, cost, t, u,
                    {{"sweep.compute_s", kCompute},
                     {"cache.lookup_s", kLookup},
                     {"cache.store_s", kStore}});
            std::string all;
            for (const auto& d : cold)
                all += d + "\n";
            rep.info["digest"] = digest(all);
        } while (more());
        std::filesystem::remove_all(dir);
        std::filesystem::remove_all(traced_dir);
        absent(rep, kCpuSideMetrics);
        absent(rep, kDramSideMetrics);
        absent(rep, {"sim.ipc_sum"});
        m["sweep.points"] = static_cast<double>(c.points);
        m["wave.acts"] = c.wave_acts;
        m["cache.hits"] = static_cast<double>(c.hits);
        m["cache.misses"] = static_cast<double>(c.misses);
        m["cache.rejected"] = static_cast<double>(c.rejected);
        m["cache.hit_frac"] = ratio(static_cast<double>(c.hits),
                                    static_cast<double>(c.hits + c.misses));
    } else {
        qprac::fatal(strCat("unknown workload '", workload, "'"));
    }

    for (const auto& [name, v] : samples)
        m[name] = median(v);
    const double untraced = median(untraced_s);
    m["traced.run_s"] = median(traced_s);
    m["traced.overhead_frac"] = ratio(median(traced_s) - untraced, untraced);
    rep.info["repetitions"] = strCat(traced_s.size());
    rep.info["untraced_run_s"] = strCat(untraced);
    return rep;
}

} // namespace perfbench
