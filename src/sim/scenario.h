/**
 * @file
 * Declarative scenario API — the single configuration surface for the
 * evaluation grid (paper Figs 14-22 and the attack studies).
 *
 * A ScenarioConfig is one flat, typed key=value record that fully
 * describes a run: the source (synthetic workload, trace file, or one
 * of the event-level attack families), the design under test
 * (mitigation + PSQ/ABO knobs), the memory geometry, and the
 * run length/seed. It parses from an INI-style config file, accepts
 * `--set key=value` overrides, serializes back to canonical INI
 * (parse -> serialize -> parse is the identity), and builds the
 * concrete harness objects (ExperimentConfig, DesignSpec, traces) that
 * tools, benches and tests previously each wired up by hand.
 *
 * A SweepSpec enumerates axes over those keys
 * (`psq_size=1:9`, `nbo=16,32`) and runSweep() executes the
 * cross-product in parallel with deterministic result ordering.
 * Results are emitted through one structured layer: ScenarioResult
 * carries a unified StatSet plus JSON/CSV serialization.
 */
#ifndef QPRAC_SIM_SCENARIO_H
#define QPRAC_SIM_SCENARIO_H

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "cpu/trace.h"
#include "sim/experiment.h"

namespace qprac {
struct JsonValue; // common/json.h
}

namespace qprac::obs {
class EventRecorder;
struct RunSummary;
} // namespace qprac::obs

namespace qprac::sim {

class ResultCache; // sim/result_cache.h

/** What a scenario's `source` key names. */
enum class SourceKind
{
    Workload, ///< synthetic workload profile ("workload:429.mcf")
    TraceFile, ///< Ramulator2-style trace file ("trace:path/to.trace")
    Attack, ///< event-level attack family ("attack:wave")
};

/** Split a source string into kind and name; false on unknown prefix. */
bool parseSource(const std::string& text, SourceKind* kind,
                 std::string* name);

/**
 * One fully-described run. Every field has a `key = value` form,
 * declared by one row of scenarioKeyTable(); keys() gives the
 * canonical order. Numeric fields are validated on set() through
 * common/parse (garbage and out-of-range values are rejected with a
 * message, never silently coerced).
 */
struct ScenarioConfig
{
    // --- source -------------------------------------------------------
    std::string source = "workload:429.mcf";

    // --- design under test -------------------------------------------
    std::string mitigation = "qprac+proactive-ea";
    int psq_size = 0;    ///< PSQ entries per bank (0 = design default)
    int nbo = 32;        ///< Back-Off threshold
    int nmit = 1;        ///< RFMs per alert
    /** ALERT_n recovery blocking granularity (ctrl/recovery). */
    std::string recovery = "channel-stall";

    // --- geometry -----------------------------------------------------
    int channels = 1;
    int ranks = 2;
    std::string mapping = "row-major";

    // --- run ----------------------------------------------------------
    std::uint64_t insts = 0; ///< per-core instructions (0 = harness default)
    int cores = 4;
    std::uint64_t seed = 0;   ///< extra trace-RNG seed (0 = base seeding)
    std::uint64_t llc_mb = 0; ///< LLC size (0 = harness default)
    /**
     * Total thread budget for the run: sweep-level parallelism and the
     * per-channel shard engine share it (runSweep hands each point an
     * equal slice via innerThreadBudget, a single run spends it all on
     * shard threading). 0 = hardware concurrency / QPRAC_THREADS.
     * Never changes simulation results.
     */
    int threads = 0;
    bool baseline = false;    ///< also run the insecure baseline
    /**
     * Engine v2 switches (sim/system.h): `pipeline` overlaps the serial
     * LLC+core phase with the previous shard window, `skip` enables
     * next-event cycle skipping in the shard loops (bit-identical by
     * the horizon contract). Neither changes results.
     */
    EngineOptions engine;

    // --- counter architecture ------------------------------------------
    /**
     * Where the PRAC counter RMW is paid: "inline" (paper-faithful,
     * inside every precharge) or "queued" (off the row cycle, banks run
     * the conventional tRAS/tRP split). See dram/timing.h.
     */
    std::string counter_update = "inline";

    // --- observability (result-neutral, hash-excluded) -----------------
    /** Event-trace category set (obs/obs.h). Like the engine keys,
     * tracing never changes results, and the trace itself is
     * byte-identical across threads/pipeline/skip. */
    std::string trace = "off";
    std::string trace_out; ///< trace path ("" = qprac_trace-<hash>.json)
    /** Metrics sampling period in cycles (0 disables the time-series
     * sampler and latency histograms). */
    std::uint64_t metrics_interval = 0;

    // --- attack-family knobs -------------------------------------------
    /** Wave/Feinting starting pool size (attack:wave r1). */
    int r1 = 2000;
    /** Cycle budget for the cycle-level attack families (attack:perf,
     * attack:rfm-probe, attack:recovery-dos); 0 = family default. */
    std::uint64_t attack_cycles = 0;

    /** Canonical key order (serialization and listings). */
    static const std::vector<std::string>& keys();

    /**
     * Set one key from its string form; false (with *err) on unknown
     * keys or invalid values. Valid values are normalized (e.g. a bare
     * workload name becomes "workload:NAME").
     */
    bool set(const std::string& key, const std::string& value,
             std::string* err);

    /** Canonical string form of one key; fatal() on unknown keys. */
    std::string get(const std::string& key) const;

    /** Canonical INI serialization (one `key = value` line per key). */
    std::string toIni() const;

    /**
     * Parse INI text: `key = value` lines, '#'/';' comments, blank
     * lines and `[section]` headers (ignored) allowed. Unknown keys and
     * invalid values fail with a line-numbered *err.
     */
    static bool fromIniText(const std::string& text, ScenarioConfig* out,
                            std::string* err);

    /** fromIniText over a file's contents. */
    static bool fromFile(const std::string& path, ScenarioConfig* out,
                         std::string* err);

    /** Cross-field validation (source resolvable, geometry sane). */
    bool validate(std::string* err) const;

    /** Source kind of the current `source` value. */
    SourceKind sourceKind() const;

    /** Source name with the kind prefix stripped. */
    std::string sourceName() const;

    /** Harness config with 0-valued fields resolved to defaults. */
    ExperimentConfig experiment() const;

    /**
     * Design under test as a DesignSpec (registry-built factory, ABO
     * wiring, RFM pacing for PrIDE/Mithril) — the same construction
     * qprac_sim's legacy flags performed.
     */
    DesignSpec design() const;
};

/** How a scenario key enters the content hash (sim/scenario_hash.h). */
enum class KeyHashClass
{
    Result,       ///< can change results: always hashed
    Neutral,      ///< result-neutral (engine, observability): never hashed
    UnlessInline, ///< hashed only when counter-update is not inline
};

/**
 * How a key reads and writes its ScenarioConfig field: parse validates
 * a value and stores its normalized form (false with the reason in
 * *why, the config untouched); print gives the canonical form, which
 * parse accepts back.
 */
struct ScenarioField
{
    std::function<bool(ScenarioConfig&, const std::string&, std::string*)>
        parse;
    std::function<std::string(const ScenarioConfig&)> print;
};

/** One scenario key, declared once: keys(), set(), get(), the hash
 * lists and qprac_sim's legacy flags and --help all read the rows. */
struct ScenarioKey
{
    const char* name;
    KeyHashClass hash;
    const char* flag; ///< legacy qprac_sim value flag, or nullptr
    const char* doc;  ///< one line for --help
    ScenarioField field;
};

/** Every scenario key, in canonical order. */
const std::vector<ScenarioKey>& scenarioKeyTable();

/** The row named @p name, or nullptr for an unknown key. */
const ScenarioKey* findScenarioKey(const std::string& name);

/** Per-core trace sources for a workload/trace scenario. */
std::vector<std::unique_ptr<cpu::TraceSource>>
buildScenarioTraces(const ScenarioConfig& cfg);

/** Structured result of one scenario run. */
struct ScenarioResult
{
    ScenarioConfig config;
    bool is_attack = false;
    /** Full-system result. Attacks set only the fields kept out of
     * the result document: wall_ms and, for the recovery families,
     * the skip counters. */
    SimResult sim;
    bool has_baseline = false;
    SimResult baseline_sim;
    double norm_perf = 0.0; ///< ipc_sum vs baseline (when has_baseline)
    StatSet stats; ///< unified stats: sim.stats or attack.* counters
    /**
     * Observability digest (null when trace and metrics are off).
     * Deliberately absent from toJson()/resultJson()/the result cache:
     * result documents are compared bit-for-bit across engine modes
     * and must not grow keys when tracing is toggled. `--metrics` and
     * the sweep sidecar read it.
     */
    std::shared_ptr<obs::RunSummary> obs;

    /** {"scenario": {...}, "result": {...}} document. */
    std::string toJson() const;

    /** Just the "result" object (sweep documents embed many of them). */
    std::string resultJson() const;

    /**
     * Rebuild a ScenarioResult from a parsed resultJson() document
     * (out->config is set to @p cfg). The inverse of resultJson() for
     * everything that serialization carries: kind, the aggregate
     * metrics, norm_perf presence and the stat set — re-serializing
     * the reconstruction yields byte-identical resultJson() output
     * (doubles survive the %.17g round trip exactly). Fields the
     * document never carried (baseline_sim details, per-core IPC
     * vectors, wall-clock timing) stay at their defaults. Used by the
     * result cache and the isolated-sweep child protocol. False with
     * *err on structurally-unexpected documents.
     */
    static bool fromResultJson(const JsonValue& doc,
                               const ScenarioConfig& cfg,
                               ScenarioResult* out, std::string* err);

    /** Column names for csvRow(). */
    static std::vector<std::string> csvHeader();

    /** One CSV row: config keys then the aggregate metrics. */
    std::vector<std::string> csvRow() const;
};

/**
 * Registry of runnable scenario sources: every synthetic workload, the
 * trace-file reader, and the event-level attack families, behind the
 * same run interface. Attack sources map the shared scenario knobs
 * (nbo, nmit, psq_size, mitigation) onto their family's config.
 */
class ScenarioRegistry
{
  public:
    /**
     * Family runner. @p recorder is the run's observability hub (null
     * when tracing and metrics are both off); @p skip receives the
     * run's cycle-skipping counters, which stay out of the result
     * document. Event-level families with no MemorySystem ignore both.
     */
    using AttackRunner = std::function<StatSet(
        const ScenarioConfig&, obs::EventRecorder*, ctrl::SkipStats*)>;

    /** Registration metadata for one attack family. */
    struct AttackOptions
    {
        /** Scenario keys the family's runner maps onto its config
         * (printed by `qprac_sim --list-attacks`); each must be a
         * scenarioKeyTable() key. */
        std::vector<std::string> keys;
        /** True when the family models multiple channels (validate()
         * rejects channels != 1 for single-channel event models). */
        bool multi_channel = false;
    };

    struct SourceInfo
    {
        std::string name; ///< canonical prefixed form ("attack:wave")
        SourceKind kind;
        std::string description;
        /** Accepted scenario keys (attack families only). */
        std::vector<std::string> keys;
    };

    static ScenarioRegistry& instance();

    /** True when `source` can run (named workload or known attack). */
    bool has(const std::string& source) const;

    /** All registered named sources (workloads, then attacks). */
    std::vector<SourceInfo> sources() const;

    /** Register (or replace) an attack family with metadata. */
    void registerAttack(const std::string& name,
                        const std::string& description,
                        AttackOptions options, AttackRunner run);

    /** True when attack @p name models multiple channels. */
    bool attackSupportsChannels(const std::string& name) const;

    /**
     * Run any scenario; fatal() on unresolvable sources.
     * @p thread_budget caps the run's threading (shard engine +
     * baseline run); 0 resolves from cfg.threads. Sweep runners pass
     * their per-point share here so cfg stays untouched in emitted
     * results.
     */
    ScenarioResult run(const ScenarioConfig& cfg,
                       int thread_budget = 0) const;

  private:
    ScenarioRegistry();

    struct AttackEntry
    {
        std::string description;
        AttackOptions options;
        AttackRunner run;
    };

    std::vector<std::string> attack_order_;
    std::map<std::string, AttackEntry> attacks_;
};

/** ScenarioRegistry::instance().run(cfg, thread_budget). */
ScenarioResult runScenario(const ScenarioConfig& cfg,
                           int thread_budget = 0);

/** One sweep axis: a config key and its value list. */
struct SweepAxis
{
    std::string key;
    std::vector<std::string> values;

    /**
     * Parse "key=v1,v2,..." or the integer range forms "key=lo:hi" /
     * "key=lo:hi:step". The key must name a ScenarioConfig key.
     */
    static bool parse(const std::string& text, SweepAxis* out,
                      std::string* err);
};

/** A cross-product of sweep axes over ScenarioConfig keys. */
struct SweepSpec
{
    std::vector<SweepAxis> axes;

    /** Parse and append one axis (the --sweep argument form). */
    bool add(const std::string& text, std::string* err);

    /** Number of cross-product points (1 when no axes). */
    std::size_t points() const;

    /**
     * Deterministic enumeration of the cross-product: the first axis
     * varies slowest. No axes yields one empty override set (the base
     * scenario); an axis with zero values yields zero points.
     */
    std::vector<std::vector<std::pair<std::string, std::string>>>
    enumerate() const;
};

/** One executed sweep point. */
struct SweepPointResult
{
    std::vector<std::pair<std::string, std::string>> overrides;
    ScenarioResult result;
    /** Canonical content hash of the point's resolved config
     * (sim/scenario_hash.h), 16 hex digits. */
    std::string hash;
    /**
     * Wall-clock time of this point. For a computed point that is the
     * runScenario call; for a cache hit it is the (near-zero) lookup
     * time — a cached point must never leak the original run's timing
     * into throughput summaries. Deliberately kept out of the result
     * stats: it is machine noise, and result documents stay
     * bit-identical across thread counts. The scaling bench reads it
     * to record speedups.
     */
    double wall_ms = 0.0;
    /**
     * Engine throughput for this point: simulated cycles / wall second
     * (0 for attack points, which report no cycle count, and for cache
     * hits, where no simulation ran). Same machine-noise caveat as
     * wall_ms — lives beside the result, never inside it.
     */
    double sim_cycles_per_sec = 0.0;
    /** True when the result came from the cache, not a simulation. */
    bool cached = false;
    /** True when the point did not produce a result (isolated child
     * crashed, or its config failed validation under isolation). The
     * `result` field is default-constructed in that case. */
    bool failed = false;
    std::string error; ///< why failed is true
};

/**
 * Batch-service options for runSweep (all default-off: the plain
 * overload behaves exactly as before).
 */
struct SweepOptions
{
    /**
     * Consult (and fill) this content-addressed cache per point:
     * already-emitted points are skipped, so an interrupted grid
     * rerun resumes where it died. Cached results are byte-identical
     * to fresh runs (the hash excludes only result-neutral keys).
     */
    ResultCache* cache = nullptr;
    /**
     * Run every computed point in its own qprac_sim child process
     * (fork/exec on the existing worker fan-out) so one crashing
     * config yields a `failed` point entry instead of killing the
     * grid. Also downgrades per-point validation errors to failed
     * entries. Cache hits never spawn a child.
     */
    bool isolate = false;
    /**
     * Executable for isolated points; empty resolves to the running
     * binary (/proc/self/exe). Must speak the qprac_sim CLI
     * (`--set key=value ... --json`).
     */
    std::string isolate_exe;
};

/** What a batch sweep did, per point disposition. */
struct SweepCounters
{
    std::size_t points = 0;
    std::size_t hits = 0;     ///< served from cache
    std::size_t computed = 0; ///< simulated (in-process or isolated)
    std::size_t stored = 0;   ///< sidecars written
    std::size_t failed = 0;   ///< failed point entries
};

/**
 * Run the sweep cross-product over @p base in parallel; results are in
 * enumerate() order regardless of execution interleaving. The
 * base.threads budget (0 = hardware concurrency) is split between
 * point-level fan-out and each point's shard engine via
 * innerThreadBudget, so sweep x shard nesting cannot oversubscribe.
 * Returns an empty vector with *err set when an override is invalid.
 */
std::vector<SweepPointResult> runSweep(const ScenarioConfig& base,
                                       const SweepSpec& spec,
                                       std::string* err);

/**
 * The batch-service form: result cache, resumable grids and per-point
 * process isolation via @p options; per-point dispositions land in
 * *counters when given. Without isolation an invalid override still
 * fails the whole sweep up front (empty vector + *err); with it, bad
 * points become `failed` entries and the grid completes.
 */
std::vector<SweepPointResult> runSweep(const ScenarioConfig& base,
                                       const SweepSpec& spec,
                                       const SweepOptions& options,
                                       std::string* err,
                                       SweepCounters* counters = nullptr);

} // namespace qprac::sim

#endif // QPRAC_SIM_SCENARIO_H
