/**
 * @file
 * The benchmark's four workloads, each run through the simulator's
 * public API with one thread:
 *
 *  - mcf-4ch    workload:429.mcf, 4 channels   (memory-bound)
 *  - namd-4ch   workload:444.namd, 4 channels  (idle-heavy)
 *  - dos-storm  attack:recovery-dos, bank-isolated recovery, 1 channel
 *  - wave-sweep attack:wave over mitigation x psq_size x nbo x r1,
 *               cold through an empty result cache, then warm
 *
 * A timed run measures the end-to-end metrics with tracing off. A
 * traced run alternates untraced runs with replicas that make the same
 * public calls under layers.h's timers, checks that both produce the
 * same result bytes, and reports the per-layer metrics. README.md
 * explains every workload and metric.
 */
#ifndef QPRAC_PERFBENCH_WORKLOADS_H
#define QPRAC_PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "layers.h"
#include "sim/scenario.h"

namespace perfbench {

/** The workload names, in suite order. */
const std::vector<std::string>& workloadNames();

/** What one benchmark invocation measured and checked. */
struct Report
{
    std::uint64_t attempted = 0; ///< operations: runs, sweep points, checks
    std::uint64_t failed = 0;
    std::vector<std::string> failures; ///< one line per failed operation
    std::map<std::string, double> metrics;
    std::map<std::string, std::string> info; ///< digests and counts

    /** Count one operation; a false @p ok records @p what as failed. */
    void check(bool ok, const std::string& what);
};

/**
 * Set-up as a fresh process pays it (call once per process). Reports
 * `setup_s`; with @p traced also `setup.memory_s`, the MemorySystem
 * constructor's share.
 */
Report measureSetup(const std::string& workload, std::uint64_t seed,
                    bool traced);

/**
 * Repeat the workload for @p seconds (at least once) with tracing off.
 * Reports run_s, warm_s and sim_mcycles_per_s as medians over batch
 * means, one batch per eighth of the run's wall time; the caller adds
 * setup_s and peak_rss_mb. @p workdir
 * holds the run's result caches.
 */
Report runTimed(const std::string& workload, std::uint64_t seed,
                double seconds, const std::string& workdir);

/** Alternate untraced and traced repetitions for @p seconds. */
Report runTraced(const std::string& workload, std::uint64_t seed,
                 double seconds, const std::string& workdir);

// --- Building blocks (also used by the self-checks) --------------------

/** The scenario of mcf-4ch / namd-4ch (threads=1, seed from the run). */
qprac::sim::ScenarioConfig systemScenario(const std::string& workload,
                                          std::uint64_t seed);

/** The dos-storm scenario. */
qprac::sim::ScenarioConfig dosScenario();

/** The wave-sweep base scenario and its grid. */
qprac::sim::ScenarioConfig waveBase();
qprac::sim::SweepSpec waveSpec();

/** One System run's outcome. */
struct SystemRun
{
    qprac::sim::ScenarioResult result;
    std::string doc;       ///< result.resultJson()
    bool complete = false; ///< every core reached its instruction target
    double run_s = 0.0;    ///< host time of the run loop
};

/** Counters a traced System replica reads from the layers. */
struct SystemLayerCounts
{
    std::uint64_t trace_records = 0;
    std::uint64_t core_ticks = 0;
    std::uint64_t mailbox_calls = 0;
    MitigationCounts mit;
    qprac::ctrl::SkipStats skip;
    std::uint64_t shard_cycles = 0; ///< channels x cycles the shards covered
    std::uint64_t commands = 0;     ///< DRAM commands issued
};

/** ScenarioConfig -> System -> System::run, as ScenarioRegistry does. */
SystemRun runSystem(const qprac::sim::ScenarioConfig& cfg);

/**
 * Build the System's parts through their public constructors and make
 * the calls System::run makes at threads=1 (the pipelined schedule
 * without a pool), timing each layer on @p clock.
 */
SystemRun runSystemTraced(const qprac::sim::ScenarioConfig& cfg,
                          LayerClock& clock, SystemLayerCounts* counts);

/** attack:recovery-dos through the attack driver with every mitigation
 * call timed; returns the result document runScenario would give. */
std::string runDosTraced(const qprac::sim::ScenarioConfig& cfg,
                         LayerClock& clock, MitigationCounts* counts);

/** hash + result document of every sweep point, in grid order. */
std::vector<std::string>
sweepDocuments(const std::vector<qprac::sim::SweepPointResult>& points);

/** Counters of traced sweep passes (cache counters accumulate). */
struct SweepLayerCounts
{
    std::uint64_t points = 0; ///< grid points of one pass
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t rejected = 0;
    double wave_acts = 0.0; ///< Σ attack.total_acts of computed points
};

/**
 * runSweep's per-point lookup -> runScenario -> store loop, made from
 * the benchmark with each call timed; returns sweepDocuments() form.
 */
std::vector<std::string>
runSweepTraced(const qprac::sim::ScenarioConfig& base,
               const qprac::sim::SweepSpec& spec, const std::string& cache_dir,
               LayerClock& clock, SweepLayerCounts* counts);

/** FNV-1a 64 of @p text as 16 hex digits (result digests). */
std::string digest(const std::string& text);

} // namespace perfbench

#endif // QPRAC_PERFBENCH_WORKLOADS_H
