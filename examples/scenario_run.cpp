/**
 * @file
 * Scenario API walkthrough: describe a run as key=value pairs, execute
 * it, sweep an axis, and consume the structured results — the same
 * surface qprac_sim, the benches and the tests share.
 *
 * Build:   cmake --build build --target example_scenario_run
 * Run:     ./build/example_scenario_run
 */
#include <cstdio>

#include "sim/scenario.h"

using namespace qprac;

int
main()
{
    // 1. A scenario is one flat config record. Keys parse from INI
    //    files, --set flags, or direct set() calls — all validated.
    sim::ScenarioConfig cfg;
    std::string err;
    for (const auto& [key, value] :
         {std::pair<const char*, const char*>{"source",
                                              "workload:429.mcf"},
          {"mitigation", "qprac+proactive-ea"},
          {"insts", "20000"},
          {"cores", "2"},
          {"seed", "7"}}) {
        if (!cfg.set(key, value, &err)) {
            std::fprintf(stderr, "config error: %s\n", err.c_str());
            return 1;
        }
    }

    // 2. Run it. The result carries the aggregates, the full stat set,
    //    and JSON/CSV serialization.
    sim::ScenarioResult res = sim::runScenario(cfg);
    std::printf("one run:   cycles=%llu ipc=%.3f rbmpki=%.2f\n",
                static_cast<unsigned long long>(res.sim.cycles),
                res.sim.ipc_sum, res.sim.rbmpki);

    // 3. Sweep an axis (cross-products run in parallel, results come
    //    back in deterministic enumeration order).
    sim::SweepSpec sweep;
    if (!sweep.add("psq_size=1:3", &err)) {
        std::fprintf(stderr, "sweep error: %s\n", err.c_str());
        return 1;
    }
    for (const auto& point : sim::runSweep(cfg, sweep, &err))
        std::printf("psq_size=%s: ipc=%.3f\n",
                    point.overrides[0].second.c_str(),
                    point.result.sim.ipc_sum);

    // 4. The same scenario as an attack: one key swap moves the run to
    //    the event-level Wave attack family.
    if (!cfg.set("source", "attack:wave", &err)) {
        std::fprintf(stderr, "config error: %s\n", err.c_str());
        return 1;
    }
    sim::ScenarioResult wave = sim::runScenario(cfg);
    std::printf("attack:wave max_count=%g (NBO %d)\n",
                wave.stats.get("attack.max_count"), cfg.nbo);

    // 5. Everything serializes: round-trip the config and emit JSON.
    sim::ScenarioConfig reparsed;
    if (!sim::ScenarioConfig::fromIniText(cfg.toIni(), &reparsed, &err)) {
        std::fprintf(stderr, "round-trip error: %s\n", err.c_str());
        return 1;
    }
    std::printf("round-trip identical: %s\n",
                reparsed.toIni() == cfg.toIni() ? "yes" : "NO");
    std::printf("%s\n", wave.toJson().c_str());
    return 0;
}
