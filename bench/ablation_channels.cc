/**
 * @file
 * Ablation — channel scaling: weighted speedup and alerts/tREFI for
 * QPRAC vs MOAT over 1/2/4 independent DRAM channels, plus the engine
 * scaling matrix: v1 (alternating) vs v2 (pipelined) over
 * channels x skip x threads, emitted
 * to BENCH_engine.json together with a dense-vs-next-event skip
 * efficiency measurement on an idle-heavy workload.
 *
 * The whole figure is driven by the checked-in scenario file
 * examples/scenarios/ablation_channels.ini and two sweep specs — no
 * bespoke loops: a mitigation=none sweep over channels x workload
 * produces one shared insecure baseline per cell, and the main
 * channels x mitigation x workload cross-product is normalized
 * against it, so norm_perf isolates the mitigation cost at that
 * channel count without re-running identical baselines per design.
 * The scaling section reruns the 4- and 8-channel points at
 * threads=1/2/4 and records the wall-clock speedup runSweep measured
 * for each point; simulation results are bit-identical across thread
 * counts by construction, so the speedup column is the only thing that
 * moves. The CI bars compare medians of interleaved repeats.
 */
#include "bench_common.h"

#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

using namespace qprac;
using sim::ScenarioConfig;
using sim::SweepPointResult;
using sim::SweepSpec;

using bench::overrideValue;

int
main(int argc, char** argv)
{
    bench::banner("Ablation",
                  "channel scaling: QPRAC vs MOAT over 1/2/4 channels, "
                  "engine v1-vs-v2 x skip scaling matrix at 4/8 channels");

    // --cache-dir / QPRAC_CACHE_DIR: caches the baseline and main
    // sweeps only. The engine-scaling matrix below must never be
    // cached: its rows differ only in threads/pipeline/skip,
    // which are result-neutral and so excluded from the scenario hash —
    // all rows share one hash, and the point of the matrix is wall
    // clock, which a cache hit falsifies.
    sim::ResultCache cache(bench::cacheDirFromArgs(argc, argv));

    ScenarioConfig base = bench::loadBaseScenario(
        "../examples/scenarios/ablation_channels.ini",
        {{"source", "workload:429.mcf"},
         {"mitigation", "qprac+proactive-ea"}});

    const std::vector<std::string> channel_values = {"1", "2", "4"};
    const std::vector<std::string> designs = {"qprac+proactive-ea",
                                              "moat"};
    const std::vector<std::string> sources = {
        "workload:510.parest_r", "workload:429.mcf", "workload:470.lbm",
        "workload:tpcc64"};

    std::string err;
    std::string srcs;
    for (const auto& s : sources)
        srcs += (srcs.empty() ? "" : ",") + s;

    // One insecure baseline per (channels, workload) cell, shared by
    // both designs (runComparison's base_results sharing, in sweep
    // form).
    ScenarioConfig insecure = base;
    std::string set_err;
    if (!insecure.set("mitigation", "none", &set_err))
        fatal(strCat("bad baseline scenario: ", set_err));
    auto base_points = bench::runSweepAxes(
        insecure, {"channels=1,2,4", "source=" + srcs}, &cache);
    std::map<std::string, double> base_ipc; // "channels|source" -> IPC
    for (const auto& p : base_points)
        base_ipc[overrideValue(p, "channels") + "|" +
                 overrideValue(p, "source")] = p.result.sim.ipc_sum;

    auto points = bench::runSweepAxes(
        base, {"channels=1,2,4",
               "mitigation=" + designs[0] + "," + designs[1],
               "source=" + srcs},
        &cache);

    auto norm_perf = [&](const SweepPointResult& p) {
        double b = base_ipc.at(overrideValue(p, "channels") + "|" +
                               overrideValue(p, "source"));
        return b > 0 ? p.result.sim.ipc_sum / b : 0.0;
    };

    bench::ResultSink csv("ablation_channels",
                          {"channels", "design", "workload", "norm_perf",
                           "alerts_per_trefi", "rbmpki"});
    for (const auto& p : points)
        csv.addRow({overrideValue(p, "channels"),
                    overrideValue(p, "mitigation"),
                    p.result.config.sourceName(),
                    Table::num(norm_perf(p), 4),
                    Table::num(p.result.sim.alerts_per_trefi, 4),
                    Table::num(p.result.sim.rbmpki, 2)});

    Table t({"channels", "design", "weighted speedup", "slowdown %",
             "alerts/tREFI"});
    for (const auto& ch : channel_values) {
        for (const auto& design : designs) {
            std::vector<double> perf;
            std::vector<double> alerts;
            for (const auto& p : points) {
                if (overrideValue(p, "channels") != ch ||
                    overrideValue(p, "mitigation") != design)
                    continue;
                perf.push_back(norm_perf(p));
                alerts.push_back(p.result.sim.alerts_per_trefi);
            }
            bench::SeriesSummary s = bench::summarizeSeries(perf);
            t.addRow({ch, design, Table::num(s.geomean, 4),
                      Table::num(bench::slowdownPct(s.geomean), 2),
                      Table::num(mean(alerts), 4)});
        }
    }
    t.print();

    // --- Engine scaling: v1 vs v2, channels x skip x threads -----------
    // One row per (channels, engine, skip, threads). v1 is the
    // alternating engine (pipeline=off); v2 is the pipelined engine
    // (pipeline=on); skip toggles the next-event cycle skipping in the
    // shard loops. Every row is asserted bit-identical to the v1 dense
    // serial reference (skipping is a pure engine optimization, like
    // threading), so the only thing that moves between rows is the
    // wall clock. Speedups are vs the v1 skip=off threads=1 row of the
    // same channel count. The whole matrix is written to
    // BENCH_engine.json (the checked-in copy records a reference
    // machine; QPRAC_BENCH_ENGINE_OUT moves it).
    struct Engine
    {
        const char* label;
        const char* pipeline;
    };
    const std::vector<Engine> engines = {
        {"v1", "off"},
        {"v2", "on"},
    };

    bench::ResultSink scale_csv(
        "ablation_channels_scaling",
        {"channels", "engine", "skip", "threads", "wall_ms",
         "sim_cycles_per_sec", "speedup_vs_v1_t1", "cycles", "ipc_sum"});
    Table st({"channels", "engine", "skip", "threads", "wall ms",
              "Mcycles/s", "speedup vs v1 t1"});

    JsonWriter bench_json;
    bench_json.beginObject();
    bench_json.key("bench").value("engine_scaling");
    bench_json.key("hardware_threads").value(
        static_cast<std::uint64_t>(hardwareThreads()));
    bench_json.key("rows").beginArray();

    std::string json_8ch; // the 8-channel v1 reference for the bar pairs
    for (const char* ch : {"4", "8"}) {
        ScenarioConfig scaling = base;
        bool ok = scaling.set("baseline", "false", &set_err) &&
                  scaling.set("channels", ch, &set_err) &&
                  scaling.set("mapping", "channel-striped", &set_err) &&
                  scaling.set("source", "workload:429.mcf", &set_err);
        if (!ok)
            fatal(strCat("bad scaling scenario: ", set_err));

        double wall_v1_t1 = 0.0;
        std::string json_v1; // v1 dense serial identity reference
        std::map<std::string, std::string> json_t1; // per-engine t1 ref
        for (const auto& eng : engines) {
            if (!scaling.set("pipeline", eng.pipeline, &set_err))
                fatal(strCat("bad engine override: ", set_err));
            for (const char* skip : {"off", "on"}) {
                if (!scaling.set("skip", skip, &set_err))
                    fatal(strCat("bad skip override: ", set_err));
                for (int threads : {1, 2, 4}) {
                    scaling.threads = threads;
                    auto run = sim::runSweep(scaling, SweepSpec{}, &err);
                    if (run.size() != 1)
                        fatal(strCat("scaling run failed: ", err));
                    const SweepPointResult& p = run.front();
                    const std::string json = p.result.resultJson();
                    // Thread-count and skip invariance within each
                    // engine (one reference per engine label covers
                    // both axes)…
                    auto [it, fresh] = json_t1.emplace(eng.label, json);
                    if (!fresh && it->second != json)
                        fatal(strCat(eng.label, " skip=", skip,
                                     " diverged across rows"));
                    // …and v2 must be bit-identical to v1 outright.
                    const bool dense = std::string(skip) == "off";
                    if (std::string(eng.label) == "v1") {
                        json_v1 = json;
                        if (dense && threads == 1)
                            wall_v1_t1 = p.wall_ms;
                    } else if (std::string(eng.label) == "v2" &&
                               json != json_v1) {
                        fatal("v2 engine diverged from v1 output");
                    }
                    const double speedup =
                        p.wall_ms > 0 ? wall_v1_t1 / p.wall_ms : 0.0;
                    const double mcps = p.sim_cycles_per_sec / 1e6;
                    scale_csv.addRow(
                        {ch, eng.label, skip, Table::num(threads, 0),
                         Table::num(p.wall_ms, 1), Table::num(mcps, 2),
                         Table::num(speedup, 2),
                         Table::num(double(p.result.sim.cycles), 0),
                         Table::num(p.result.sim.ipc_sum, 3)});
                    st.addRow({ch, eng.label, skip,
                               Table::num(threads, 0),
                               Table::num(p.wall_ms, 1),
                               Table::num(mcps, 2),
                               Table::num(speedup, 2)});
                    bench_json.beginObject();
                    bench_json.key("channels").value(ch);
                    bench_json.key("engine").value(eng.label);
                    bench_json.key("skip").value(skip);
                    bench_json.key("threads").value(
                        static_cast<std::uint64_t>(threads));
                    bench_json.key("wall_ms").value(p.wall_ms);
                    bench_json.key("sim_cycles_per_sec")
                        .value(p.sim_cycles_per_sec);
                    bench_json.key("speedup_vs_v1_t1").value(speedup);
                    bench_json.key("cycles_skipped")
                        .value(p.result.sim.skip.cycles_skipped);
                    bench_json.endObject();
                }
            }
        }
        if (std::string(ch) == "8")
            json_8ch = json_v1;
    }
    st.print();
    bench_json.endArray();

    // --- Bar pairs: medians of interleaved repeats ----------------------
    // The two CI bars compare 8-channel rows: v1 t1 vs v2 t4 with skip
    // on (QPRAC_ASSERT_SCALING), and v1 t1 dense vs skip
    // (QPRAC_ASSERT_SKIP; channel striping leaves each shard idle for
    // most of its cycles, so this is where skipping must pay). One
    // timing per row moves with the host's current phase, so each bar
    // compares medians of kBarRepeats rounds, every round running the
    // three rows back to back.
    struct BarRow
    {
        const char* label;
        const char* pipeline;
        const char* skip;
        int threads;
        std::vector<double> wall_ms;
    };
    std::vector<BarRow> bar_rows = {{"v1 t1 dense", "off", "off", 1, {}},
                                    {"v1 t1 skip", "off", "on", 1, {}},
                                    {"v2 t4 skip", "on", "on", 4, {}}};
    constexpr int kBarRepeats = 5;
    {
        ScenarioConfig bar = base;
        bool ok = bar.set("baseline", "false", &set_err) &&
                  bar.set("channels", "8", &set_err) &&
                  bar.set("mapping", "channel-striped", &set_err) &&
                  bar.set("source", "workload:429.mcf", &set_err);
        if (!ok)
            fatal(strCat("bad bar scenario: ", set_err));
        for (int round = 1; round <= kBarRepeats; ++round) {
            for (auto& row : bar_rows) {
                if (!bar.set("pipeline", row.pipeline, &set_err) ||
                    !bar.set("skip", row.skip, &set_err))
                    fatal(strCat("bad bar override: ", set_err));
                bar.threads = row.threads;
                auto run = sim::runSweep(bar, SweepSpec{}, &err);
                if (run.size() != 1)
                    fatal(strCat("bar run failed: ", err));
                if (run.front().result.resultJson() != json_8ch)
                    fatal(strCat(row.label, " round ", round,
                                 " diverged from the v1 dense reference"));
                row.wall_ms.push_back(run.front().wall_ms);
                std::printf("bar round %d: %-11s at 8 channels %8.1f ms\n",
                            round, row.label, run.front().wall_ms);
            }
        }
    }
    const double median_dense = percentileOf(bar_rows[0].wall_ms, 50.0);
    const double median_skip = percentileOf(bar_rows[1].wall_ms, 50.0);
    const double median_v2_t4 = percentileOf(bar_rows[2].wall_ms, 50.0);

    // --- Skip efficiency: dense vs next-event on an idle-heavy point ---
    // 444.namd has ~0.3 LLC misses/kilo-inst, so the DRAM shards spend
    // almost every cycle with empty queues — this measures how much of
    // the shard clock the horizons prove dead (and asserts byte
    // identity once more). Its end-to-end ratio is Amdahl-capped by
    // the serial core/LLC phase, so the QPRAC_ASSERT_SKIP bar below
    // uses the 8-channel shard-bound bar pair instead.
    const double skip_ratio_8ch =
        median_skip > 0 ? median_dense / median_skip : 0.0;
    double namd_ratio = 0.0;
    {
        ScenarioConfig idle = base;
        bool ok = idle.set("baseline", "false", &set_err) &&
                  idle.set("channels", "4", &set_err) &&
                  idle.set("mapping", "channel-striped", &set_err) &&
                  idle.set("source", "workload:444.namd", &set_err);
        if (!ok)
            fatal(strCat("bad idle scenario: ", set_err));
        idle.threads = 1;
        double cps[2] = {0, 0};
        std::string json_dense;
        std::uint64_t skipped = 0, shard_cycles = 0;
        for (int on = 0; on < 2; ++on) {
            if (!idle.set("skip", on ? "on" : "off", &set_err))
                fatal(strCat("bad skip override: ", set_err));
            auto run = sim::runSweep(idle, SweepSpec{}, &err);
            if (run.size() != 1)
                fatal(strCat("idle run failed: ", err));
            const SweepPointResult& p = run.front();
            if (on == 0) {
                json_dense = p.result.resultJson();
            } else if (p.result.resultJson() != json_dense) {
                fatal("skip=on diverged from dense on idle workload");
            }
            cps[on] = p.sim_cycles_per_sec;
            if (on) {
                skipped = p.result.sim.skip.cycles_skipped;
                shard_cycles = p.result.sim.cycles * 4;
            }
        }
        namd_ratio = cps[0] > 0 ? cps[1] / cps[0] : 0.0;
        const double pct =
            shard_cycles > 0 ? 100.0 * double(skipped) / double(shard_cycles)
                             : 0.0;
        std::printf("\nskip efficiency (444.namd, 4ch, threads=1): "
                    "%.1f%% of shard cycles skipped, %.2fx sim-cycles/sec "
                    "vs dense end to end\n"
                    "skip efficiency (429.mcf, 8ch, v1, threads=1): "
                    "%.2fx vs dense\n",
                    pct, namd_ratio, skip_ratio_8ch);
        bench_json.key("skip_bench").beginObject();
        bench_json.key("source").value("workload:444.namd");
        bench_json.key("channels").value(std::uint64_t{4});
        bench_json.key("cycles_skipped").value(skipped);
        bench_json.key("shard_cycles").value(shard_cycles);
        bench_json.key("dense_cycles_per_sec").value(cps[0]);
        bench_json.key("skip_cycles_per_sec").value(cps[1]);
        bench_json.key("speedup").value(namd_ratio);
        bench_json.key("speedup_8ch_v1_t1").value(skip_ratio_8ch);
        bench_json.endObject();
    }

    bench_json.endObject();
    const char* out_env = std::getenv("QPRAC_BENCH_ENGINE_OUT");
    const std::string out_path = out_env ? out_env : "BENCH_engine.json";
    {
        std::ofstream out(out_path);
        if (out)
            out << bench_json.str() << "\n";
        else
            std::printf("note: could not write %s\n", out_path.c_str());
    }

    // Every enabled bar below is evaluated and printed with its verdict
    // first, so one log shows every reading; the run then fails once,
    // naming each bar that missed.
    std::vector<std::string> missed;

    // CI smoke hook: on a multi-core runner the v2 engine at 4 threads
    // must clearly beat the v1 engine at 1 thread on the 8-channel
    // point (generous 1.5x bar; scaling is machine noise on fewer than
    // 4 hardware threads, so the assert is opt-in and self-skipping).
    if (std::getenv("QPRAC_ASSERT_SCALING")) {
        if (hardwareThreads() < 4) {
            std::printf("scaling assert skipped: only %d hardware "
                        "threads\n",
                        hardwareThreads());
        } else {
            const double ratio =
                median_v2_t4 > 0 ? median_skip / median_v2_t4 : 0.0;
            const bool ok = ratio >= 1.5;
            std::printf("scaling assert: v2@4t vs v1@1t at 8 channels "
                        "= %.2fx (medians of %d rounds, bar 1.5x): %s\n",
                        ratio, kBarRepeats, ok ? "pass" : "FAIL");
            if (!ok)
                missed.push_back(strCat("engine v2 scaling ",
                                        Table::num(ratio, 2), "x < 1.5x"));
        }
    }

    // CI smoke hook: next-event skipping must clearly pay for itself on
    // the idle-heavy 8-channel point (each striped shard idles through
    // the vast majority of its cycles) — >= 2x wall clock over dense
    // ticking, single-threaded on the same box, so no core-count
    // self-skip is needed.
    if (std::getenv("QPRAC_ASSERT_SKIP")) {
        const bool ok = skip_ratio_8ch >= 2.0;
        std::printf("skip assert: next-event vs dense at 8 channels "
                    "= %.2fx (medians of %d rounds, bar 2x): %s\n",
                    skip_ratio_8ch, kBarRepeats, ok ? "pass" : "FAIL");
        if (!ok)
            missed.push_back(strCat("cycle skipping ",
                                    Table::num(skip_ratio_8ch, 2),
                                    "x < 2x"));
    }

    if (!missed.empty()) {
        std::string why;
        for (const std::string& m : missed)
            why += (why.empty() ? "" : "; ") + m;
        fatal(strCat("engine bars missed: ", why));
    }

    std::printf(
        "\nTakeaway: sharding the memory system across channels spreads "
        "activations, so per-bank PRAC counts grow more slowly and both "
        "designs alert less; QPRAC's slowdown stays near zero at every "
        "channel count. The engine matrix shows v2's pipelined overlap "
        "plus the next-event cycle skipping: identical "
        "simulation output to v1 dense ticking at every row, wall clock "
        "bounded by the physical core count (%d here), full numbers in "
        "%s.\n",
        hardwareThreads(), out_path.c_str());
    return 0;
}
