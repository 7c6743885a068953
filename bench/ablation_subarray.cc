/**
 * @file
 * Ablation — off-row-cycle counter updates: inline PRAC counter
 * updates (the RMW folded into every precharge, paper-faithful
 * tRAS = 16ns / tRP = 36ns split) vs counter-update=queued, which
 * reverts banks to the conventional 32ns / 16ns split (PRACtical).
 * The RMW (20 ns) fits inside the conventional row cycle (48 ns) a
 * bank waits out before its next ACT, so the split is the whole
 * timing effect (asserted when the device is built).
 *
 * Sweep: counter-update x recovery x channels over an alert-heavy
 * base (NBO = 8). Queued updates shorten every row cycle by the RMW
 * cost, so they recover IPC under both recovery policies.
 *
 * Everything derives from examples/scenarios/ablation_subarray.ini
 * plus the sweep specs below. The matrix is written to
 * BENCH_subarray.json (the checked-in copy records a reference run;
 * QPRAC_BENCH_SUBARRAY_OUT moves it). QPRAC_ASSERT_COUNTER_UPDATE=1
 * turns the takeaway into a hard bar: queued must beat inline IPC on
 * every swept (recovery, channels) point. The bar is about simulated
 * cycles, not wall clock, so it is deterministic and never
 * self-skips.
 */
#include "bench_common.h"

#include <map>

using namespace qprac;
using sim::ScenarioConfig;
using sim::SweepPointResult;
using sim::SweepSpec;

namespace {

constexpr const char* kModeAxis = "counter-update=inline,queued";

} // namespace

int
main(int argc, char** argv)
{
    bench::banner("Ablation",
                  "counter update: inline RMW vs queued (conventional "
                  "row-cycle split) — IPC");

    sim::ResultCache cache(bench::cacheDirFromArgs(argc, argv));

    ScenarioConfig base = bench::loadBaseScenario(
        "../examples/scenarios/ablation_subarray.ini",
        {{"source", "workload:510.parest_r"},
         {"nbo", "8"},
         {"insts", "30000"},
         {"cores", "2"},
         {"mapping", "channel-striped"}});

    // --- Throughput: mode x recovery x channels ------------------------
    auto perf = bench::runSweepAxes(
        base,
        {kModeAxis, "recovery=channel-stall,bank-isolated",
         "channels=1,2"},
        &cache);

    // inline reference IPC per (recovery, channels) point.
    std::map<std::string, double> inline_ipc;
    const auto point_key = [](const SweepPointResult& p) {
        return bench::overrideValue(p, "recovery") + "/" +
               bench::overrideValue(p, "channels");
    };
    for (const auto& p : perf)
        if (bench::overrideValue(p, "counter-update") == "inline")
            inline_ipc[point_key(p)] = p.result.sim.ipc_sum;

    bench::ResultSink perf_csv(
        "ablation_subarray",
        {"counter_update", "recovery", "channels", "ipc_sum",
         "ipc_vs_inline", "cycles", "alerts_per_trefi"});
    Table pt({"counter-update", "recovery", "channels", "IPC (sum)",
              "vs inline", "alerts/tREFI"});
    double min_gain = 1e9, max_gain = 0.0;
    bool bar_failed = false;
    std::string bar_detail;
    for (const auto& p : perf) {
        const std::string mode =
            bench::overrideValue(p, "counter-update");
        const double ref = inline_ipc[point_key(p)];
        const double rel =
            ref > 0 ? p.result.sim.ipc_sum / ref : 0.0;
        if (mode != "inline") {
            min_gain = std::min(min_gain, rel - 1.0);
            max_gain = std::max(max_gain, rel - 1.0);
            if (rel <= 1.0) {
                bar_failed = true;
                bar_detail = mode + " at " + point_key(p) + " = " +
                             Table::num(rel, 4) + "x";
            }
        }
        perf_csv.addRow({mode, bench::overrideValue(p, "recovery"),
                         bench::overrideValue(p, "channels"),
                         Table::num(p.result.sim.ipc_sum, 4),
                         Table::num(rel, 4),
                         Table::num(double(p.result.sim.cycles), 0),
                         Table::num(p.result.sim.alerts_per_trefi, 4)});
        pt.addRow({mode, bench::overrideValue(p, "recovery"),
                   bench::overrideValue(p, "channels"),
                   Table::num(p.result.sim.ipc_sum, 4),
                   Table::num(rel, 4),
                   Table::num(p.result.sim.alerts_per_trefi, 4)});
    }
    pt.print();

    // --- BENCH_subarray.json -------------------------------------------
    JsonWriter w;
    w.beginObject();
    w.key("bench").value("ablation_subarray");
    w.key("points").value(static_cast<std::uint64_t>(perf.size()));
    w.key("min_ipc_gain").value(min_gain);
    w.key("max_ipc_gain").value(max_gain);
    w.key("rows").beginArray();
    for (const auto& p : perf) {
        w.beginObject();
        for (const char* axis : {"counter-update", "recovery", "channels"})
            w.key(axis).value(bench::overrideValue(p, axis));
        w.key("hash").value(p.hash);
        w.key("ipc_sum").value(p.result.sim.ipc_sum);
        w.key("cycles").value(
            static_cast<std::uint64_t>(p.result.sim.cycles));
        w.endObject();
    }
    w.endArray();
    w.endObject();
    const char* out_env = std::getenv("QPRAC_BENCH_SUBARRAY_OUT");
    const std::string out_path =
        out_env ? out_env : "BENCH_subarray.json";
    {
        std::ofstream out(out_path);
        if (out)
            out << w.str() << "\n";
        else
            std::printf("note: could not write %s\n", out_path.c_str());
    }

    // Opt-in hard bar (CI): queued updates must beat the tRC-limited
    // inline baseline on every swept point.
    if (std::getenv("QPRAC_ASSERT_COUNTER_UPDATE")) {
        std::printf("counter-update assert: IPC gain %.2f%% .. %.2f%% "
                    "over inline\n",
                    100.0 * min_gain, 100.0 * max_gain);
        if (bar_failed)
            fatal(strCat("queued did not beat inline: ", bar_detail));
    }

    std::printf(
        "\nTakeaway: taking the counter RMW off the row cycle buys "
        "%.1f%%..%.1f%% IPC over the inline PRAC split across the "
        "recovery x channel grid (full numbers in %s).\n",
        100.0 * min_gain, 100.0 * max_gain, out_path.c_str());
    if (cache.enabled()) {
        const auto c = cache.counters();
        std::printf("cache: %zu hit, %zu stored; dir %s\n", c.hits,
                    c.stored, cache.dir().c_str());
    }
    return 0;
}
