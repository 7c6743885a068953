/**
 * @file
 * Microbenchmarks (google-benchmark) of the PSQ datapath — the
 * operations the paper synthesizes at 2.5ns in 45nm CMOS (§VI-F) — and
 * of the competing tracker structures, as an ablation of the design
 * choice "priority CAM vs FIFO vs oracular top-N".
 */
#include <benchmark/benchmark.h>

#include <deque>
#include <vector>

#include "common/rng.h"
#include "core/psq.h"
#include "core/qprac.h"
#include "dram/prac_counters.h"
#include "mitigations/mithril.h"

using namespace qprac;

static void
BM_PsqActivate(benchmark::State& state)
{
    core::LinearCamQueue q(static_cast<int>(state.range(0)));
    Rng rng(7);
    ActCount count = 0;
    for (auto _ : state) {
        int row = static_cast<int>(rng.nextBelow(64));
        benchmark::DoNotOptimize(q.onActivate(row, ++count));
    }
}
BENCHMARK(BM_PsqActivate)->Arg(5)->Arg(16)->Arg(64)->Arg(256);

static void
BM_PsqTop(benchmark::State& state)
{
    core::LinearCamQueue psq(5);
    for (int i = 0; i < 5; ++i)
        psq.onActivate(i, static_cast<ActCount>(i + 1));
    for (auto _ : state)
        benchmark::DoNotOptimize(psq.top());
}
BENCHMARK(BM_PsqTop);

static void
BM_FifoQueueActivate(benchmark::State& state)
{
    // The Panopticon-style alternative: FIFO push/pop with membership.
    std::deque<int> fifo;
    Rng rng(7);
    for (auto _ : state) {
        int row = static_cast<int>(rng.nextBelow(64));
        if (fifo.size() >= 5)
            fifo.pop_front();
        fifo.push_back(row);
        benchmark::DoNotOptimize(fifo.back());
    }
}
BENCHMARK(BM_FifoQueueActivate);

static void
BM_QpracFullActivatePath(benchmark::State& state)
{
    // ACT -> PRAC counter increment -> PSQ insert -> alert-flag update.
    dram::PracCounters ctrs(1, 4096);
    core::Qprac qprac(core::QpracConfig::base(32, 1), &ctrs);
    Rng rng(7);
    for (auto _ : state) {
        int row = static_cast<int>(rng.nextBelow(512)) * 8;
        ActCount c = ctrs.onActivate(0, row);
        qprac.onActivate(0, row, c, 0);
        if (qprac.wantsAlert())
            qprac.onRfm(0, dram::RfmScope::AllBank, true, 0);
    }
}
BENCHMARK(BM_QpracFullActivatePath);

static void
BM_QpracBatchedActivatePath(benchmark::State& state)
{
    // The path the DRAM device uses: one onActivateBatch call per
    // command burst instead of a virtual call per ACT.
    dram::PracCounters ctrs(1, 4096);
    core::Qprac qprac(core::QpracConfig::base(32, 1), &ctrs);
    dram::RowhammerMitigation* mit = &qprac; // virtual boundary
    Rng rng(7);
    std::vector<dram::ActEvent> batch;
    batch.reserve(64);
    for (auto _ : state) {
        int row = static_cast<int>(rng.nextBelow(512)) * 8;
        batch.push_back({0, row, ctrs.onActivate(0, row), 0});
        if (batch.size() == 64) {
            mit->onActivateBatch(batch.data(),
                                 static_cast<int>(batch.size()));
            batch.clear();
            if (mit->wantsAlert())
                mit->onRfm(0, dram::RfmScope::AllBank, true, 0);
        }
    }
}
BENCHMARK(BM_QpracBatchedActivatePath);

static void
BM_IdealActivatePath(benchmark::State& state)
{
    // The "oracular" UPRAC-style tracker QPRAC-Ideal models.
    dram::PracCounters ctrs(1, 4096);
    core::Qprac ideal(core::QpracConfig::idealTopN(32, 1), &ctrs);
    Rng rng(7);
    for (auto _ : state) {
        int row = static_cast<int>(rng.nextBelow(512)) * 8;
        ActCount c = ctrs.onActivate(0, row);
        ideal.onActivate(0, row, c, 0);
        if (ideal.wantsAlert())
            ideal.onRfm(0, dram::RfmScope::AllBank, true, 0);
    }
}
BENCHMARK(BM_IdealActivatePath);

static void
BM_MithrilActivate(benchmark::State& state)
{
    dram::PracCounters ctrs(1, 8192);
    mitigations::MithrilConfig cfg;
    cfg.entries = static_cast<int>(state.range(0));
    mitigations::Mithril mithril(cfg, &ctrs);
    Rng rng(7);
    for (auto _ : state) {
        int row = static_cast<int>(rng.nextBelow(4096));
        ActCount c = ctrs.onActivate(0, row);
        mithril.onActivate(0, row, c, 0);
    }
}
BENCHMARK(BM_MithrilActivate)->Arg(64)->Arg(512);

BENCHMARK_MAIN();
