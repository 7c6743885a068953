/**
 * @file
 * Figure 19 — worst-case activation-bandwidth loss under the multi-bank
 * alert-storm attack (paper §VI-E), for RFMab / RFMsb / RFMpb scopes
 * with and without proactive mitigation, NBO 16-128.
 *
 * Two views are reported:
 *  - the paper's analytical worst case (one alert per NBO saturated-rate
 *    ACTs, each costing ABO + RFM time on the covered banks);
 *  - the measured loss of a concrete round-robin attacker in the
 *    cycle-level simulator (QPRAC's opportunistic draining blunts it
 *    well below the analytical bound).
 */
#include "bench_common.h"

#include "attacks/perf_attack.h"

using namespace qprac;
using attacks::analyticBandwidthLossPct;
using attacks::bandwidthLossPct;
using attacks::PerfAttackConfig;
using dram::RfmScope;

int
main()
{
    bench::banner("Fig 19", "activation-bandwidth loss under alert storm");

    std::printf("\n-- analytical worst case (paper model) --\n");
    Table t({"NBO", "RFMab", "RFMab+Pro", "RFMsb+Pro", "RFMpb+Pro"});
    bench::ResultSink csv("fig19_perf_attack",
                  {"nbo", "series", "loss_pct", "source"});
    for (int nbo : {16, 32, 64, 128}) {
        double ab = analyticBandwidthLossPct(nbo, RfmScope::AllBank, false);
        double abp = analyticBandwidthLossPct(nbo, RfmScope::AllBank, true);
        double sbp =
            analyticBandwidthLossPct(nbo, RfmScope::SameBank, true);
        double pbp = analyticBandwidthLossPct(nbo, RfmScope::PerBank, true);
        t.addRow({std::to_string(nbo), Table::pct(ab, 1),
                  Table::pct(abp, 1), Table::pct(sbp, 1),
                  Table::pct(pbp, 1)});
        csv.addRow({std::to_string(nbo), "RFMab", Table::num(ab, 2),
                    "analytic"});
        csv.addRow({std::to_string(nbo), "RFMab+Pro", Table::num(abp, 2),
                    "analytic"});
        csv.addRow({std::to_string(nbo), "RFMsb+Pro", Table::num(sbp, 2),
                    "analytic"});
        csv.addRow({std::to_string(nbo), "RFMpb+Pro", Table::num(pbp, 2),
                    "analytic"});
    }
    t.print();
    std::printf("Paper: RFMab 62%%-93%% (NBO 128->16); +Proactive 0%% at "
                "128, 10%% at 64, 77%%/91%% at 32/16; RFMsb/pb reduce "
                "the loss to 42%%/15%% at NBO=32.\n");

    std::printf("\n-- measured (cycle-level round-robin attacker) --\n");
    Table m({"NBO", "RFMab", "RFMab+Pro", "RFMsb+Pro", "RFMpb+Pro"});
    for (int nbo : {16, 32, 64, 128}) {
        auto run = [&](RfmScope scope, bool pro) {
            const sim::DesignSpec d = sim::DesignSpec::qprac(
                pro ? core::QpracConfig::proactiveEvery(nbo)
                    : core::QpracConfig::base(nbo),
                scope);
            PerfAttackConfig c;
            c.timing = d.timing;
            c.ctrl.abo = d.abo;
            c.mitigation = d.factory;
            c.sim_cycles = 600'000;
            double loss = bandwidthLossPct(c);
            csv.addRow({std::to_string(nbo),
                        std::string(scope == RfmScope::AllBank
                                        ? (pro ? "RFMab+Pro" : "RFMab")
                                        : scope == RfmScope::SameBank
                                              ? "RFMsb+Pro"
                                              : "RFMpb+Pro"),
                        Table::num(loss, 2), "simulated"});
            return loss;
        };
        m.addRow({std::to_string(nbo),
                  Table::pct(run(RfmScope::AllBank, false), 1),
                  Table::pct(run(RfmScope::AllBank, true), 1),
                  Table::pct(run(RfmScope::SameBank, true), 1),
                  Table::pct(run(RfmScope::PerBank, true), 1)});
    }
    m.print();
    std::printf("\nNote: the measured attacker is weaker than the "
                "analytical worst case because QPRAC's opportunistic "
                "all-bank draining consumes its stocked rows.\n");
    return 0;
}
