/**
 * @file
 * perfbench: one workload, one mode, one JSON line on stdout.
 *
 *   perfbench --workload NAME [--seed N] [--trace 0|1]
 *             (--setup-only | --seconds S --workdir DIR)
 *
 * --setup-only measures set-up once, as a fresh process pays it; run.py
 * starts several such processes per benchmark run. Otherwise the
 * workload repeats for S seconds, timed (--trace 0) or alternating with
 * traced replicas (--trace 1). The line carries the operations attempted
 * and failed, the failure messages, the metrics and the result digests;
 * run.py turns it into the benchmark's result.
 */
#include <sys/resource.h>

#include <filesystem>
#include <iostream>
#include <string>

#include "common/json.h"
#include "common/parse.h"
#include "workloads.h"

namespace {

int
usage(const std::string& why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload NAME [--seed N] [--trace 0|1]"
                 " (--setup-only | --seconds S --workdir DIR)\n"
              << "workloads:";
    for (const auto& w : perfbench::workloadNames())
        std::cerr << " " << w;
    std::cerr << "\n";
    return 2;
}

double
peakRssMiB()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace

int
main(int argc, char** argv)
{
    std::string workload, workdir;
    std::uint64_t seed = 1, seconds = 10, trace = 0;
    bool setup_only = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--setup-only") {
            setup_only = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage(arg + " needs a value");
        const std::string value = argv[++i];
        bool ok = true;
        if (arg == "--workload")
            workload = value;
        else if (arg == "--workdir")
            workdir = value;
        else if (arg == "--seed")
            ok = qprac::parseU64(value, &seed);
        else if (arg == "--seconds")
            ok = qprac::parseU64(value, &seconds) && seconds >= 1;
        else if (arg == "--trace")
            ok = qprac::parseU64(value, &trace) && trace <= 1;
        else
            return usage("unknown argument " + arg);
        if (!ok)
            return usage(arg + "='" + value + "' is out of range");
    }
    bool known = false;
    for (const auto& w : perfbench::workloadNames())
        known = known || w == workload;
    if (!known)
        return usage("unknown workload '" + workload + "'");

    if (!setup_only && workdir.empty())
        return usage("--workdir is required unless --setup-only");

    perfbench::Report rep;
    if (setup_only) {
        rep = perfbench::measureSetup(workload, seed, trace == 1);
    } else {
        std::filesystem::create_directories(workdir);
        const double s = static_cast<double>(seconds);
        if (trace == 1) {
            rep = perfbench::runTraced(workload, seed, s, workdir);
        } else {
            rep = perfbench::runTimed(workload, seed, s, workdir);
            rep.metrics["peak_rss_mb"] = peakRssMiB();
        }
    }

    qprac::JsonWriter w;
    w.beginObject();
    w.key("attempted").value(rep.attempted);
    w.key("failed").value(rep.failed);
    w.key("failures").beginArray();
    for (const auto& f : rep.failures)
        w.value(f);
    w.endArray();
    w.key("metrics").beginObject();
    for (const auto& [name, value] : rep.metrics)
        w.key(name).value(value);
    w.endObject();
    w.key("info").beginObject();
    for (const auto& [name, value] : rep.info)
        w.key(name).value(value);
    w.endObject();
    w.endObject();
    std::cout << w.str() << std::endl;
    return 0;
}
