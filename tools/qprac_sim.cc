/**
 * @file
 * qprac_sim — command-line driver for the full-system simulator.
 *
 * Thin shell over sim/scenario_cli.h: every run is a declarative
 * scenario (see sim/scenario.h). Legacy flags, `--config file.ini`,
 * `--set key=value` overrides and `--sweep key=values` cross-products
 * all funnel into the same ScenarioConfig; results come back through
 * the structured emission layer (tables, `--json`, `--csv`).
 *
 * `qprac_sim --help` lists every option and generates the scenario-key
 * table (key, legacy flag, default, hash class, meaning) from
 * sim/scenario.cc; `--list-attacks` lists the attack families and the
 * keys each one reads.
 */
#include <cstdio>
#include <string>
#include <vector>

#include "sim/scenario_cli.h"

int
main(int argc, char** argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    std::string out;
    std::string err;
    int status = qprac::sim::runQpracSimCli(args, &out, &err);
    if (!out.empty())
        std::fputs(out.c_str(), stdout);
    if (!err.empty())
        std::fputs(err.c_str(), stderr);
    return status;
}
