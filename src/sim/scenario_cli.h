/**
 * @file
 * The qprac_sim command line as a library function, so the golden
 * tests can pin its exact output (legacy flags must stay bit-identical
 * across refactors) and so other frontends can embed it.
 *
 * The CLI is a thin shell over sim/scenario.h: legacy flags and
 * `--set key=value` overrides both compile down to ScenarioConfig::set
 * calls, applied on top of an optional `--config file.ini` in
 * command-line order (later wins); `--sweep key=values` runs the
 * cross-product through runSweep(). `--json` and `--csv` emit the
 * structured formats.
 */
#ifndef QPRAC_SIM_SCENARIO_CLI_H
#define QPRAC_SIM_SCENARIO_CLI_H

#include <string>
#include <vector>

namespace qprac::sim {

struct ScenarioConfig; // sim/scenario.h

/** The scenario qprac_sim starts from (--help prints it as defaults). */
ScenarioConfig qpracSimDefaults();

/**
 * Run the qprac_sim CLI over @p args (argv[1..]); appends stdout text
 * to *out and stderr text to *err. Returns the process exit status
 * (0 success, 2 usage error).
 */
int runQpracSimCli(const std::vector<std::string>& args, std::string* out,
                   std::string* err);

} // namespace qprac::sim

#endif // QPRAC_SIM_SCENARIO_CLI_H
