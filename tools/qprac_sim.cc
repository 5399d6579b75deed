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
 * `qprac_sim --help` lists every scenario key with its accepted values
 * and the legacy flag (`--psq-size N`, `--nbo N`, ...) that sets it.
 * The other options:
 *
 *   qprac_sim [options]
 *     --workload NAME      synthetic workload (default 429.mcf); see
 *                          --list for all 57
 *     --trace PATH         trace file instead of a synthetic workload
 *                          ("<bubbles> <load_addr> [<store_addr>]")
 *     --baseline           also run the insecure baseline
 *     --stats              dump the full stat set
 *     --config FILE        load a scenario config file first
 *     --set key=value      override any scenario key (repeatable)
 *     --sweep key=values   sweep axis, v1,v2 or lo:hi[:step] (repeatable)
 *     --json               emit the structured JSON document
 *     --csv PATH           write structured CSV rows to PATH (the file
 *                          is rewritten each run)
 *     --cache-dir PATH     content-addressed result cache: one JSON
 *                          sidecar per point named by the scenario
 *                          hash; hits are byte-identical to fresh runs
 *                          and interrupted grids resume for free
 *     --isolate            fork one qprac_sim per sweep point so a
 *                          crashing config records a failed point
 *                          instead of killing the grid
 *     --hash | --dry-run   print each resolved point's canonical hash
 *                          and cache status without simulating
 *     --list               list workloads, mitigations and attacks
 *     --list-designs       list registry designs with descriptions
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
