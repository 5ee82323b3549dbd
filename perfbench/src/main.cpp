/**
 * @file
 * Workload benchmark program:
 *
 *   perfbench --workload {sensorlife,gps_walk,serve_fleet} --seed N
 *             --seconds S --trace {0,1} [--trace-out FILE]
 *
 * Prints report lines, then one JSON object as the last line of
 * standard output: {"correct", "attempted", "failed", "metrics"}.
 * --trace 0 measures the end-to-end metrics with tracing off;
 * --trace 1 measures the per-layer split and writes the spans to
 * FILE as Chrome trace-event JSON. Exits 1 when an output check
 * fails and 2 on a usage error.
 */

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

bool
parseArgs(int argc, char** argv, perfbench::RunOptions& options)
{
    bool haveWorkload = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        char* end = nullptr;
        if (flag == "--workload") {
            options.workload = value;
            haveWorkload = true;
        } else if (flag == "--seed") {
            options.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            options.seconds = std::strtod(value.c_str(), &end);
            if (!(options.seconds > 0.0))
                return false;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                return false;
            options.trace = value == "1";
        } else if (flag == "--trace-out") {
            options.traceOut = value;
        } else {
            return false;
        }
        if (end != nullptr && *end != '\0')
            return false;
    }
    return haveWorkload && argc % 2 == 1;
}

} // namespace

int
main(int argc, char** argv)
{
    perfbench::RunOptions options;
    if (!parseArgs(argc, argv, options)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload NAME --seed N --seconds S "
                     "--trace {0,1} [--trace-out FILE]\n");
        return 2;
    }
    void (*run)(const perfbench::RunOptions&, perfbench::Report&) = nullptr;
    if (options.workload == "sensorlife")
        run = perfbench::runSensorLife;
    else if (options.workload == "gps_walk")
        run = perfbench::runGpsWalk;
    else if (options.workload == "serve_fleet")
        run = perfbench::runServeFleet;
    if (run == nullptr) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     options.workload.c_str());
        return 2;
    }

    perfbench::Report report;
    report.line("workload %s seed %llu seconds %g trace %d",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0);
    report.line("host %s", perfbench::fingerprint().c_str());
    try {
        run(options, report);
    } catch (const std::exception& error) {
        std::fprintf(stderr, "perfbench: %s\n", error.what());
        return 1;
    }
    report.printResult();
    return report.correct() ? 0 : 1;
}
