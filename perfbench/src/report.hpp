/**
 * @file
 * Shared plumbing of the workload benchmark: run options, the metric
 * report and its final JSON line, output checks, latency statistics,
 * and the Poisson arrival schedule of serve_fleet's open-loop phases.
 */

#ifndef PERFBENCH_REPORT_HPP
#define PERFBENCH_REPORT_HPP

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Monotonic time in nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now().time_since_epoch())
        .count();
}

inline double
secondsSince(std::int64_t startNs)
{
    return static_cast<double>(nowNs() - startNs) * 1e-9;
}

/** Command-line options of one run. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut; //!< Chrome trace-event file (trace runs)
};

/**
 * Collects metrics and check outcomes, prints human-readable report
 * lines as it goes, and ends the run with the one-line JSON result.
 */
class Report
{
  public:
    void metric(const std::string& name, double value,
                const std::string& unit);

    /**
     * A figure printed as a report line only: measured and shown, but
     * not a metric of the result line, because its run-to-run spread
     * on a shared host is wider than any bound a regression gate could
     * use, or because only one workload has it while every metric of
     * the result line is reported by every workload.
     */
    void reportOnly(const std::string& name, double value,
                    const std::string& unit);

    /** Record an output check; a false @p ok fails the run. */
    void check(bool ok, const std::string& what);

    /** printf-style report line on standard output. */
    void line(const char* format, ...)
        __attribute__((format(printf, 2, 3)));

    /** Count attempted operations and the ones that failed. */
    void attempt(std::uint64_t attempted, std::uint64_t failed)
    {
        attempted_ += attempted;
        failed_ += failed;
    }

    bool correct() const { return failures_ == 0; }

    /**
     * Print the failed share of attempted ops as a report line (it is
     * 0 on a healthy run, so it is not a metric), then the JSON result
     * as the last line of standard output.
     */
    void printResult() const;

  private:
    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };

    std::vector<Metric> metrics_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::size_t failures_ = 0;
};

/** The @p q quantile (nearest rank) of @p values; 0 when empty. */
double quantile(std::vector<double> values, double q);

/**
 * Median over consecutive windows of @p window values (in the given
 * order) of each window's @p q quantile. With windows of 1,000 a p99
 * still has ten values beyond it in every window, and a burst of host
 * contention that lands in one window does not set the figure.
 */
double windowedQuantile(const std::vector<double>& values, double q,
                        std::size_t window = 1000);

/** Median of @p values. */
inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/**
 * Poisson arrival offsets (seconds from phase start) at @p rate per
 * second over @p duration seconds, drawn from @p seed.
 */
std::vector<double> poissonSchedule(double rate, double duration,
                                    std::uint64_t seed);

/** Peak resident set size of this process so far, MiB. */
double peakRssMb();

/**
 * Host and build fingerprint: nproc, SIMD ISA, JIT availability,
 * compiler and build type.
 */
std::string fingerprint();

} // namespace perfbench

#endif // PERFBENCH_REPORT_HPP
