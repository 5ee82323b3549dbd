#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <random>
#include <thread>

#include "core/jit/jit_compiler.hpp"
#include "core/simd_kernels.hpp"

namespace perfbench {

void
Report::metric(const std::string& name, double value,
               const std::string& unit)
{
    if (!std::isfinite(value)) {
        check(false, "metric " + name + " is finite");
        value = 0.0;
    }
    metrics_.push_back({name, value, unit});
    line("metric %-28s %.6g %s", name.c_str(), value, unit.c_str());
}

void
Report::reportOnly(const std::string& name, double value,
                   const std::string& unit)
{
    line("report %-28s %.6g %s (not gated)", name.c_str(), value,
         unit.c_str());
}

void
Report::check(bool ok, const std::string& what)
{
    if (!ok)
        ++failures_;
    line("check  %-4s %s", ok ? "ok" : "FAIL", what.c_str());
}

void
Report::line(const char* format, ...)
{
    va_list args;
    va_start(args, format);
    std::vprintf(format, args);
    va_end(args);
    std::printf("\n");
    std::fflush(stdout);
}

void
Report::printResult() const
{
    std::printf("failed_frac %.6g (%llu failed of %llu attempted ops)\n",
                attempted_ > 0 ? static_cast<double>(failed_)
                                     / static_cast<double>(attempted_)
                               : 0.0,
                static_cast<unsigned long long>(failed_),
                static_cast<unsigned long long>(attempted_));
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct() ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                    metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    std::size_t index =
        rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    index = std::min(index, values.size() - 1);
    std::nth_element(values.begin(),
                     values.begin() + static_cast<std::ptrdiff_t>(index),
                     values.end());
    return values[index];
}

double
windowedQuantile(const std::vector<double>& values, double q,
                 std::size_t window)
{
    const std::size_t windows =
        std::max<std::size_t>(1, values.size() / window);
    const std::size_t size = values.size() / windows;
    std::vector<double> perWindow;
    for (std::size_t w = 0; w < windows; ++w) {
        const auto first =
            values.begin() + static_cast<std::ptrdiff_t>(w * size);
        perWindow.push_back(quantile(
            std::vector<double>(first,
                                first + static_cast<std::ptrdiff_t>(size)),
            q));
    }
    return median(perWindow);
}

namespace {

/** One unit-rate exponential gap; dividing by a rate gives any rate. */
double
unitGap(std::mt19937_64& engine)
{
    const double u = static_cast<double>(engine() >> 11) * 0x1.0p-53;
    return -std::log1p(-u);
}

} // namespace

std::vector<double>
poissonSchedule(double rate, double duration, std::uint64_t seed)
{
    std::mt19937_64 engine(seed);
    std::vector<double> due;
    double t = 0.0;
    for (;;) {
        t += unitGap(engine) / rate;
        if (t >= duration)
            break;
        due.push_back(t);
    }
    return due;
}

double
peakRssMb()
{
    // VmHWM, not getrusage's ru_maxrss: the kernel carries ru_maxrss
    // over from the image a process had before execve, so a program
    // started from a larger parent (a Python wrapper) would report the
    // parent's resident size instead of its own.
    std::FILE* status = std::fopen("/proc/self/status", "r");
    if (status == nullptr)
        return 0.0;
    char line[256];
    double kb = 0.0;
    while (std::fgets(line, sizeof(line), status) != nullptr) {
        if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1)
            break;
    }
    std::fclose(status);
    return kb / 1024.0;
}

std::string
fingerprint()
{
    namespace simd = uncertain::simd;
    namespace jit = uncertain::jit;
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer),
                  "nproc=%u isa=%s jit=%s compiler=\"%s\" build=%s",
                  std::thread::hardware_concurrency(),
                  simd::isaName(simd::activeIsa()),
                  jit::available() ? "yes" : "no", __VERSION__,
                  PERFBENCH_BUILD_TYPE);
    return buffer;
}

} // namespace perfbench
