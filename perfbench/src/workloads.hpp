/**
 * @file
 * The three workloads and the traced call wrappers they share.
 *
 * Every workload runs on library defaults: the Auto backend, default
 * BatchOptions, and (serve_fleet) default ServerOptions except
 * workers = 2. Untraced runs call the library's public query surface
 * exactly as a user would. Traced runs first resolve each plan with
 * planFor, timed as its own span, so the query call that follows
 * measures execution alone; each traced op is checked to reproduce
 * the untraced op's outputs bit for bit.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <ctime>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/batch.hpp"
#include "core/uncertain.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

void runSensorLife(const RunOptions& options, Report& report);
void runGpsWalk(const RunOptions& options, Report& report);
void runServeFleet(const RunOptions& options, Report& report);

/** Work counted at the traced call boundaries of core and stats. */
struct CoreCounts
{
    std::uint64_t ops = 0;
    std::uint64_t planLookups = 0;
    std::uint64_t planMisses = 0;
    std::uint64_t execDrawn = 0;  //!< root samples drawn by exec calls
    std::uint64_t conds = 0;
    std::uint64_t condDrawn = 0;  //!< root samples drawn for conditionals
    std::uint64_t condUsed = 0;   //!< samples the tests consumed
    std::uint64_t inconclusive = 0;
};

/** Per-phase serving-layer figures of a traced serve_fleet run. */
struct ServeLayers
{
    double encodeUs = 0.0;
    double submitUs = 0.0;
    double decodeUs = 0.0;
    double occupancyMean = 0.0;
    double occupancyMax = 0.0;
    double coalescedFrac = 0.0;
    double queuePeak = 0.0;
    double planHitFrac = 0.0;
    double modelBuilds = 0.0;
    double samplesPerReply = 0.0;
    double genLateP99Us = 0.0;
    double backlog = 0.0;
};

/** core.plan span around planFor; counts the lookup's outcome. */
template <typename T>
void
tracedPlan(Tracer& tracer, std::uint64_t op,
           const uncertain::core::NodePtr<T>& node,
           uncertain::core::BatchSampler& sampler, CoreCounts& counts)
{
    const auto before = sampler.planCache()->stats().misses;
    {
        Scope span(&tracer, "core.plan", op);
        (void)sampler.planFor(node);
    }
    ++counts.planLookups;
    counts.planMisses += sampler.planCache()->stats().misses - before;
}

/** Resolve the plan, then evaluate the conditional in core.exec. */
uncertain::core::ConditionalResult
tracedEvaluate(Tracer& tracer, std::uint64_t op,
               const uncertain::Uncertain<bool>& condition,
               double threshold,
               const uncertain::core::ConditionalOptions& options,
               uncertain::Rng& rng, uncertain::core::BatchSampler& sampler,
               CoreCounts& counts);

/** Resolve the plan, then take the expectation in core.exec. */
double tracedExpectation(Tracer& tracer, std::uint64_t op,
                         const uncertain::Uncertain<double>& value,
                         std::size_t n, uncertain::Rng& rng,
                         uncertain::core::BatchSampler& sampler,
                         CoreCounts& counts);

/** Build @p make's graph inside a core.build span. */
template <typename F>
auto
tracedBuild(Tracer& tracer, std::uint64_t op, F&& make)
{
    Scope span(&tracer, "core.build", op);
    return make();
}

/**
 * Emit every per-layer metric. Layers a workload does not reach
 * report 0; @p light and @p busy are null outside serve_fleet.
 */
void emitLayerMetrics(Report& report,
                      const std::map<std::string, Tracer::Totals>& totals,
                      const CoreCounts& counts, double overheadFrac,
                      const ServeLayers* light, const ServeLayers* busy);

/**
 * What one closed loop measured. Latency is kept as the p50 and p99
 * of each window of 1,000 consecutive ops, so the loop's memory does
 * not grow with its throughput (peak_rss_mb would otherwise move with
 * every speed-up), and a burst of host contention that lands in one
 * window does not set the reported figure.
 */
struct Tally
{
    static constexpr std::size_t kWindow = 1000;

    std::size_t ops = 0;
    std::uint64_t failed = 0;
    double seconds = 0.0;

    double
    opsPerS() const
    {
        return seconds > 0.0 ? static_cast<double>(ops) / seconds : 0.0;
    }

    void
    addLatency(double us)
    {
        window_.push_back(us);
        if (window_.size() == kWindow) {
            windowP50_.push_back(quantile(window_, 0.50));
            windowP99_.push_back(quantile(window_, 0.99));
            window_.clear();
        }
    }

    /** Median over the windows of each window's p50, microseconds. */
    double p50Us() const { return windowMedian(windowP50_, 0.50); }

    /** Median over the windows of each window's p99, microseconds. */
    double p99Us() const { return windowMedian(windowP99_, 0.99); }

  private:
    double
    windowMedian(const std::vector<double>& perWindow, double q) const
    {
        return perWindow.empty() ? quantile(window_, q) : median(perWindow);
    }

    std::vector<double> window_;
    std::vector<double> windowP50_;
    std::vector<double> windowP99_;
};

/**
 * A loop's outputs on its first pass over a workload's n inputs; op k
 * works on input k % n, and every later pass must repeat them.
 */
template <typename T>
struct Passes
{
    explicit Passes(std::size_t n) : first(n) {}

    void
    record(std::size_t k, const T& out)
    {
        const std::size_t i = k % first.size();
        if (k < first.size())
            first[i] = out;
        else if (!(first[i] == out))
            repeatable = false;
    }

    std::vector<T> first;
    bool repeatable = true;
};

/** One closed loop: @p op(k) runs the loop's k-th op, false if it failed. */
template <typename Op>
struct LoopSpec
{
    Tally& tally;
    double share;        //!< share of the measured time
    std::size_t minOps;  //!< ops to complete even past the time budget
    Op op;
};

template <typename Op>
LoopSpec<Op>
loop(Tally& tally, double share, std::size_t minOps, Op op)
{
    return {tally, share, minOps, std::move(op)};
}

/** Length of one closed-loop slice, seconds. */
constexpr double kSliceSeconds = 0.2;

/**
 * Run @p spec's op back to back for about @p budget seconds, timing
 * each op into its tally.
 */
template <typename Op>
void
runSlice(LoopSpec<Op>& spec, double budget)
{
    const auto sliceStart = nowNs();
    do {
        const auto t0 = nowNs();
        bool ok = false;
        try {
            ok = spec.op(spec.tally.ops);
        } catch (const std::exception&) {
            ok = false;
        }
        const auto t1 = nowNs();
        spec.tally.addLatency(static_cast<double>(t1 - t0) * 1e-3);
        spec.tally.failed += ok ? 0 : 1;
        ++spec.tally.ops;
    } while (secondsSince(sliceStart) < budget);
    spec.tally.seconds += secondsSince(sliceStart);
}

/**
 * Run closed loops in alternating slices of about kSliceSeconds until
 * @p seconds have passed and each loop has done its minOps. Slicing
 * spreads every loop over the whole run, so a few seconds of host
 * contention land on all of them alike instead of on one.
 */
template <typename... Ops>
void
interleave(double seconds, LoopSpec<Ops>... loops)
{
    const auto start = nowNs();
    const auto pending = [](const auto& spec) {
        return spec.tally.ops < spec.minOps;
    };
    while (secondsSince(start) < seconds || (pending(loops) || ...)) {
        const bool timeLeft = secondsSince(start) < seconds;
        ((timeLeft || pending(loops)
              ? runSlice(loops, kSliceSeconds * loops.share)
              : void()),
         ...);
    }
}

/**
 * Emit ops_per_s and op_p50_us of the batch-engine loop and
 * tree_ops_per_s of the tree-walk loop as metrics, and op_p99_us and
 * the batch/tree ratio as report lines.
 */
void emitClosedLoop(Report& report, const Tally& batch, const Tally& tree);

/**
 * Set-ups timed per run. Each lasts milliseconds, so one alone is at
 * the mercy of a single page fault or preemption; the median of this
 * many is not.
 */
constexpr int kSetupRepeats = 21;

/** CPU time this process has used so far, all threads, nanoseconds. */
inline std::int64_t
processCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

/**
 * Median over @p repeats calls of @p setup of the CPU time each used,
 * in all of the process's threads, seconds. CPU time rather than wall
 * time: serve_fleet's warm-up hands requests to two server workers,
 * and whether one of them is left holding a lone request for the
 * 2 ms batch window is a scheduling race that swung wall-clock set-up
 * between 7 and 29 ms on one host within a single run. A window wait
 * is asleep and costs no CPU, so this figure counts set-up work.
 */
template <typename F>
double
medianSetupSeconds(int repeats, F&& setup)
{
    std::vector<double> times;
    for (int i = 0; i < repeats; ++i) {
        const auto start = processCpuNs();
        setup();
        times.push_back(static_cast<double>(processCpuNs() - start) * 1e-9);
    }
    return median(times);
}

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
