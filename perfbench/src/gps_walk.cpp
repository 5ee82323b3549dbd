/**
 * @file
 * gps_walk: Figure 13's per-second loop over a seeded simulated walk
 * with the fig13 sensor settings. One op is one second of the walk:
 * speedFromFixes, improveSpeed (SIR 1500/800 through the sampler),
 * E[speed] and E[improved] (400 samples each), Pr[speed > 7] at 0.9,
 * and advise(improved). SIR is most of each op and plan compiles a
 * small share, so an inference or fill change shows here and a
 * plan-cache change should not.
 *
 * Op i draws from Rng(seed).split(i), so a pass over the walk
 * repeats its outputs exactly.
 *
 * A receiver glitch can put the whole speed estimate above the
 * prior's 10 mph support; improveSpeed then refuses ("the prior and
 * the estimate do not overlap"). The op treats that documented
 * refusal as its answer for the second: no improved estimate, no
 * advice. Refusals are counted and must stay rare.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <vector>

#include "gps/trajectory.hpp"
#include "gps/walking.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace uncertain;

namespace {

/**
 * Four hours: the sensor's errors are strongly correlated from second
 * to second, so a one-hour walk's error_rate moved by about 13%
 * (IQR/median) from seed to seed; four hours bring that near 4%.
 */
constexpr double kWalkSeconds = 14400.0;
constexpr std::size_t kEvalSamples = 400;

struct Inputs
{
    std::vector<gps::TruePosition> truth;
    std::vector<gps::GpsFix> fixes;

    std::size_t ops() const { return fixes.size() - 1; }
};

Inputs
makeInputs(std::uint64_t seed)
{
    Rng rng = Rng(seed).split(1);
    gps::WalkConfig walk;
    walk.durationSeconds = kWalkSeconds;
    gps::GpsSensorConfig sensorConfig;
    sensorConfig.epsilon95 = 2.0;
    sensorConfig.correlation = 0.95;
    sensorConfig.glitchProbability = 0.03;
    sensorConfig.glitchScale = 4.0;
    gps::GpsSensor sensor(sensorConfig);
    Inputs in;
    in.truth = gps::simulateWalk(walk, rng);
    in.fixes = gps::observeWalk(in.truth, sensor, rng);
    return in;
}

core::ConditionalOptions
fig13Conditional()
{
    core::ConditionalOptions options;
    options.sprt.maxSamples = 200;
    return options;
}

inference::ReweightOptions
fig13Reweight(core::BatchSampler* sampler)
{
    inference::ReweightOptions options;
    options.proposalSamples = 1500;
    options.resampleSize = 800;
    options.sampler = sampler;
    return options;
}

/** What one second of the walk returns. */
struct Output
{
    double speedMean = 0.0;
    double improvedMean = 0.0;
    bool running = false;
    bool sirRefused = false;
    gps::Advice advice = gps::Advice::None;

    bool operator==(const Output&) const = default;

    bool
    finite() const
    {
        return std::isfinite(speedMean) && std::isfinite(improvedMean);
    }
};

/** One op through the public calls; @p sampler null is the tree walk. */
Output
secondOfWalk(const Inputs& in, std::size_t i, const Rng& base,
             core::BatchSampler* sampler)
{
    Rng rng = base.split(i);
    const auto conditional = fig13Conditional();
    Output out;
    auto speed = gps::speedFromFixes(in.fixes[i], in.fixes[i + 1]);
    std::optional<Uncertain<double>> improved;
    try {
        improved = gps::improveSpeed(speed, fig13Reweight(sampler), rng);
    } catch (const Error&) {
        out.sirRefused = true;
    }
    if (sampler != nullptr) {
        out.speedMean = speed.expectedValue(kEvalSamples, rng, *sampler);
        out.running = (speed > 7.0).pr(0.9, conditional, rng, *sampler);
        if (improved) {
            out.improvedMean =
                improved->expectedValue(kEvalSamples, rng, *sampler);
            out.advice = gps::advise(*improved, conditional, rng, *sampler);
        }
    } else {
        out.speedMean = speed.expectedValue(kEvalSamples, rng);
        out.running = (speed > 7.0).pr(0.9, conditional, rng);
        if (improved) {
            out.improvedMean = improved->expectedValue(kEvalSamples, rng);
            out.advice = gps::advise(*improved, conditional);
        }
    }
    return out;
}

/**
 * The batch-engine op with a span around each call. gps::advise is
 * spelled out (its two conditionals) so each comparison's plan can
 * be resolved before it executes.
 */
Output
tracedSecond(const Inputs& in, std::size_t i, const Rng& base,
             core::BatchSampler& sampler, Tracer& tracer,
             CoreCounts& counts, std::uint64_t op)
{
    Scope opSpan(&tracer, "op", op);
    Rng rng = base.split(i);
    const auto conditional = fig13Conditional();
    Output out;
    const auto speed = [&] {
        Scope span(&tracer, "gps.build", op);
        return gps::speedFromFixes(in.fixes[i], in.fixes[i + 1]);
    }();
    tracedPlan(tracer, op, speed.node(), sampler, counts);
    std::optional<Uncertain<double>> improved;
    {
        Scope span(&tracer, "inference.sir", op);
        try {
            improved =
                gps::improveSpeed(speed, fig13Reweight(&sampler), rng);
        } catch (const Error&) {
            out.sirRefused = true;
        }
    }
    const auto test = [&](auto make, double threshold) {
        const Uncertain<bool> condition = tracedBuild(tracer, op, make);
        return tracedEvaluate(tracer, op, condition, threshold,
                              conditional, rng, sampler, counts)
            .toBool();
    };
    out.speedMean = tracedExpectation(tracer, op, speed, kEvalSamples, rng,
                                      sampler, counts);
    out.running = test([&] { return speed > 7.0; }, 0.9);
    if (improved) {
        out.improvedMean = tracedExpectation(tracer, op, *improved,
                                             kEvalSamples, rng, sampler,
                                             counts);
        if (test([&] { return *improved > gps::kBriskWalkMph; }, 0.5))
            out.advice = gps::Advice::GoodJob;
        else if (test([&] { return *improved < gps::kBriskWalkMph; }, 0.9))
            out.advice = gps::Advice::SpeedUp;
    }
    ++counts.ops;
    return out;
}

/** True average speed over second i of the walk, mph. */
double
trueSpeed(const Inputs& in, std::size_t i)
{
    return 0.5 * (in.truth[i].speedMph + in.truth[i + 1].speedMph);
}

/**
 * Median over the seconds SIR answered of |E[improved] - truth| /
 * truth. The median keeps the few receiver glitches of a walk from
 * setting the figure.
 */
double
relativeSpeedError(const Inputs& in, const std::vector<Output>& outputs)
{
    std::vector<double> errors;
    for (std::size_t i = 0; i < outputs.size(); ++i) {
        const double truth = trueSpeed(in, i);
        if (!outputs[i].sirRefused && truth > 0.0)
            errors.push_back(std::fabs(outputs[i].improvedMean - truth)
                             / truth);
    }
    return median(errors);
}

/** 2.5%-97.5% width of @p xs. */
double
width95(std::vector<double> xs)
{
    std::sort(xs.begin(), xs.end());
    const double n = static_cast<double>(xs.size());
    return xs[static_cast<std::size_t>(0.975 * n)]
           - xs[static_cast<std::size_t>(0.025 * n)];
}

/**
 * Figure 13's shape: the prior strips the naive speed spikes, and
 * the improved per-second 95% interval is tighter than the raw one.
 */
void
checkShape(Report& report, const Inputs& in, const std::vector<Output>& out,
           std::uint64_t seed)
{
    double naiveMax = 0.0;
    double improvedMax = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i) {
        naiveMax = std::max(naiveMax,
                            gps::naiveSpeedMph(in.fixes[i], in.fixes[i + 1]));
        if (!out[i].sirRefused)
            improvedMax = std::max(improvedMax, out[i].improvedMean);
    }
    char what[160];
    std::snprintf(what, sizeof(what),
                  "improved max %.2f mph below naive max %.2f mph",
                  improvedMax, naiveMax);
    report.check(improvedMax < naiveMax, what);

    core::BatchSampler sampler;
    const Rng base = Rng(seed).split(3);
    double rawWidth = 0.0;
    double improvedWidth = 0.0;
    const std::size_t stride = 10;
    std::size_t n = 0;
    for (std::size_t i = 0; i < out.size(); i += stride) {
        Rng rng = base.split(i);
        auto speed = gps::speedFromFixes(in.fixes[i], in.fixes[i + 1]);
        std::optional<Uncertain<double>> improved;
        try {
            improved = gps::improveSpeed(speed, fig13Reweight(&sampler), rng);
        } catch (const Error&) {
            continue; // the documented refusal; see the file comment
        }
        ++n;
        rawWidth += width95(speed.takeSamples(kEvalSamples, rng, sampler));
        improvedWidth +=
            width95(improved->takeSamples(kEvalSamples, rng, sampler));
    }
    std::snprintf(what, sizeof(what),
                  "improved mean 95%% width %.3f mph below raw %.3f mph "
                  "(%zu seconds)",
                  improvedWidth / static_cast<double>(n),
                  rawWidth / static_cast<double>(n), n);
    report.check(improvedWidth < rawWidth, what);
}

} // namespace

void
runGpsWalk(const RunOptions& options, Report& report)
{
    const Rng base = Rng(options.seed).split(2);
    Inputs in;
    std::unique_ptr<core::BatchSampler> sampler;
    const double setup = medianSetupSeconds(kSetupRepeats, [&] {
        in = makeInputs(options.seed);
        sampler = std::make_unique<core::BatchSampler>();
        for (std::size_t i = 0; i < 16; ++i)
            (void)secondOfWalk(in, i, base, sampler.get());
    });
    report.line("inputs: %zu-second walk, %zu ops per pass",
                static_cast<std::size_t>(kWalkSeconds), in.ops());

    const std::size_t n = in.ops();
    Tally batchTally;
    Passes<Output> batchPasses(n);
    const auto batchOp = [&](std::size_t k) {
        const Output out = secondOfWalk(in, k % n, base, sampler.get());
        batchPasses.record(k, out);
        return out.finite();
    };

    if (options.trace) {
        core::BatchSampler tracedSampler;
        Tracer tracer;
        CoreCounts counts;
        Tally tracedTally;
        Passes<Output> tracedPasses(n);
        interleave(options.seconds,
                   loop(batchTally, 0.4, n, batchOp),
                   loop(tracedTally, 0.6, n, [&](std::size_t k) {
                       const Output out = tracedSecond(
                           in, k % n, base, tracedSampler, tracer, counts, k);
                       tracedPasses.record(k, out);
                       return out.finite();
                   }));
        report.attempt(batchTally.ops + tracedTally.ops,
                       batchTally.failed + tracedTally.failed);
        report.check(batchTally.failed + tracedTally.failed == 0,
                     "every op finite, none failed");
        report.check(tracedPasses.first == batchPasses.first
                         && tracedPasses.repeatable
                         && batchPasses.repeatable,
                     "traced ops reproduce the untraced outputs");
        const auto totals = reportSelfTimes(tracer, tracedTally.ops, report);
        emitLayerMetrics(report, totals, counts,
                         batchTally.opsPerS() / tracedTally.opsPerS() - 1.0,
                         nullptr, nullptr);
        if (!options.traceOut.empty())
            report.check(writeChromeTrace(options.traceOut, {&tracer}),
                         "trace written to " + options.traceOut);
        return;
    }

    // The tree-walk advise() draws from the thread's global generator,
    // so tree outputs are checked for finiteness only.
    Tally treeTally;
    interleave(options.seconds, loop(batchTally, 0.65, n, batchOp),
               loop(treeTally, 0.35, 0, [&](std::size_t k) {
                   return secondOfWalk(in, k % n, base, nullptr).finite();
               }));
    report.attempt(batchTally.ops + treeTally.ops,
                   batchTally.failed + treeTally.failed);
    report.check(batchTally.failed + treeTally.failed == 0,
                 "every op finite, none failed");
    report.check(batchPasses.repeatable,
                 "batch engine: every pass repeats the first pass");

    checkShape(report, in, batchPasses.first, options.seed);
    const auto refused = static_cast<std::size_t>(
        std::count_if(batchPasses.first.begin(), batchPasses.first.end(),
                      [](const Output& o) { return o.sirRefused; }));
    char what[160];
    std::snprintf(what, sizeof(what),
                  "SIR refused %zu of %zu seconds (prior and estimate do "
                  "not overlap), at most 2%%",
                  refused, n);
    report.check(refused * 50 <= n, what);

    report.metric("setup_s", setup, "s");
    emitClosedLoop(report, batchTally, treeTally);
    report.metric("error_rate", relativeSpeedError(in, batchPasses.first),
                  "fraction");
    report.metric("peak_rss_mb", peakRssMb(), "MB");
}

} // namespace perfbench
