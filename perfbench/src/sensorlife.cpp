/**
 * @file
 * sensorlife: Figure 14's SensorLife, Gaussian sensors, on seeded
 * random boards at sigma = 0.1 (decisive) and sigma = 0.3 (near the
 * rule boundary), with the fig14 SPRT settings. One op is one cell
 * update. Every update builds a fresh 8-leaf neighbour-sum graph and
 * asks one to three conditionals that stop after a few dozen
 * samples, so plan compiles (all misses) and evidence overdraw
 * dominate; SIR and serving do no work.
 *
 * Boards evolve under the exact rules, so every engine and mode sees
 * the same cells; op i draws from Rng(seed).split(i), so a pass over
 * the cells repeats its decisions exactly.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <random>
#include <vector>

#include "life/board.hpp"
#include "life/noisy_sensor.hpp"
#include "life/variants.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace uncertain;

namespace {

constexpr std::size_t kBoardSide = 16;
constexpr std::size_t kBoardsPerSigma = 8;
constexpr std::size_t kGenerations = 4;
constexpr double kSigmas[2] = {0.1, 0.3};

/**
 * Expected wrong-decision rate of SensorLife per sigma under the fig14
 * SPRT settings on this workload's boards. At sigma = 0.3 most errors
 * are dead cells with exactly three live neighbours: the rounded birth
 * test Pr[|sum - 3| < 0.5] stays below one half, so birth never fires
 * (the deviation EXPERIMENTS.md records for Figure 14). Measured over
 * about forty seeds of this workload.
 */
constexpr double kExpectedErrorRate[2] = {0.0005, 0.117};

struct Cell
{
    std::uint32_t board; //!< index into Inputs::boards
    std::uint8_t x;
    std::uint8_t y;
};

struct Inputs
{
    std::vector<life::Board> boards; //!< snapshots, exact evolution
    std::vector<int> sigma;          //!< kSigmas index per snapshot
    std::vector<Cell> cells;         //!< one pass of ops
};

Inputs
makeInputs(std::uint64_t seed)
{
    Inputs in;
    Rng rng = Rng(seed).split(1);
    for (int s = 0; s < 2; ++s) {
        for (std::size_t b = 0; b < kBoardsPerSigma; ++b) {
            life::Board board(kBoardSide, kBoardSide);
            board.randomize(rng, 0.35);
            for (std::size_t g = 0; g < kGenerations; ++g) {
                in.boards.push_back(board);
                in.sigma.push_back(s);
                board = board.stepExact();
            }
        }
    }
    for (std::uint32_t b = 0; b < in.boards.size(); ++b) {
        for (std::uint8_t y = 0; y < kBoardSide; ++y)
            for (std::uint8_t x = 0; x < kBoardSide; ++x)
                in.cells.push_back({b, x, y});
    }
    // Shuffled, so any stretch of a pass mixes both sigmas and every
    // board and a run's partial last pass is a fair sample.
    std::shuffle(in.cells.begin(), in.cells.end(),
                 std::mt19937_64(seed ^ 0x63656c6cULL));
    return in;
}

core::ConditionalOptions
fig14Options()
{
    core::ConditionalOptions options;
    options.sprt.batchSize = 8;
    options.sprt.maxSamples = 160;
    return options;
}

/** The library's SensorLife, one variant per sigma, on one engine. */
struct Engine
{
    explicit Engine(core::BatchSampler* sampler)
    {
        for (int s = 0; s < 2; ++s) {
            variants.push_back(std::make_unique<life::SensorLife>(
                kSigmas[s], fig14Options()));
            variants.back()->useBatchEngine(sampler);
        }
    }

    bool
    update(const Inputs& in, std::size_t i, const Rng& base) const
    {
        const Cell& c = in.cells[i];
        Rng rng = base.split(i);
        return variants[in.sigma[c.board]]
            ->updateCell(in.boards[c.board], c.x, c.y, rng)
            .willBeAlive;
    }

    std::vector<std::unique_ptr<life::SensorLife>> variants;
};

/**
 * SensorLife::updateCell spelled out through the public API with a
 * span around each call: the sensor leaves (life), the neighbour sum
 * and rule comparisons (core.build), plan lookup and execution.
 */
bool
tracedUpdate(const Inputs& in, std::size_t i, const Rng& base,
             core::BatchSampler& sampler, Tracer& tracer,
             CoreCounts& counts, std::uint64_t op)
{
    Scope opSpan(&tracer, "op", op);
    const Cell& c = in.cells[i];
    const life::Board& board = in.boards[c.board];
    const double sigma = kSigmas[in.sigma[c.board]];
    const auto options = fig14Options();
    Rng rng = base.split(i);

    std::vector<Uncertain<double>> sensors;
    {
        Scope span(&tracer, "life.build", op);
        const life::NoisySensor sensor(sigma);
        for (int dy = -1; dy <= 1; ++dy) {
            for (int dx = -1; dx <= 1; ++dx) {
                const long nx = c.x + dx;
                const long ny = c.y + dy;
                if ((dx == 0 && dy == 0) || nx < 0 || ny < 0
                    || nx >= static_cast<long>(board.width())
                    || ny >= static_cast<long>(board.height()))
                    continue;
                sensors.push_back(sensor.senseNeighbor(
                    board, static_cast<std::size_t>(nx),
                    static_cast<std::size_t>(ny)));
            }
        }
    }
    const Uncertain<double> numLive = tracedBuild(tracer, op, [&] {
        Uncertain<double> sum(0.0);
        for (const auto& s : sensors)
            sum = sum + s;
        return sum;
    });
    const auto test = [&](auto make) {
        const Uncertain<bool> condition = tracedBuild(tracer, op, make);
        return tracedEvaluate(tracer, op, condition, 0.5, options, rng,
                              sampler, counts)
            .toBool();
    };

    ++counts.ops;
    if (board.alive(c.x, c.y)) {
        if (test([&] { return numLive < 1.5; }))
            return false;
        if (test([&] { return (numLive >= 1.5) && (numLive <= 3.5); }))
            return true;
        if (test([&] { return numLive > 3.5; }))
            return false;
        return true;
    }
    return test([&] { return approxEqual(numLive, 3.0, 0.5); });
}

struct ErrorCount
{
    std::size_t wrong[2] = {0, 0};
    std::size_t total[2] = {0, 0};

    double
    rate() const
    {
        return static_cast<double>(wrong[0] + wrong[1])
               / static_cast<double>(total[0] + total[1]);
    }
};

ErrorCount
countErrors(const Inputs& in, const std::vector<std::uint8_t>& decisions)
{
    ErrorCount e;
    for (std::size_t i = 0; i < in.cells.size(); ++i) {
        const Cell& c = in.cells[i];
        const int s = in.sigma[c.board];
        ++e.total[s];
        if (static_cast<bool>(decisions[i])
            != in.boards[c.board].nextStateExact(c.x, c.y))
            ++e.wrong[s];
    }
    return e;
}

/**
 * Is @p wrong of @p n within 6 binomial sigmas of rate @p p? Six, not
 * the usual three or four: a board's cells share its structure, so
 * counts spread wider across seeds than independent trials would.
 */
bool
withinBinomial(std::size_t wrong, std::size_t n, double p)
{
    const double mean = p * static_cast<double>(n);
    const double sd = std::sqrt(static_cast<double>(n) * p * (1.0 - p));
    return std::fabs(static_cast<double>(wrong) - mean) <= 6.0 * sd + 1.0;
}

void
checkErrors(Report& report, const char* engine, const ErrorCount& e)
{
    for (int s = 0; s < 2; ++s) {
        char what[160];
        std::snprintf(what, sizeof(what),
                      "%s engine, sigma %.1f: %zu wrong of %zu within "
                      "the binomial band around %.4f",
                      engine, kSigmas[s], e.wrong[s], e.total[s],
                      kExpectedErrorRate[s]);
        report.check(withinBinomial(e.wrong[s], e.total[s],
                                    kExpectedErrorRate[s]),
                     what);
    }
}

} // namespace

void
runSensorLife(const RunOptions& options, Report& report)
{
    const Rng base = Rng(options.seed).split(2);
    Inputs in;
    std::unique_ptr<core::BatchSampler> sampler;
    std::unique_ptr<Engine> batch;
    const double setup = medianSetupSeconds(kSetupRepeats, [&] {
        in = makeInputs(options.seed);
        sampler = std::make_unique<core::BatchSampler>();
        batch = std::make_unique<Engine>(sampler.get());
        // Warm-up: the first ops pay one-time library set-up.
        for (std::size_t i = 0; i < 64; ++i)
            (void)batch->update(in, i, base);
    });
    report.line("inputs: %zu boards %zux%zu, %zu cell updates per pass, "
                "sigma 0.1 and 0.3", in.boards.size(), kBoardSide,
                kBoardSide, in.cells.size());

    const std::size_t n = in.cells.size();
    Tally batchTally;
    Passes<std::uint8_t> batchPasses(n);
    const auto batchOp = [&](std::size_t k) {
        batchPasses.record(k, batch->update(in, k % n, base));
        return true;
    };

    if (options.trace) {
        core::BatchSampler tracedSampler;
        Tracer tracer;
        CoreCounts counts;
        Tally tracedTally;
        Passes<std::uint8_t> tracedPasses(n);
        interleave(options.seconds,
                   loop(batchTally, 0.4, n, batchOp),
                   loop(tracedTally, 0.6, n, [&](std::size_t k) {
                       tracedPasses.record(
                           k, tracedUpdate(in, k % n, base, tracedSampler,
                                           tracer, counts, k));
                       return true;
                   }));
        report.attempt(batchTally.ops + tracedTally.ops,
                       batchTally.failed + tracedTally.failed);
        report.check(batchTally.failed + tracedTally.failed == 0,
                     "no op failed");
        report.check(tracedPasses.first == batchPasses.first
                         && tracedPasses.repeatable
                         && batchPasses.repeatable,
                     "traced ops reproduce the untraced decisions");
        const auto totals = reportSelfTimes(tracer, tracedTally.ops, report);
        emitLayerMetrics(report, totals, counts,
                         batchTally.opsPerS() / tracedTally.opsPerS() - 1.0,
                         nullptr, nullptr);
        if (!options.traceOut.empty())
            report.check(writeChromeTrace(options.traceOut, {&tracer}),
                         "trace written to " + options.traceOut);
        return;
    }

    Engine tree(nullptr);
    Tally treeTally;
    Passes<std::uint8_t> treePasses(n);
    interleave(options.seconds,
               loop(batchTally, 0.65, n, batchOp),
               loop(treeTally, 0.35, n, [&](std::size_t k) {
                   treePasses.record(k, tree.update(in, k % n, base));
                   return true;
               }));
    report.attempt(batchTally.ops + treeTally.ops,
                   batchTally.failed + treeTally.failed);
    report.check(batchTally.failed + treeTally.failed == 0, "no op failed");
    report.check(batchPasses.repeatable && treePasses.repeatable,
                 "every pass repeats the first pass's decisions");

    const ErrorCount batchErrors = countErrors(in, batchPasses.first);
    checkErrors(report, "batch", batchErrors);
    checkErrors(report, "tree", countErrors(in, treePasses.first));

    report.metric("setup_s", setup, "s");
    emitClosedLoop(report, batchTally, treeTally);
    report.metric("error_rate", batchErrors.rate(), "fraction");
    report.metric("peak_rss_mb", peakRssMb(), "MB");
}

} // namespace perfbench
