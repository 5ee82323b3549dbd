#include "workloads.hpp"

#include <cmath>

namespace perfbench {

using namespace uncertain;

void
emitClosedLoop(Report& report, const Tally& batch, const Tally& tree)
{
    report.line("batch engine: %zu ops in %.3f s; tree walk: %zu ops in "
                "%.3f s", batch.ops, batch.seconds, tree.ops, tree.seconds);
    report.line("ratio ops_per_s / tree_ops_per_s = %.4f",
                batch.opsPerS() / tree.opsPerS());
    report.metric("ops_per_s", batch.opsPerS(), "ops/s");
    report.metric("op_p50_us", batch.p50Us(), "us");
    report.reportOnly("op_p99_us", batch.p99Us(), "us");
    report.metric("tree_ops_per_s", tree.opsPerS(), "ops/s");
}

core::ConditionalResult
tracedEvaluate(Tracer& tracer, std::uint64_t op,
               const Uncertain<bool>& condition, double threshold,
               const core::ConditionalOptions& options, Rng& rng,
               core::BatchSampler& sampler, CoreCounts& counts)
{
    tracedPlan(tracer, op, condition.node(), sampler, counts);
    const auto before = core::evalStats().rootSamples;
    core::ConditionalResult result;
    {
        Scope span(&tracer, "core.exec", op);
        result = condition.evaluate(threshold, options, rng, sampler);
    }
    const auto drawn = core::evalStats().rootSamples - before;
    counts.execDrawn += drawn;
    counts.condDrawn += drawn;
    ++counts.conds;
    counts.condUsed += result.samplesUsed;
    if (result.decision == stats::TestDecision::Inconclusive)
        ++counts.inconclusive;
    return result;
}

double
tracedExpectation(Tracer& tracer, std::uint64_t op,
                  const Uncertain<double>& value, std::size_t n, Rng& rng,
                  core::BatchSampler& sampler, CoreCounts& counts)
{
    tracedPlan(tracer, op, value.node(), sampler, counts);
    const auto before = core::evalStats().rootSamples;
    double mean;
    {
        Scope span(&tracer, "core.exec", op);
        mean = value.expectedValue(n, rng, sampler);
    }
    counts.execDrawn += core::evalStats().rootSamples - before;
    return mean;
}

void
emitLayerMetrics(Report& report,
                 const std::map<std::string, Tracer::Totals>& totals,
                 const CoreCounts& counts, double overheadFrac,
                 const ServeLayers* light, const ServeLayers* busy)
{
    const double ops = counts.ops > 0 ? static_cast<double>(counts.ops)
                                      : 1.0;
    const auto perOpUs = [&](const char* name) {
        auto it = totals.find(name);
        return it == totals.end() ? 0.0 : it->second.selfNs * 1e-3 / ops;
    };
    const auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };

    report.metric("core.build_us", perOpUs("core.build"), "us");
    report.metric("core.plan_us", perOpUs("core.plan"), "us");
    report.metric("core.plan_misses", d(counts.planMisses) / ops, "count");
    report.metric("core.plan_hit_frac",
                  ratio(d(counts.planLookups - counts.planMisses),
                        d(counts.planLookups)),
                  "fraction");
    report.metric("core.exec_us", perOpUs("core.exec"), "us");
    report.metric("core.samples_drawn", d(counts.execDrawn) / ops, "count");
    report.metric("stats.conds", d(counts.conds) / ops, "count");
    report.metric("stats.samples_used",
                  ratio(d(counts.condUsed), d(counts.conds)), "count");
    report.metric("stats.useful_frac",
                  ratio(d(counts.condUsed), d(counts.condDrawn)),
                  "fraction");
    report.metric("stats.inconclusive_frac",
                  ratio(d(counts.inconclusive), d(counts.conds)),
                  "fraction");
    report.metric("inference.sir_us", perOpUs("inference.sir"), "us");
    report.metric("gps.build_us", perOpUs("gps.build"), "us");
    report.metric("life.build_us", perOpUs("life.build"), "us");

    const ServeLayers none;
    for (const auto& [phase, layers] :
         {std::pair<std::string, const ServeLayers*>{"light.", light},
          {"busy.", busy}}) {
        const ServeLayers& s = layers ? *layers : none;
        const std::string p = phase + "serve.";
        report.metric(p + "encode_us", s.encodeUs, "us");
        report.metric(p + "submit_us", s.submitUs, "us");
        report.metric(p + "decode_us", s.decodeUs, "us");
        report.metric(p + "occupancy_mean", s.occupancyMean, "requests");
        report.metric(p + "occupancy_max", s.occupancyMax, "requests");
        report.metric(p + "coalesced_frac", s.coalescedFrac, "fraction");
        report.metric(p + "queue_peak", s.queuePeak, "requests");
        report.metric(p + "plan_hit_frac", s.planHitFrac, "fraction");
        report.metric(p + "model_builds", s.modelBuilds, "count");
        report.metric(p + "samples_per_reply", s.samplesPerReply, "count");
        report.metric(p + "gen_late_p99_us", s.genLateP99Us, "us");
        report.metric(p + "backlog", s.backlog, "requests");
    }
    report.metric("trace.overhead_frac", overheadFrac, "fraction");
}

} // namespace perfbench
