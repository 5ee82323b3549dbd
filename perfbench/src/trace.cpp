#include "trace.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

std::size_t
Tracer::begin(const char* name, std::uint64_t op)
{
    const std::int64_t parent =
        open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
    spans_.push_back(Span{name, nowNs(), 0, parent, op});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
}

void
Tracer::end(std::size_t handle)
{
    spans_[handle].endNs = nowNs();
    // Spans nest, so the one ending is the innermost open one.
    if (!open_.empty() && open_.back() == handle)
        open_.pop_back();
}

std::map<std::string, Tracer::Totals>
Tracer::totals() const
{
    std::vector<double> childNs(spans_.size(), 0.0);
    for (const auto& span : spans_) {
        if (span.parent >= 0)
            childNs[static_cast<std::size_t>(span.parent)] +=
                static_cast<double>(span.endNs - span.startNs);
    }
    std::map<std::string, Totals> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const double duration =
            static_cast<double>(spans_[i].endNs - spans_[i].startNs);
        auto& totals = out[spans_[i].name];
        ++totals.count;
        totals.totalNs += duration;
        totals.selfNs += duration - childNs[i];
    }
    return out;
}

bool
writeChromeTrace(const std::string& path,
                 const std::vector<const Tracer*>& tracers)
{
    constexpr std::size_t kMaxSpansPerTracer = 100000;
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr)
        return false;
    std::int64_t origin = 0;
    bool first = true;
    for (const Tracer* tracer : tracers) {
        if (!tracer->spans_.empty()
            && (first || tracer->spans_.front().startNs < origin)) {
            origin = tracer->spans_.front().startNs;
            first = false;
        }
    }
    std::fprintf(file, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [");
    const char* separator = "\n";
    for (std::size_t t = 0; t < tracers.size(); ++t) {
        const auto& spans = tracers[t]->spans_;
        const std::size_t written = std::min(spans.size(), kMaxSpansPerTracer);
        for (std::size_t i = 0; i < written; ++i) {
            const Tracer::Span& span = spans[i];
            const std::string name = span.name;
            const std::string layer = name.substr(0, name.find('.'));
            std::fprintf(
                file,
                "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                "\"pid\": 1, \"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f, "
                "\"args\": {\"id\": %zu, \"parent\": %lld, \"op\": %llu}}",
                separator, span.name, layer.c_str(), t,
                static_cast<double>(span.startNs - origin) * 1e-3,
                static_cast<double>(span.endNs - span.startNs) * 1e-3, i,
                static_cast<long long>(span.parent),
                static_cast<unsigned long long>(span.op));
            separator = ",\n";
        }
    }
    std::fprintf(file, "\n]}\n");
    return std::fclose(file) == 0;
}

std::map<std::string, Tracer::Totals>
reportSelfTimes(const Tracer& tracer, std::size_t ops, Report& report)
{
    auto totals = tracer.totals();
    const auto op = totals.find("op");
    const double opNs = op == totals.end() ? 0.0 : op->second.totalNs;
    const double perOp = ops > 0 ? 1.0 / static_cast<double>(ops) : 0.0;
    report.line("self time per layer (%zu ops, %zu spans):", ops,
                tracer.size());
    for (const auto& [name, t] : totals) {
        report.line("  %-22s %9llu spans  self %10.3f us/op  %6.2f%% of "
                    "op time",
                    name.c_str(), static_cast<unsigned long long>(t.count),
                    t.selfNs * 1e-3 * perOp,
                    opNs > 0.0 ? 100.0 * t.selfNs / opNs : 0.0);
    }
    report.metric("trace.unaccounted_frac",
                  opNs > 0.0 ? op->second.selfNs / opNs : 0.0,
                  "fraction");
    return totals;
}

} // namespace perfbench
