/**
 * @file
 * Span recorder for the traced runs. Spans are recorded from the
 * benchmark's own code around each public library call, kept in
 * memory, and written at the end as Chrome trace-event JSON (plain
 * JSON that Perfetto and chrome://tracing open).
 *
 * A span has a name "<layer>.<what>", start and end, the span that
 * encloses it (its parent) and the id of the operation it belongs
 * to. A name's self time is its spans' duration minus the part their
 * child spans cover; an "op" span's self time is the part of the op
 * that no layer span accounts for.
 */

#ifndef PERFBENCH_TRACE_HPP
#define PERFBENCH_TRACE_HPP

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "report.hpp"

namespace perfbench {

class Tracer
{
  public:
    /** Open a span named @p name (a string literal) under the
     *  innermost open span; returns its handle for end(). */
    std::size_t begin(const char* name, std::uint64_t op);

    void end(std::size_t handle);

    struct Totals
    {
        std::uint64_t count = 0;
        double totalNs = 0.0;
        double selfNs = 0.0;
    };

    /** Count, total and self time per span name. */
    std::map<std::string, Totals> totals() const;

    std::size_t size() const { return spans_.size(); }

  private:
    friend bool writeChromeTrace(const std::string& path,
                                 const std::vector<const Tracer*>& tracers);

    struct Span
    {
        const char* name;
        std::int64_t startNs;
        std::int64_t endNs;
        std::int64_t parent; //!< index of the enclosing span, or -1
        std::uint64_t op;
    };

    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
};

/** Ends a span when the scope exits; a null tracer records nothing. */
class Scope
{
  public:
    Scope(Tracer* tracer, const char* name, std::uint64_t op)
        : tracer_(tracer),
          handle_(tracer ? tracer->begin(name, op) : 0)
    {}
    ~Scope()
    {
        if (tracer_)
            tracer_->end(handle_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    Tracer* tracer_;
    std::size_t handle_;
};

/**
 * Write the spans of @p tracers as Chrome trace-event JSON, one track
 * per tracer and at most 100,000 spans from each (the aggregates the
 * report prints cover every span). False when the file cannot be
 * written.
 */
bool writeChromeTrace(const std::string& path,
                      const std::vector<const Tracer*>& tracers);

/**
 * Print each span name's self time per op and its share of the op
 * wall time, and emit trace.unaccounted_frac: the share of "op" span
 * time that no layer span covers. Returns the per-name totals.
 */
std::map<std::string, Tracer::Totals>
reportSelfTimes(const Tracer& tracer, std::size_t ops, Report& report);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HPP
