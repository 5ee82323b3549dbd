/**
 * @file
 * serve_fleet: one generator thread drives an UncertainServer with 2
 * workers (otherwise default ServerOptions) through an in-process
 * loopback that runs the full wire codec: the request is encoded,
 * submitted as a frame, and the reply is encoded by the sink and
 * decoded by the client. A 7:1 Pr:Advise mix over a fixed pool of 16
 * gaussian-chain parameterizations and 2 gps-speed geometries, warmed
 * during set-up; the pool fits the server's instance cache and plan
 * cache, so nothing compiles after warm-up.
 *
 * Open-loop phases: light (500 req/s; lone requests wait out the
 * batch window) and busy (20,000 req/s; natural coalescing over shared
 * plans). Their latency counts from each request's due time, and a
 * phase whose generator fell behind its schedule is run again, never
 * reported. op_p50_us is the light phase's p50.
 *
 * ops_per_s and tree_ops_per_s answer the gaussian-chain share of the
 * mix in-process, through the batch engine and the default no-sampler
 * tree walk: the library's own cost of a served query. The model
 * instances and Pr/Advise ladder are the benchmark's own, so every
 * chain reply of the light phase is checked to equal, bit for bit, the
 * same ladder run in-process through a BatchSampler on the server's
 * documented per-request stream.
 *
 * A served closed loop (kOutstanding requests in flight, the next one
 * sent as soon as a reply is decoded) reports the server's throughput
 * and send-to-delivery latency under load as report lines.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <random>
#include <thread>
#include <vector>

#include "gps/walking.hpp"
#include "random/gaussian.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace uncertain;

namespace {

constexpr std::size_t kChains = 16;
constexpr std::size_t kGpsModels = 2;
constexpr std::size_t kTenants = 64;
constexpr std::size_t kWorkers = 2;
constexpr double kLightRate = 500.0;
constexpr double kBusyRate = 20000.0;
/**
 * Requests the served closed loop keeps in flight, as many as
 * bench_serve's closed-loop fleet has clients. The loop settles into
 * one of two states, told apart by the mean batch it reports. While
 * the workers have a queue behind them, submits are cheap and batches
 * average about 10. Once they drain it, every submit wakes a sleeping
 * worker, which on a virtual machine costs the generator several
 * microseconds; batches then stay near 2 at a third to a half of the
 * throughput. Which state a run settles into depends on the host, so
 * the loop's figures are report lines, not metrics.
 */
constexpr std::size_t kOutstanding = 32;
constexpr std::int64_t kReplyTimeoutNs = 5000000000LL;
/**
 * Shares of --seconds for the closed loops and for one attempt of each
 * open-loop phase. The closed loops get the most, because the host's
 * speed drifts over seconds and a longer interleaved loop averages
 * more of it; within them the in-process batch engine and tree walk
 * get kBatchShare and kTreeShare of each slice and the served loop the
 * rest.
 */
constexpr double kClosedShare = 0.65;
constexpr double kBatchShare = 0.4;
constexpr double kTreeShare = 0.3;
constexpr double kLightShare = 0.15;
constexpr double kBusyShare = 0.06;
/**
 * Generator punctuality. Latency counts from each request's due time,
 * so a generator that runs late adds its lateness to every reply after
 * it. A phase whose generator ran more than kGeneratorPunctualUs late
 * at p99 is run again, up to kPhaseAttempts times, and the most
 * punctual attempt is reported: on a shared virtual machine the
 * generator is now and then descheduled for milliseconds. Past
 * kGeneratorLateLimitUs the offered load was not offered at all, and
 * a phase that late is invalid.
 */
constexpr double kGeneratorPunctualUs = 1000.0;
constexpr double kGeneratorLateLimitUs = 10000.0;
constexpr int kPhaseAttempts = 3;

/** One pool entry: the wire params and, for chains, the exact law. */
struct Model
{
    std::uint32_t id;
    std::vector<double> params;
    double mean = 0.0;  //!< gaussian chain: mu + depth * step
    double sigma = 0.0; //!< gaussian chain: sigma
    double cut = 0.0;   //!< gaussian chain: Pr event is value > cut
};

/** Exact Pr[value > cut] of a gaussian-chain model. */
double
chainProbability(const Model& m)
{
    return 0.5 * std::erfc((m.cut - m.mean) / (m.sigma * std::sqrt(2.0)));
}

/**
 * The model pool. Chain depths, widths and event cuts are stratified
 * (each seed draws only the jitter inside a stratum), so the pool's
 * cost per query varies little from seed to seed.
 */
std::vector<Model>
makePool(std::uint64_t seed)
{
    std::mt19937_64 engine(seed ^ 0x706f6f6cULL);
    std::uniform_real_distribution<double> u(0.0, 1.0);
    const auto stratum = [&](std::size_t i, std::size_t stride) {
        return (static_cast<double>((i * stride) % kChains) + u(engine))
               / static_cast<double>(kChains);
    };
    std::vector<Model> pool;
    for (std::size_t i = 0; i < kChains; ++i) {
        Model m;
        m.id = serve::kModelGaussianChain;
        const double depth = static_cast<double>(4 + 2 * i);
        // Means clear of the 4 mph Advise threshold, so every warm-up
        // Advise resolves the same comparison roots the phases use.
        m.mean = (i % 2 == 0 ? 1.0 : 5.0) + 2.0 * u(engine);
        m.sigma = 0.3 + 1.2 * stratum(i, 7);
        // Pr[value > cut] between 0.2 and 0.8.
        m.cut = m.mean + m.sigma * (-0.84 + 1.68 * stratum(i, 11));
        m.params = {m.mean - depth * serve::kGaussianChainStep, m.sigma,
                    depth, m.cut};
        pool.push_back(m);
    }
    for (std::size_t i = 0; i < kGpsModels; ++i) {
        Model m;
        m.id = serve::kModelGpsSpeed;
        // A phone fix pair one second apart: an amble and a brisk walk.
        const double metresPerSecond = i == 0 ? 1.1 : 1.9;
        m.params = {47.6 + 0.01 * u(engine), -122.1 - 0.01 * u(engine), 4.0,
                    6.283 * u(engine), metresPerSecond, 1.0};
        pool.push_back(m);
    }
    return pool;
}

struct Query
{
    std::size_t model;
    serve::Opcode opcode;
    double threshold;
    std::uint64_t tenant;
    std::uint64_t requestId;
};

/** @p count queries, 7:1 Pr:Advise, ids from @p firstId on. */
std::vector<Query>
makeQueries(std::size_t count, std::size_t poolSize, std::uint64_t firstId,
            std::uint64_t seed)
{
    std::mt19937_64 engine(seed);
    std::uniform_real_distribution<double> u(0.0, 1.0);
    std::vector<Query> queries;
    for (std::size_t i = 0; i < count; ++i) {
        Query q;
        q.model = static_cast<std::size_t>(engine() % poolSize);
        q.opcode = engine() % 8 == 0 ? serve::Opcode::Advise
                                     : serve::Opcode::Pr;
        q.threshold = 0.1 + 0.8 * u(engine);
        q.tenant = 1 + engine() % kTenants;
        q.requestId = firstId + i;
        queries.push_back(q);
    }
    return queries;
}

serve::Request
toRequest(const Query& q, const std::vector<Model>& pool)
{
    serve::Request r;
    r.opcode = q.opcode;
    r.tenantId = q.tenant;
    r.requestId = q.requestId;
    r.modelId = pool[q.model].id;
    r.threshold = q.opcode == serve::Opcode::Pr ? q.threshold : 0.5;
    r.params = pool[q.model].params;
    return r;
}

serve::ServerOptions
serverOptions()
{
    serve::ServerOptions options;
    options.workers = kWorkers;
    return options;
}

// ----------------------------------------------------------------------
// In-process answers: the tree walk, and the check of served replies.
// ----------------------------------------------------------------------

/** The comparison roots a served chain query runs against. */
struct Instance
{
    Uncertain<bool> event;
    Uncertain<bool> fast;
    Uncertain<bool> slow;
};

/**
 * A gaussian-chain model's roots, built from its wire params as the
 * server documents them: Gaussian(mu, sigma) pushed through depth
 * steps of kGaussianChainStep, event value > cut, Advise against the
 * brisk-walk threshold.
 */
Instance
buildChain(const Model& m)
{
    Uncertain<double> value = core::fromDistribution(
        std::make_shared<random::Gaussian>(m.params[0], m.params[1]));
    for (int i = 0; i < static_cast<int>(m.params[2]); ++i)
        value = value + serve::kGaussianChainStep;
    return {value > m.cut, value > gps::kBriskWalkMph,
            value < gps::kBriskWalkMph};
}

/** Decision, samples and estimate of one query, as a reply carries them. */
struct Answer
{
    std::uint16_t decision = 0;
    std::uint64_t samples = 0;
    double value = 0.0;

    bool operator==(const Answer&) const = default;
};

Answer
replyAnswer(const serve::Response& r)
{
    return {r.decision, r.samplesUsed, r.value};
}

/**
 * The server's query semantics on one engine: Pr tests the event at
 * the request threshold; Advise is GoodJob on more-likely-than-not
 * fast, else SpeedUp on 90% evidence of slow, else nothing. Streams
 * follow the server's documented Rng(seed).split(tenant).split(id).
 */
template <typename Evaluate>
Answer
answer(const Query& q, const Instance& inst, Evaluate&& evaluate)
{
    Rng rng = Rng(serve::ServerOptions{}.seed)
                  .split(q.tenant)
                  .split(q.requestId);
    Answer a;
    if (q.opcode == serve::Opcode::Pr) {
        const auto r = evaluate(inst.event, q.threshold, rng);
        a.decision = static_cast<std::uint16_t>(r.decision);
        a.samples = r.samplesUsed;
        a.value = r.estimate;
        return a;
    }
    const auto fast = evaluate(inst.fast, 0.5, rng);
    a.samples = fast.samplesUsed;
    a.value = fast.estimate;
    if (fast.toBool()) {
        a.decision = static_cast<std::uint16_t>(gps::Advice::GoodJob);
        return a;
    }
    const auto slow = evaluate(inst.slow, 0.9, rng);
    a.samples += slow.samplesUsed;
    a.value = slow.estimate;
    a.decision = static_cast<std::uint16_t>(
        slow.toBool() ? gps::Advice::SpeedUp : gps::Advice::None);
    return a;
}

// ----------------------------------------------------------------------
// Live phases through the server.
// ----------------------------------------------------------------------

/** Reply slots a phase's sinks write; shared so a late sink never
 *  outlives them. */
struct Slots
{
    explicit Slots(std::size_t n) : done(n), frames(n) {}

    std::vector<std::atomic<std::int64_t>> done; //!< delivery time, ns
    std::vector<std::vector<std::uint8_t>> frames;
    std::atomic<std::size_t> completed{0};
};

struct Phase
{
    std::vector<Query> queries;
    std::size_t sent = 0;
    std::size_t failed = 0; //!< non-Ok, undecodable or missing replies
    std::vector<double> latencyUs;
    double genLateP99Us = 0.0;
    std::size_t backlog = 0; //!< outstanding when the schedule ended
    std::vector<serve::Response> replies;
    std::vector<std::vector<std::uint8_t>> frames;
    serve::ServerStats before;
    serve::ServerStats after;
    core::PlanCacheStats plansBefore;
    core::PlanCacheStats plansAfter;
};

/**
 * Wait for @p dueNs, yielding the CPU on every check. A plain busy
 * spin would starve a server worker that the scheduler woke on the
 * generator's CPU for a whole time slice, adding milliseconds to the
 * replies it holds; a sleep would wake late by milliseconds on a
 * virtual machine, making the generator late instead.
 */
void
waitUntil(std::int64_t dueNs)
{
    while (nowNs() < dueNs)
        std::this_thread::yield();
}

/**
 * Send @p queries at their due times @p due (seconds from the start)
 * and collect every reply. With a tracer, the client-side encode,
 * submit and decode calls are spans.
 */
Phase
runPhase(serve::UncertainServer& server, const std::vector<Model>& pool,
         const std::vector<Query>& queries, const std::vector<double>& due,
         Tracer* tracer)
{
    Phase phase;
    phase.queries = queries;
    const std::size_t n = queries.size();
    auto slots = std::make_shared<Slots>(n);
    std::vector<double> lateUs(n);
    std::vector<std::int64_t> dueNs(n);
    phase.before = server.stats();
    phase.plansBefore = server.planCache()->stats();

    const std::int64_t start = nowNs() + 1000000;
    for (std::size_t i = 0; i < n; ++i) {
        dueNs[i] = start + static_cast<std::int64_t>(due[i] * 1e9);
        waitUntil(dueNs[i]);
        const std::int64_t sendNs = nowNs();
        lateUs[i] = static_cast<double>(sendNs - dueNs[i]) * 1e-3;
        const auto request = toRequest(queries[i], pool);
        std::vector<std::uint8_t> frame;
        {
            Scope span(tracer, "serve.encode", i);
            frame = serve::encodeRequest(request);
        }
        Scope span(tracer, "serve.submit", i);
        server.submitFrame(
            frame.data() + 4, frame.size() - 4,
            [slots, i](const serve::Response& response) {
                slots->frames[i] = serve::encodeResponse(response);
                slots->done[i].store(nowNs(), std::memory_order_release);
                slots->completed.fetch_add(1, std::memory_order_release);
            });
    }
    phase.sent = n;
    phase.backlog = n - slots->completed.load(std::memory_order_acquire);
    const std::int64_t deadline = nowNs() + 5000000000LL;
    while (slots->completed.load(std::memory_order_acquire) < n
           && nowNs() < deadline)
        std::this_thread::sleep_for(std::chrono::microseconds(200));

    phase.replies.resize(n);
    phase.frames.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::int64_t done =
            slots->done[i].load(std::memory_order_acquire);
        serve::Response& reply = phase.replies[i];
        bool decoded = false;
        if (done != 0) {
            phase.frames[i] = slots->frames[i];
            Scope span(tracer, "serve.decode", i);
            decoded = phase.frames[i].size() >= 4
                      && serve::decodeResponse(phase.frames[i].data() + 4,
                                               phase.frames[i].size() - 4,
                                               reply);
        }
        if (decoded && reply.status == serve::Status::Ok) {
            phase.latencyUs.push_back(
                static_cast<double>(done - dueNs[i]) * 1e-3);
        } else {
            ++phase.failed;
        }
    }
    phase.genLateP99Us = quantile(lateUs, 0.99);
    phase.after = server.stats();
    phase.plansAfter = server.planCache()->stats();
    return phase;
}

/**
 * A phase at @p rate for @p seconds: rerun while its generator was not
 * punctual, and the most punctual attempt reported.
 */
Phase
validPhase(serve::UncertainServer& server, const std::vector<Model>& pool,
           double rate, double seconds, std::uint64_t firstId,
           std::uint64_t seed, Tracer* tracer, Report& report,
           const char* name)
{
    std::optional<Phase> best;
    for (int attempt = 1; attempt <= kPhaseAttempts; ++attempt) {
        Tracer attemptTracer;
        const auto due = poissonSchedule(rate, seconds, seed + attempt);
        const auto queries = makeQueries(due.size(), pool.size(),
                                         firstId, seed + attempt);
        Phase phase = runPhase(server, pool, queries, due,
                               tracer ? &attemptTracer : nullptr);
        report.line("%s phase attempt %d: %zu requests, generator p99 "
                    "lateness %.1f us",
                    name, attempt, phase.sent, phase.genLateP99Us);
        if (!best || phase.genLateP99Us < best->genLateP99Us) {
            best = std::move(phase);
            if (tracer)
                *tracer = std::move(attemptTracer);
        }
        if (best->genLateP99Us <= kGeneratorPunctualUs)
            break;
    }
    char what[160];
    std::snprintf(what, sizeof(what),
                  "%s phase: generator p99 lateness %.1f us within %.0f us",
                  name, best->genLateP99Us, kGeneratorLateLimitUs);
    report.check(best->genLateP99Us <= kGeneratorLateLimitUs, what);
    return std::move(*best);
}

/**
 * The served closed loop: kOutstanding requests in flight, each reply
 * decoded and followed at once by the next query. A slice stops
 * sending when its budget is spent and waits for the replies still
 * out; the drain counts in the slice's time, so every reply is
 * credited to measured time. Query k of the loop is queries[k % n]
 * with its request id, so every pass must repeat the first pass's
 * replies.
 */
class ServedLoop
{
  public:
    ServedLoop(serve::UncertainServer& server, const std::vector<Model>& pool,
               std::vector<Query> queries)
        : passes(queries.size()), server_(server), pool_(pool),
          queries_(std::move(queries)),
          slots_(std::make_shared<Slots>(kOutstanding)),
          sentNs_(kOutstanding), op_(kOutstanding)
    {
    }

    void
    slice(double budget)
    {
        const std::int64_t start = nowNs();
        const std::int64_t stop = start + static_cast<std::int64_t>(budget
                                                                    * 1e9);
        std::vector<bool> open(kOutstanding, true);
        for (std::size_t slot = 0; slot < kOutstanding; ++slot)
            send(slot);
        std::size_t inFlight = kOutstanding;
        while (inFlight > 0) {
            bool handled = false;
            for (std::size_t slot = 0; slot < kOutstanding; ++slot) {
                const std::int64_t done =
                    open[slot] ? slots_->done[slot].load(
                                     std::memory_order_acquire)
                               : 0;
                if (done == 0)
                    continue;
                handled = true;
                receive(slot, done);
                if (nowNs() < stop) {
                    send(slot);
                } else {
                    open[slot] = false;
                    --inFlight;
                }
            }
            if (!handled) {
                // The server answers every accepted request; a reply
                // this late means it lost one.
                UNCERTAIN_REQUIRE(nowNs() < stop + kReplyTimeoutNs,
                                  "serve_fleet: a served reply never came");
                const std::int64_t waitStart = nowNs();
                std::this_thread::yield();
                waitNs_ += nowNs() - waitStart;
            }
        }
        tally.seconds += secondsSince(start);
    }

    /** Share of the loop's time the generator had no reply to handle. */
    double
    waitFrac() const
    {
        return static_cast<double>(waitNs_) * 1e-9 / tally.seconds;
    }

    Tally tally; //!< one op per reply; latency from send to delivery
    Passes<Answer> passes;

  private:
    void
    send(std::size_t slot)
    {
        const std::size_t k = next_++;
        op_[slot] = k;
        slots_->done[slot].store(0, std::memory_order_relaxed);
        sentNs_[slot] = nowNs();
        const auto frame =
            serve::encodeRequest(toRequest(queries_[k % queries_.size()],
                                           pool_));
        server_.submitFrame(frame.data() + 4, frame.size() - 4,
                            [slots = slots_, slot](const serve::Response& r) {
                                slots->frames[slot] = serve::encodeResponse(r);
                                slots->done[slot].store(
                                    nowNs(), std::memory_order_release);
                            });
    }

    void
    receive(std::size_t slot, std::int64_t doneNs)
    {
        const auto& frame = slots_->frames[slot];
        serve::Response reply;
        const bool ok = frame.size() >= 4
                        && serve::decodeResponse(frame.data() + 4,
                                                 frame.size() - 4, reply)
                        && reply.status == serve::Status::Ok;
        ++tally.ops;
        if (!ok) {
            ++tally.failed;
            return;
        }
        passes.record(op_[slot], replyAnswer(reply));
        tally.addLatency(static_cast<double>(doneNs - sentNs_[slot]) * 1e-3);
    }

    serve::UncertainServer& server_;
    const std::vector<Model>& pool_;
    std::vector<Query> queries_;
    std::shared_ptr<Slots> slots_;
    std::vector<std::int64_t> sentNs_;
    std::vector<std::size_t> op_; //!< loop op index in flight per slot
    std::size_t next_ = 0;
    std::int64_t waitNs_ = 0;
};

ServeLayers
serveLayers(const Phase& phase, const Tracer& tracer)
{
    const auto totals = tracer.totals();
    const double n = static_cast<double>(phase.sent);
    const auto perRequestUs = [&](const char* name) {
        auto it = totals.find(name);
        return it == totals.end() ? 0.0 : it->second.selfNs * 1e-3 / n;
    };
    const auto delta = [](std::uint64_t after, std::uint64_t before) {
        return static_cast<double>(after - before);
    };
    const double executed =
        delta(phase.after.executed, phase.before.executed);
    const double batches = delta(phase.after.batches, phase.before.batches);
    const double hits = delta(phase.plansAfter.hits, phase.plansBefore.hits);
    const double misses =
        delta(phase.plansAfter.misses, phase.plansBefore.misses);
    ServeLayers s;
    s.encodeUs = perRequestUs("serve.encode");
    s.submitUs = perRequestUs("serve.submit");
    s.decodeUs = perRequestUs("serve.decode");
    s.occupancyMean = batches > 0 ? executed / batches : 0.0;
    s.occupancyMax = static_cast<double>(phase.after.batchOccupancyMax);
    s.coalescedFrac =
        executed > 0 ? delta(phase.after.coalescedRequests,
                             phase.before.coalescedRequests)
                           / executed
                     : 0.0;
    s.queuePeak = static_cast<double>(phase.after.queuePeak);
    s.planHitFrac = hits + misses > 0 ? hits / (hits + misses) : 0.0;
    s.modelBuilds = delta(phase.after.modelBuilds, phase.before.modelBuilds);
    s.samplesPerReply =
        executed > 0
            ? delta(phase.after.samplesDrawn, phase.before.samplesDrawn)
                  / executed
            : 0.0;
    s.genLateP99Us = phase.genLateP99Us;
    s.backlog = static_cast<double>(phase.backlog);
    return s;
}

/**
 * Warm every model of the pool: builds its instance and compiles the
 * plans Pr and Advise use. Requests go in pairs so the warm-up leaves
 * the server's occupancy and queue high-water marks at 2.
 */
void
warm(serve::UncertainServer& server, const std::vector<Model>& pool)
{
    serve::LoopbackClient client(server);
    std::uint64_t id = 0;
    for (std::size_t m = 0; m < pool.size(); ++m) {
        for (int k = 0; k < 2; ++k) {
            for (auto opcode : {serve::Opcode::Pr, serve::Opcode::Advise}) {
                Query q{m, opcode, 0.5, 0, ++id};
                client.send(toRequest(q, pool));
            }
            for (int r = 0; r < 2; ++r) {
                serve::Response reply;
                UNCERTAIN_REQUIRE(client.receive(reply)
                                      && reply.status == serve::Status::Ok,
                                  "serve_fleet: warm-up request failed");
            }
        }
    }
}

/** Pr replies on gaussian chains that contradict the exact law. */
struct Judged
{
    std::size_t wrong = 0;
    std::size_t judged = 0;
};

void
judge(const std::vector<Model>& pool, const Phase& phase, Judged& out)
{
    for (std::size_t i = 0; i < phase.queries.size(); ++i) {
        const Query& q = phase.queries[i];
        const Model& m = pool[q.model];
        const serve::Response& r = phase.replies[i];
        if (q.opcode != serve::Opcode::Pr
            || m.id != serve::kModelGaussianChain
            || r.status != serve::Status::Ok)
            continue;
        ++out.judged;
        const double p = chainProbability(m);
        const auto d = static_cast<stats::TestDecision>(r.decision);
        if ((d == stats::TestDecision::AcceptAlternative && p < q.threshold)
            || (d == stats::TestDecision::AcceptNull && p > q.threshold))
            ++out.wrong;
    }
}

/**
 * Every gaussian-chain reply of @p phase against the same query
 * answered in-process through a BatchSampler: proof that buildChain
 * and answer() are the server's model and ladder, which the tree-walk
 * figure relies on. @p compared counts the replies checked.
 */
bool
matchesServer(const std::vector<Model>& pool,
              const std::vector<Instance>& chains, const Phase& phase,
              std::size_t& compared)
{
    core::BatchSampler sampler;
    const core::ConditionalOptions conditional{};
    for (std::size_t i = 0; i < phase.queries.size(); ++i) {
        const Query& q = phase.queries[i];
        if (pool[q.model].id != serve::kModelGaussianChain)
            continue;
        ++compared;
        const Answer local =
            answer(q, chains[q.model],
                   [&](const Uncertain<bool>& c, double t, Rng& rng) {
                       return c.evaluate(t, conditional, rng, sampler);
                   });
        if (!(local == replyAnswer(phase.replies[i])))
            return false;
    }
    return compared > 0;
}

/**
 * The per-tenant reproducibility contract: a fresh server with the
 * same seed answers a replayed subset with bit-identical reply frames,
 * although the subset arrives as one burst and coalesces differently.
 */
bool
replayIdentical(const std::vector<Model>& pool, const Phase& phase,
                std::size_t stride, std::size_t& replayed)
{
    serve::UncertainServer fresh(serverOptions());
    fresh.start();
    std::vector<Query> subset;
    std::vector<double> due;
    for (std::size_t i = 0; i < phase.queries.size(); i += stride) {
        subset.push_back(phase.queries[i]);
        // A fast, steady stream: it batches differently from the
        // original arrivals and stays well inside the admission queue.
        due.push_back(static_cast<double>(subset.size()) / 20000.0);
    }
    replayed = subset.size();
    const Phase again = runPhase(fresh, pool, subset, due, nullptr);
    fresh.stop();
    for (std::size_t k = 0; k < subset.size(); ++k) {
        if (again.frames[k].empty()
            || again.frames[k] != phase.frames[k * stride])
            return false;
    }
    return true;
}

} // namespace

void
runServeFleet(const RunOptions& options, Report& report)
{
    const std::vector<Model> pool = makePool(options.seed);
    std::unique_ptr<serve::UncertainServer> server;
    const double setup = medianSetupSeconds(kSetupRepeats, [&] {
        server.reset();
        server = std::make_unique<serve::UncertainServer>(serverOptions());
        server->start();
        warm(*server, pool);
    });
    report.line("pool: %zu gaussian chains, %zu gps geometries; %zu "
                "tenants; server workers %zu, other options default",
                kChains, kGpsModels, kTenants, kWorkers);

    // In-process answers cover the chain share of the mix: the pool's
    // first kChains entries are the chains.
    std::vector<Instance> chains;
    for (std::size_t m = 0; m < kChains; ++m)
        chains.push_back(buildChain(pool[m]));
    const auto local =
        makeQueries(4096, kChains, 1u << 30, options.seed ^ 0x6c6f63ULL);
    const core::ConditionalOptions conditional{};
    const std::size_t n = local.size();
    std::uint64_t nextId = 1;
    std::size_t compared = 0;

    core::BatchSampler sampler;
    Tally batchTally;
    Passes<Answer> batchPasses(n);
    const auto batchOp = [&](std::size_t k) {
        const Query& q = local[k % n];
        batchPasses.record(
            k, answer(q, chains[q.model],
                      [&](const Uncertain<bool>& c, double t, Rng& rng) {
                          return c.evaluate(t, conditional, rng, sampler);
                      }));
        return true;
    };

    if (options.trace) {
        Tracer tracer;
        CoreCounts counts;
        Tally tracedTally;
        Passes<Answer> tracedPasses(n);
        interleave(options.seconds * kClosedShare,
                   loop(batchTally, 0.4, n, batchOp),
                   loop(tracedTally, 0.6, n, [&](std::size_t k) {
                       const Query& q = local[k % n];
                       Scope opSpan(&tracer, "op", k);
                       ++counts.ops;
                       tracedPasses.record(
                           k, answer(q, chains[q.model],
                                     [&](const Uncertain<bool>& c, double t,
                                         Rng& rng) {
                                         return tracedEvaluate(
                                             tracer, k, c, t, conditional,
                                             rng, sampler, counts);
                                     }));
                       return true;
                   }));
        report.attempt(batchTally.ops + tracedTally.ops,
                       batchTally.failed + tracedTally.failed);
        report.check(batchTally.failed + tracedTally.failed == 0
                         && tracedPasses.first == batchPasses.first
                         && tracedPasses.repeatable
                         && batchPasses.repeatable,
                     "traced in-process ops reproduce the untraced answers");
        const auto totals = reportSelfTimes(tracer, tracedTally.ops, report);

        Tracer lightTracer;
        Tracer busyTracer;
        const Phase light =
            validPhase(*server, pool, kLightRate,
                       options.seconds * kLightShare, nextId,
                       options.seed ^ 0x11, &lightTracer, report, "light");
        nextId += light.sent;
        const Phase busy =
            validPhase(*server, pool, kBusyRate, options.seconds * kBusyShare,
                       nextId, options.seed ^ 0x22, &busyTracer, report,
                       "busy");
        server->stop();
        report.attempt(light.sent + busy.sent, light.failed + busy.failed);
        report.check(light.failed + busy.failed == 0,
                     "every reply is Ok and arrived");
        report.check(matchesServer(pool, chains, light, compared),
                     "in-process chain answers equal the served replies");
        const ServeLayers lightLayers = serveLayers(light, lightTracer);
        const ServeLayers busyLayers = serveLayers(busy, busyTracer);
        emitLayerMetrics(report, totals, counts,
                         batchTally.opsPerS() / tracedTally.opsPerS() - 1.0,
                         &lightLayers, &busyLayers);
        if (!options.traceOut.empty())
            report.check(writeChromeTrace(options.traceOut,
                                          {&tracer, &lightTracer,
                                           &busyTracer}),
                         "trace written to " + options.traceOut);
        return;
    }

    // The served closed loop and the in-process loops, alternating in
    // slices so host drift lands on all of them alike. The server is
    // idle while the in-process loops run.
    ServedLoop served(*server, pool,
                      makeQueries(4096, pool.size(), 1u << 31,
                                  options.seed ^ 0x73657276ULL));
    auto batch = loop(batchTally, kBatchShare, n, batchOp);
    Tally treeTally;
    auto tree = loop(treeTally, kTreeShare, 0, [&](std::size_t k) {
        const Query& q = local[k % n];
        (void)answer(q, chains[q.model],
                     [&](const Uncertain<bool>& c, double t, Rng& rng) {
                         return c.evaluate(t, conditional, rng);
                     });
        return true;
    });
    const serve::ServerStats closedBefore = server->stats();
    const auto start = nowNs();
    while (secondsSince(start) < options.seconds * kClosedShare
           || served.tally.ops < 2 * served.passes.first.size()
           || batchTally.ops < n) {
        served.slice(kSliceSeconds * (1.0 - kBatchShare - kTreeShare));
        runSlice(batch, kSliceSeconds * batch.share);
        runSlice(tree, kSliceSeconds * tree.share);
    }
    report.attempt(served.tally.ops + batchTally.ops + treeTally.ops,
                   served.tally.failed + batchTally.failed
                       + treeTally.failed);
    report.check(served.tally.failed + batchTally.failed + treeTally.failed
                     == 0,
                 "closed loops: every reply Ok, no op failed");
    report.check(served.passes.repeatable && batchPasses.repeatable,
                 "closed loops: every pass repeats the first pass's "
                 "answers");
    const serve::ServerStats closedAfter = server->stats();
    report.line("served closed loop: %zu replies in %.3f s, %zu in flight, "
                "mean batch %.2f, generator idle %.1f%% of it; batch "
                "engine: %zu ops in %.3f s; tree walk: %zu ops in %.3f s",
                served.tally.ops, served.tally.seconds, kOutstanding,
                static_cast<double>(closedAfter.executed
                                    - closedBefore.executed)
                    / static_cast<double>(closedAfter.batches
                                          - closedBefore.batches),
                100.0 * served.waitFrac(), batchTally.ops, batchTally.seconds,
                treeTally.ops, treeTally.seconds);
    // Before the open-loop phases, whose request buffers are the
    // benchmark's own and grow with any phase that is run again.
    const double rssMb = peakRssMb();

    const Phase light =
        validPhase(*server, pool, kLightRate, options.seconds * kLightShare,
                   nextId, options.seed ^ 0x11, nullptr, report, "light");
    nextId += light.sent;
    const Phase busy =
        validPhase(*server, pool, kBusyRate, options.seconds * kBusyShare,
                   nextId, options.seed ^ 0x22, nullptr, report, "busy");
    server->stop();
    report.attempt(light.sent + busy.sent, light.failed + busy.failed);
    report.check(light.failed + busy.failed == 0,
                 "every reply is Ok and arrived");
    report.line("light: %zu requests, backlog at end %zu, generator p99 "
                "late %.1f us; busy: %zu requests, backlog %zu, generator "
                "p99 late %.1f us; model builds after warm-up %llu",
                light.sent, light.backlog, light.genLateP99Us, busy.sent,
                busy.backlog, busy.genLateP99Us,
                static_cast<unsigned long long>(busy.after.modelBuilds
                                                - light.before.modelBuilds));

    Judged judged;
    judge(pool, light, judged);
    judge(pool, busy, judged);
    std::size_t replayed = 0;
    report.check(replayIdentical(pool, light, 4, replayed),
                 "replayed subset through a fresh server returns "
                 "bit-identical replies");
    report.check(matchesServer(pool, chains, light, compared),
                 "in-process chain answers equal the served replies");
    report.line("error_rate: %zu wrong of %zu gaussian-chain Pr replies; "
                "replay compared %zu replies, in-process check %zu",
                judged.wrong, judged.judged, replayed, compared);

    report.metric("setup_s", setup, "s");
    report.metric("ops_per_s", batchTally.opsPerS(), "ops/s");
    report.line("op_p50_us is the light phase's p50");
    report.metric("op_p50_us", windowedQuantile(light.latencyUs, 0.50), "us");
    report.metric("tree_ops_per_s", treeTally.opsPerS(), "ops/s");
    report.reportOnly("served.ops_per_s", served.tally.opsPerS(), "ops/s");
    report.reportOnly("served.p50_us", served.tally.p50Us(), "us");
    report.metric("error_rate",
                  static_cast<double>(judged.wrong)
                      / static_cast<double>(judged.judged),
                  "fraction");
    report.reportOnly("light.p99_us", windowedQuantile(light.latencyUs, 0.99),
                      "us");
    report.reportOnly("busy.p50_us", windowedQuantile(busy.latencyUs, 0.50),
                      "us");
    report.reportOnly("busy.p99_us", windowedQuantile(busy.latencyUs, 0.99),
                      "us");
    report.metric("peak_rss_mb", rssMb, "MB");
}

} // namespace perfbench
