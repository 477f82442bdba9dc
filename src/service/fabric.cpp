#include "service/fabric.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <ostream>
#include <thread>
#include <utility>

#include "service/plan_cache.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/supervisor.hpp"
#include "util/trace.hpp"

namespace rfsm::service {
namespace {

using Clock = CancelToken::Clock;
constexpr std::size_t kNoEndpoint = static_cast<std::size_t>(-1);

/// One shard exchange with one endpoint, classified by requestPlan.
struct Attempt : PlanReply {
  std::size_t endpoint = kNoEndpoint;
  /// Cancelled by the fabric (a hedge loser): its breaker sees
  /// recordAbandoned, not a verdict.
  bool aborted = false;
};

/// Ok, deadline and failed are the endpoint's answer; a transport failure
/// (or an aborted leg) leaves the shard for another endpoint.
bool isTerminal(const Attempt& attempt) {
  return attempt.status != WorkResult::Status::kUnavailable;
}

/// One request/response exchange.  `abandoned` (when given) is checked
/// after the wire work: a cancelled hedge loser reports `aborted` instead
/// of blaming the endpoint for the cancellation.  `attemptTag` names the
/// duplication kind (primary / retry / hedge / quorum / cache-verify) on
/// the attempt span, and the span's own context rides the outgoing frame
/// so the remote server parents under this exact attempt.
Attempt attemptOnce(const ipc::Endpoint& endpoint, std::size_t index,
                    const PlanRequest& request, std::int64_t timeoutMs,
                    const CancelToken* cancel,
                    const std::atomic<bool>* abandoned,
                    const char* attemptTag) {
  trace::ScopedSpan span("fabric.attempt", "fabric",
                         {trace::Arg::str("endpoint", endpoint.describe()),
                          trace::Arg::str("attempt", attemptTag),
                          trace::Arg::num("lo", request.lo),
                          trace::Arg::num("hi", request.hi)});
  PlanRequest traced = request;
  traced.context = trace::currentContext();
  Attempt attempt{requestPlan(endpoint, traced, timeoutMs, cancel)};
  attempt.endpoint = index;
  attempt.aborted = !isTerminal(attempt) && abandoned != nullptr &&
                    abandoned->load(std::memory_order_relaxed);
  return attempt;
}

}  // namespace

struct Fabric::Impl {
  FabricOptions options;
  std::vector<std::unique_ptr<CircuitBreaker>> breakers;
  /// Registry entries exposing the breakers to the live stats plane; must
  /// die before `breakers` (member order does that).
  std::vector<std::unique_ptr<BreakerRegistration>> breakerRegs;
  std::mutex jitterMutex;
  Rng jitterRng{1};

  // --- endpoint selection -------------------------------------------------

  /// First breaker-admitted endpoint scanning from `preferred`.  Admission
  /// is binding: the caller MUST follow through with exactly one exchange
  /// and one recordSuccess/recordFailure/recordAbandoned (a HALF-OPEN
  /// breaker hands out its single probe slot here).
  std::size_t pickEndpoint(std::size_t preferred,
                           std::size_t exclude = kNoEndpoint) {
    const auto now = Clock::now();
    const std::size_t n = options.endpoints.size();
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t index = (preferred + k) % n;
      if (index == exclude) continue;
      if (breakers[index]->allowRequest(now)) return index;
    }
    return kNoEndpoint;
  }

  // --- breaker bookkeeping ------------------------------------------------

  void noteFailure(std::size_t index) {
    CircuitBreaker& breaker = *breakers[index];
    const std::uint64_t before = breaker.trips();
    breaker.recordFailure(Clock::now());
    if (breaker.trips() > before) noteTrip(index);
  }

  void noteTrip(std::size_t index) {
    static metrics::Counter& tripCounter =
        metrics::counter(metrics::kFabricBreakerTrips);
    tripCounter.add();
    trace::instant(
        "fabric.breaker_trip", "fabric",
        {trace::Arg::str("endpoint", options.endpoints[index].describe())});
  }

  /// Applies one finished attempt's verdict to its endpoint's breaker.
  /// Cooperative kDeadline/kFailed replies count as transport *successes*:
  /// the endpoint answered within budget; the work itself was the problem.
  void settle(const Attempt& attempt) {
    if (attempt.endpoint == kNoEndpoint) return;
    if (attempt.aborted)
      breakers[attempt.endpoint]->recordAbandoned(Clock::now());
    else if (isTerminal(attempt))
      breakers[attempt.endpoint]->recordSuccess(Clock::now());
    else
      noteFailure(attempt.endpoint);
  }

  // --- one shard, possibly hedged -----------------------------------------

  /// Sends the shard to `primary`; after hedgeMs of silence duplicates it
  /// to a second healthy endpoint.  First terminal answer wins, the loser
  /// is cancelled.  Transport failures on one leg let the other keep
  /// running.  All legs are settled against their breakers before return.
  /// `attemptNumber` tags the primary leg's span (1 = primary, else retry).
  Attempt hedgedExchange(std::size_t primary, const PlanRequest& request,
                         std::int64_t timeoutMs, int attemptNumber) {
    struct Leg {
      std::size_t endpoint = kNoEndpoint;
      std::shared_ptr<CancelToken> token;
      std::atomic<bool> abandoned{false};
      Attempt outcome;
      bool finished = false;
    };
    std::array<Leg, 2> legs;
    std::array<std::thread, 2> threads;
    int legCount = 0;
    std::mutex mutex;
    std::condition_variable cv;

    auto launch = [&](int slot, std::size_t endpointIndex,
                      const char* tag) {
      Leg& leg = legs[static_cast<std::size_t>(slot)];
      leg.endpoint = endpointIndex;
      leg.token = std::make_shared<CancelToken>();
      if (timeoutMs > 0)
        leg.token->setDeadline(Clock::now() +
                               std::chrono::milliseconds(timeoutMs));
      // Leg threads carry the caller's trace context explicitly — the
      // thread-local context does not cross std::thread boundaries.
      threads[static_cast<std::size_t>(slot)] = std::thread(
          [&, slot, tag, context = trace::currentContext()] {
            trace::ContextScope scope(context);
            Leg& self = legs[static_cast<std::size_t>(slot)];
            Attempt out =
                attemptOnce(options.endpoints[self.endpoint], self.endpoint,
                            request, timeoutMs, self.token.get(),
                            &self.abandoned, tag);
            std::lock_guard<std::mutex> lock(mutex);
            self.outcome = std::move(out);
            self.finished = true;
            cv.notify_all();
          });
    };

    // Decided = some leg answered terminally, or every launched leg is done
    // (all-transport-failures also ends the wait).
    auto decided = [&] {
      int done = 0;
      for (int k = 0; k < legCount; ++k) {
        const Leg& leg = legs[static_cast<std::size_t>(k)];
        if (!leg.finished) continue;
        if (isTerminal(leg.outcome)) return true;
        ++done;
      }
      return done == legCount;
    };

    launch(0, primary, attemptNumber == 1 ? "primary" : "retry");
    legCount = 1;

    if (options.hedgeMs > 0) {
      bool hedge = false;
      {
        std::unique_lock<std::mutex> lock(mutex);
        hedge = !cv.wait_for(lock,
                             std::chrono::milliseconds(options.hedgeMs),
                             decided);
      }
      if (hedge) {
        const std::size_t secondary = pickEndpoint(primary + 1, primary);
        if (secondary != kNoEndpoint) {
          static metrics::Counter& hedgedCounter =
              metrics::counter(metrics::kFabricHedged);
          hedgedCounter.add();
          trace::instant(
              "fabric.hedge", "fabric",
              {trace::Arg::num("lo", request.lo),
               trace::Arg::str("endpoint",
                               options.endpoints[secondary].describe())});
          std::lock_guard<std::mutex> lock(mutex);
          launch(1, secondary, "hedge");
          legCount = 2;
        }
      }
    }

    int winner = -1;
    {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, decided);
      // Prefer a terminal leg; with none (both transport-failed), take the
      // primary's verdict.
      for (int k = 0; k < legCount; ++k) {
        const Leg& leg = legs[static_cast<std::size_t>(k)];
        if (leg.finished && isTerminal(leg.outcome)) {
          winner = k;
          break;
        }
      }
      if (winner < 0) winner = 0;
    }

    // Cancel the loser (its read returns within one poll slice) and join.
    for (int k = 0; k < legCount; ++k) {
      if (k == winner) continue;
      Leg& leg = legs[static_cast<std::size_t>(k)];
      leg.abandoned.store(true, std::memory_order_relaxed);
      leg.token->cancel();
    }
    for (int k = 0; k < legCount; ++k)
      if (threads[static_cast<std::size_t>(k)].joinable())
        threads[static_cast<std::size_t>(k)].join();

    if (winner == 1 && isTerminal(legs[1].outcome)) {
      static metrics::Counter& hedgeWins =
          metrics::counter(metrics::kFabricHedgeWins);
      hedgeWins.add();
    }
    for (int k = 0; k < legCount; ++k)
      settle(legs[static_cast<std::size_t>(k)].outcome);
    return std::move(legs[static_cast<std::size_t>(winner)].outcome);
  }

  // --- quorum verification ------------------------------------------------

  /// Re-sends a sampled shard to up to quorum-1 further endpoints and
  /// byte-compares the replies.  On divergence the shard is recomputed
  /// in-process — ground truth by construction — endpoints whose bytes
  /// disagree with it are tripped, and the truth replaces the winner's
  /// programs, so stdout cannot carry a lie.
  void verifyQuorum(const BatchSpec& spec, const PlanRequest& request,
                    Attempt& winner) {
    std::vector<std::size_t> replicas;
    const std::size_t n = options.endpoints.size();
    const auto now = Clock::now();
    for (std::size_t k = 0;
         k < n && replicas.size() + 1 <
                      static_cast<std::size_t>(options.quorum);
         ++k) {
      const std::size_t index = (winner.endpoint + 1 + k) % n;
      if (index == winner.endpoint) continue;
      if (breakers[index]->allowRequest(now)) replicas.push_back(index);
    }
    if (replicas.empty()) return;  // nobody to compare against

    const std::int64_t timeoutMs =
        options.deadlineMs > 0 ? options.deadlineMs + 2000 : 30000;
    std::vector<Attempt> replies;
    replies.reserve(replicas.size());
    bool diverged = false;
    for (const std::size_t index : replicas) {
      Attempt reply = attemptOnce(options.endpoints[index], index, request,
                                  timeoutMs, nullptr, nullptr, "quorum");
      if (reply.status == WorkResult::Status::kOk &&
          reply.programs != winner.programs)
        diverged = true;
      replies.push_back(std::move(reply));
    }

    if (!diverged) {
      for (const Attempt& reply : replies) settle(reply);
      return;
    }

    // Divergence: arbitrate against the local ground truth.
    static metrics::Counter& mismatchCounter =
        metrics::counter(metrics::kFabricQuorumMismatch);
    std::vector<std::string> truth;
    try {
      // kBypass: ground truth must never come out of the plan cache — a
      // poisoned entry cannot be allowed to vouch for itself.
      truth = planRange(spec, request.lo, request.hi, nullptr, options.jobs,
                        PlanCacheMode::kBypass);
    } catch (const Error&) {
      // Cannot arbitrate locally (should not happen for work the endpoints
      // completed); count the divergence and keep the winner's bytes.
      mismatchCounter.add();
      for (const Attempt& reply : replies) settle(reply);
      return;
    }
    auto judge = [&](const Attempt& reply) {
      if (reply.status != WorkResult::Status::kOk) {
        settle(reply);
        return;
      }
      if (reply.programs == truth) {
        breakers[reply.endpoint]->recordSuccess(Clock::now());
        return;
      }
      mismatchCounter.add();
      trace::instant(
          "fabric.quorum_mismatch", "fabric",
          {trace::Arg::num("lo", request.lo),
           trace::Arg::str("endpoint",
                           options.endpoints[reply.endpoint].describe())});
      breakers[reply.endpoint]->trip(Clock::now());
      noteTrip(reply.endpoint);
    };
    for (const Attempt& reply : replies) judge(reply);
    if (winner.programs != truth) {
      // The winner itself lied: already settled as a success when its leg
      // finished, so trip it outright now.
      mismatchCounter.add();
      trace::instant(
          "fabric.quorum_mismatch", "fabric",
          {trace::Arg::num("lo", request.lo),
           trace::Arg::str(
               "endpoint",
               options.endpoints[winner.endpoint].describe())});
      breakers[winner.endpoint]->trip(Clock::now());
      noteTrip(winner.endpoint);
      winner.programs = truth;
    }
  }

  // --- cache-hit poisoning defense ----------------------------------------

  /// Routes a sampled cache-served shard through the same byte-verification
  /// a sampled remote shard gets: one replica exchange when an endpoint is
  /// available, with divergence arbitrated by a cache-bypassing local
  /// recompute.  A poisoned entry is quarantined, counted, recomputed, and
  /// replaced — its bytes are never served.
  void verifyCachedShard(const BatchSpec& spec, const PlanRequest& request,
                         Attempt& served) {
    std::optional<Attempt> replica;
    const std::size_t primary = pickEndpoint(0);
    if (primary != kNoEndpoint) {
      const std::int64_t timeoutMs =
          options.deadlineMs > 0 ? options.deadlineMs + 2000 : 30000;
      replica = attemptOnce(options.endpoints[primary], primary, request,
                            timeoutMs, nullptr, nullptr, "cache-verify");
      if (replica->status == WorkResult::Status::kOk &&
          replica->programs == served.programs) {
        settle(*replica);  // independent agreement: the entry is clean
        return;
      }
    }

    // No replica to ask, or it disagreed: recompute ground truth locally,
    // bypassing the cache under test.
    std::vector<std::string> truth;
    try {
      truth = planRange(spec, request.lo, request.hi, nullptr, options.jobs,
                        PlanCacheMode::kBypass);
    } catch (const Error&) {
      if (replica.has_value()) settle(*replica);
      return;  // cannot arbitrate; keep the served bytes
    }
    if (replica.has_value()) {
      if (replica->status == WorkResult::Status::kOk &&
          replica->programs != truth) {
        // The replica, not (necessarily) the cache, is the liar.
        static metrics::Counter& mismatchCounter =
            metrics::counter(metrics::kFabricQuorumMismatch);
        mismatchCounter.add();
        breakers[replica->endpoint]->trip(Clock::now());
        noteTrip(replica->endpoint);
      } else {
        settle(*replica);
      }
    }
    if (served.programs != truth) {
      static metrics::Counter& poisonedCounter =
          metrics::counter(metrics::kServicePlanCachePoisoned);
      poisonedCounter.add();
      trace::instant("fabric.cache_poisoned", "fabric",
                     {trace::Arg::num("lo", request.lo),
                      trace::Arg::num("hi", request.hi)});
      for (std::uint64_t k = request.lo; k < request.hi; ++k) {
        const std::string key = planCacheKey(spec, k);
        planCacheQuarantine(key);
        planCacheStore(key, truth[static_cast<std::size_t>(k - request.lo)]);
      }
      served.programs = std::move(truth);
    }
  }

  // --- one shard end to end -----------------------------------------------

  Attempt runShard(const BatchSpec& spec, std::uint64_t lo, std::uint64_t hi,
                   std::size_t shardIndex, bool sampled) {
    PlanRequest request;
    request.spec = spec;
    request.lo = lo;
    request.hi = hi;
    request.deadlineMs = options.deadlineMs;
    request.requestId = spec.seed;
    const std::int64_t timeoutMs =
        options.deadlineMs > 0 ? options.deadlineMs + 2000 : 30000;

    // Consult the local plan cache before dispatching anywhere: a fully
    // warm shard never crosses the wire.  (Partially warm shards still
    // dispatch whole — the remote end's own cache covers the overlap.)
    if (planCacheEnabled()) {
      std::vector<std::string> programs;
      programs.reserve(static_cast<std::size_t>(hi - lo));
      for (std::uint64_t k = lo; k < hi; ++k) {
        auto hit = planCacheLookup(planCacheKey(spec, k));
        if (!hit.has_value()) break;
        programs.push_back(*std::move(hit));
      }
      if (programs.size() == static_cast<std::size_t>(hi - lo)) {
        Attempt served;
        served.status = WorkResult::Status::kOk;
        served.endpoint = kNoEndpoint;  // settles as a no-op
        served.programs = std::move(programs);
        served.cacheHits = hi - lo;
        trace::instant("fabric.cache_served", "fabric",
                       {trace::Arg::num("lo", lo), trace::Arg::num("hi", hi)});
        if (sampled && options.quorum >= 2)
          verifyCachedShard(spec, request, served);
        return served;
      }
    }

    Attempt last;
    last.error = "no healthy endpoint";
    for (int attempt = 1; attempt <= options.maxAttempts; ++attempt) {
      const std::size_t primary = pickEndpoint(
          (shardIndex + static_cast<std::size_t>(attempt - 1)) %
          options.endpoints.size());
      if (primary == kNoEndpoint) break;  // every breaker is OPEN
      if (attempt > 1) {
        static metrics::Counter& rerouted =
            metrics::counter(metrics::kFabricRerouted);
        rerouted.add();
        trace::instant(
            "fabric.reroute", "fabric",
            {trace::Arg::num("lo", lo),
             trace::Arg::num("attempt", static_cast<std::int64_t>(attempt)),
             trace::Arg::str("endpoint",
                             options.endpoints[primary].describe())});
      }
      Attempt result = hedgedExchange(primary, request, timeoutMs, attempt);
      if (isTerminal(result)) {
        if (result.status == WorkResult::Status::kOk && sampled &&
            options.quorum >= 2)
          verifyQuorum(spec, request, result);
        // Store post-quorum, so a lying winner's bytes never enter the
        // cache — only what verification (when sampled) let through.
        if (result.status == WorkResult::Status::kOk && planCacheEnabled() &&
            result.programs.size() == static_cast<std::size_t>(hi - lo)) {
          for (std::uint64_t k = lo; k < hi; ++k)
            planCacheStore(planCacheKey(spec, k),
                           result.programs[static_cast<std::size_t>(k - lo)]);
        }
        return result;
      }
      last = std::move(result);
      if (attempt < options.maxAttempts) {
        double jitter = 0.0;
        {
          std::lock_guard<std::mutex> lock(jitterMutex);
          jitter = jitterRng.uniform();
        }
        std::this_thread::sleep_for(backoffDelay(
            attempt, options.backoffBase, options.backoffCap, jitter));
      }
    }
    return last;
  }
};

Fabric::Fabric(FabricOptions options) : impl_(std::make_unique<Impl>()) {
  RFSM_CHECK(!options.endpoints.empty(), "fabric needs at least one endpoint");
  RFSM_CHECK(options.maxAttempts >= 1, "fabric needs at least one attempt");
  impl_->options = std::move(options);
  impl_->jitterRng = Rng(impl_->options.jitterSeed);
  impl_->breakers.reserve(impl_->options.endpoints.size());
  impl_->breakerRegs.reserve(impl_->options.endpoints.size());
  for (std::size_t k = 0; k < impl_->options.endpoints.size(); ++k) {
    impl_->breakers.push_back(
        std::make_unique<CircuitBreaker>(impl_->options.breaker));
    impl_->breakerRegs.push_back(std::make_unique<BreakerRegistration>(
        "fabric:" + impl_->options.endpoints[k].describe(),
        impl_->breakers.back().get()));
  }
}

Fabric::~Fabric() = default;

std::size_t Fabric::endpointCount() const {
  return impl_->options.endpoints.size();
}

const CircuitBreaker& Fabric::breaker(std::size_t index) const {
  RFSM_CHECK(index < impl_->breakers.size(), "endpoint index out of range");
  return *impl_->breakers[index];
}

ClientResult Fabric::plan(const BatchSpec& spec, std::ostream& err) {
  const FabricOptions& options = impl_->options;
  trace::ScopedSpan span(
      "fabric.plan", "fabric",
      {trace::Arg::num("instances", spec.instanceCount),
       trace::Arg::num("endpoints",
                       static_cast<std::int64_t>(options.endpoints.size()))});

  ClientResult result;
  const std::uint64_t total = spec.instanceCount;
  if (total == 0) {
    result.status = WorkResult::Status::kOk;
    return result;
  }

  // Auto shard size: two shards per endpoint, so a broken endpoint's share
  // reroutes in pieces instead of as one monolith.
  std::uint64_t shardSize = options.shardSize;
  if (shardSize == 0) {
    const std::uint64_t lanes =
        2 * static_cast<std::uint64_t>(options.endpoints.size());
    shardSize = std::max<std::uint64_t>(1, (total + lanes - 1) / lanes);
  }
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
  for (std::uint64_t lo = 0; lo < total; lo += shardSize)
    ranges.emplace_back(lo, std::min(total, lo + shardSize));
  static metrics::Counter& shardCounter =
      metrics::counter(metrics::kFabricShards);
  shardCounter.add(ranges.size());

  // Quorum sampling: up to ~4 shards per request, deterministically spread.
  const std::size_t stride = std::max<std::size_t>(1, ranges.size() / 4);

  std::vector<Attempt> outcomes(ranges.size());
  std::atomic<std::size_t> next{0};
  const std::size_t lanes =
      std::min<std::size_t>(16, std::max<std::size_t>(1, ranges.size()));
  std::vector<std::thread> dispatchers;
  dispatchers.reserve(lanes);
  // Dispatcher threads inherit the fabric.plan span as parent explicitly;
  // the thread-local context does not cross std::thread boundaries.
  const trace::TraceContext planContext = trace::currentContext();
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    dispatchers.emplace_back([&] {
      trace::ContextScope scope(planContext);
      for (;;) {
        const std::size_t k = next.fetch_add(1);
        if (k >= ranges.size()) return;
        outcomes[k] =
            impl_->runShard(spec, ranges[k].first, ranges[k].second, k,
                            /*sampled=*/k % stride == 0);
      }
    });
  }
  for (std::thread& dispatcher : dispatchers) dispatcher.join();

  // Aggregate by severity; remember the first failure's stable reason for
  // the (possible) degradation notice.
  WorkResult::Status status = WorkResult::Status::kOk;
  const char* reason = kReasonUnreachable;
  std::string detail;
  for (std::size_t k = 0; k < outcomes.size(); ++k) {
    const Attempt& outcome = outcomes[k];
    result.retries += outcome.retries;
    result.crashes += outcome.crashes;
    result.cacheHits += outcome.cacheHits;
    if (outcome.status != WorkResult::Status::kOk && detail.empty()) {
      reason = outcome.reason;
      detail = "shard [" + std::to_string(ranges[k].first) + ", " +
               std::to_string(ranges[k].second) + "): " + outcome.error;
    }
    status = mergeSeverity(status, outcome.status);
  }

  if (status == WorkResult::Status::kOk) {
    result.status = WorkResult::Status::kOk;
    result.programs.reserve(static_cast<std::size_t>(total));
    for (Attempt& outcome : outcomes)
      for (std::string& program : outcome.programs)
        result.programs.push_back(std::move(program));
    return result;
  }

  if (status == WorkResult::Status::kDeadlineExceeded ||
      status == WorkResult::Status::kFailed) {
    // The caller's budget or a deterministic planner defect: a different
    // rung would fail identically (or blow the budget further).
    result.status = status;
    result.error = detail;
    return result;
  }

  // Rung 2: the fabric as a whole is unavailable.  One notice with the
  // stable reason token, then a plain single-endpoint planBatch — which
  // itself degrades to rung 3 (in-process) with its own notice if that
  // endpoint is broken too.  stdout stays byte-identical throughout.
  static metrics::Counter& degradedCounter =
      metrics::counter(metrics::kFabricDegraded);
  degradedCounter.add();
  trace::instant("fabric.degraded", "fabric",
                 {trace::Arg::str("why", reason),
                  trace::Arg::str("detail", detail)});
  err << "rfsmc: planner fabric unavailable (" << reason
      << "); retrying via single endpoint\n";

  std::size_t endpoint = 0;
  const auto now = Clock::now();
  for (std::size_t k = 0; k < options.endpoints.size(); ++k) {
    if (impl_->breakers[k]->state(now) != CircuitBreaker::State::kOpen) {
      endpoint = k;
      break;
    }
  }
  ClientOptions single;
  single.socketPath = options.endpoints[endpoint].describe();
  single.deadlineMs = options.deadlineMs;
  single.jobs = options.jobs;
  ClientResult fallback = planBatch(spec, single, err);
  fallback.degraded = true;
  fallback.retries += result.retries;
  fallback.crashes += result.crashes;
  fallback.cacheHits += result.cacheHits;
  return fallback;
}

}  // namespace rfsm::service
