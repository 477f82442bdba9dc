// A supervised pool of worker subprocesses with crash isolation.
//
// The supervisor owns N child processes (spawned from a caller-provided
// command line; each child speaks the ipc frame protocol on fd 3) and a
// bounded work queue.  Robustness properties, in the order they matter:
//
//  * Crash isolation — a worker that SIGKILLs, OOMs, or exits mid-request
//    loses only the request it was holding; the supervisor reaps it,
//    re-queues the work with exponential backoff + deterministic jitter,
//    and respawns the slot lazily.
//  * Capped restart rate — more than `restartLimit` crashes inside
//    `restartWindow` marks the pool unhealthy; further work is refused
//    with kUnavailable (callers degrade to in-process planning) instead of
//    fork-bombing a broken binary.  Health recovers when the window
//    slides past the crash burst.
//  * Deadlines — every attempt's read is bounded by the request deadline
//    plus a grace period (giving the worker a chance to answer
//    DEADLINE_EXCEEDED cooperatively) or, without a deadline, by
//    `idleTimeout`; a silent worker is killed, never waited on forever.
//  * Backpressure — the queue is bounded; submissions beyond capacity are
//    shed immediately (kShed) so overload degrades crisply instead of
//    growing an unbounded backlog.
//
// The payloads are opaque byte strings: the supervisor transports and
// retries, the service layer (src/service) defines what they mean.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "util/deadline.hpp"

namespace rfsm {

struct SupervisorOptions {
  /// Worker command line (argv[0] = executable).  The child must serve
  /// one response frame per request frame on ipc::kWorkerChannelFd.
  std::vector<std::string> workerCommand;
  int workers = 2;
  /// Queue bound; submissions beyond it are shed (kShed).
  std::size_t queueCapacity = 64;
  /// Attempts per item (first try + retries) before kFailed.
  int maxAttempts = 3;
  /// Exponential backoff: base * 2^(attempt-1) + jitter, capped.
  std::chrono::milliseconds backoffBase{25};
  std::chrono::milliseconds backoffCap{1000};
  /// Crashes tolerated inside restartWindow before the pool is unhealthy.
  int restartLimit = 5;
  std::chrono::milliseconds restartWindow{10000};
  /// Max silence per attempt when the item has no deadline.
  std::chrono::milliseconds idleTimeout{30000};
  /// When > 0, additionally bounds *every* attempt's silence, even under a
  /// generous request deadline — the hedge against a stuck worker: it is
  /// killed and the item retried on a fresh one while budget remains,
  /// instead of the hang eating the whole deadline.  0 = disabled.
  std::chrono::milliseconds attemptTimeout{0};
  /// Extra time past an item's deadline before the worker is killed (lets
  /// it report DEADLINE_EXCEEDED cooperatively).
  std::chrono::milliseconds deadlineGrace{500};
  /// Seed of the deterministic jitter stream.
  std::uint64_t jitterSeed = 1;
  /// Spawn every worker slot eagerly at construction instead of on first
  /// demand.  With `warmupPayload` set, each fresh child additionally
  /// serves one warm-up frame before the slot accepts real work, so exec +
  /// dynamic loading + allocator warm-up happen at startup, not on the
  /// first request (service.workers_preforked counts completed warm-ups).
  bool prefork = false;
  /// Opaque warm-up frame (the service layer supplies an
  /// encodeWarmupRequest() payload); empty = spawn without the exchange.
  std::string warmupPayload;
};

/// Outcome of one submitted work item.
struct WorkResult {
  enum class Status {
    kOk,                ///< `payload` holds the worker's response frame.
    kFailed,            ///< All attempts crashed/errored; see `error`.
    kDeadlineExceeded,  ///< The item's cancel token expired.
    kShed,              ///< Queue full: rejected without queueing.
    kUnavailable,       ///< Pool unhealthy or shutting down.
  };
  Status status = Status::kFailed;
  std::string payload;
  std::string error;
  int attempts = 0;
};

const char* toString(WorkResult::Status status);

/// Merges per-shard outcomes by severity: deadline beats unavailability
/// (UNAVAILABLE and shed rank alike; the first one seen is kept) beats
/// plain failure beats success.  The one precedence table behind the
/// server's and the fabric's batch status.
WorkResult::Status mergeSeverity(WorkResult::Status overall,
                                 WorkResult::Status shard);

/// Pure backoff schedule (exposed for tests): base * 2^(attempt-1),
/// capped, plus jitter01 * base.  `attempt` is 1-based.
std::chrono::milliseconds backoffDelay(int attempt,
                                       std::chrono::milliseconds base,
                                       std::chrono::milliseconds cap,
                                       double jitter01);

class Supervisor {
 public:
  explicit Supervisor(SupervisorOptions options);
  /// Fails all queued work with kUnavailable, kills every child, joins.
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Submits one request payload.  The future always becomes ready — on
  /// success, crash-out, deadline, shed, and shutdown alike.  `cancel`
  /// carries the request deadline into transport enforcement (the worker
  /// sees the deadline through the payload, which is the service layer's
  /// business).
  std::future<WorkResult> submit(
      std::string payload,
      std::shared_ptr<const CancelToken> cancel = nullptr);

  struct Health {
    bool healthy = true;      ///< accepting work
    int workersAlive = 0;     ///< spawned children currently running
    int workersConfigured = 0;
    std::size_t queueDepth = 0;
    int crashesInWindow = 0;
    std::uint64_t crashes = 0;
    std::uint64_t retries = 0;
    std::uint64_t shed = 0;
  };
  Health health() const;

  /// Forces the pool unhealthy (fault-injection scenarios; sticky until
  /// clearUnhealthy).  Queued and future work fails with kUnavailable.
  void forceUnhealthy();
  void clearUnhealthy();

  /// Fault-injection hook, called with (dispatch ordinal, child pid) right
  /// after a request frame reached a worker — the window in which the CI
  /// smoke job SIGKILLs a worker mid-shard.
  using DispatchHook = std::function<void(std::uint64_t, int)>;
  void setDispatchHook(DispatchHook hook);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace rfsm
