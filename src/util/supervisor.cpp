#include "util/supervisor.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include "util/ipc.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace rfsm {
namespace {

using Clock = CancelToken::Clock;

struct Item {
  std::string payload;
  std::shared_ptr<std::promise<WorkResult>> promise;
  std::shared_ptr<const CancelToken> cancel;
  int attempts = 0;  // attempts already consumed
  Clock::time_point notBefore = Clock::time_point::min();
};

}  // namespace

const char* toString(WorkResult::Status status) {
  switch (status) {
    case WorkResult::Status::kOk: return "OK";
    case WorkResult::Status::kFailed: return "FAILED";
    case WorkResult::Status::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case WorkResult::Status::kShed: return "RESOURCE_EXHAUSTED";
    case WorkResult::Status::kUnavailable: return "UNAVAILABLE";
  }
  return "UNKNOWN";
}

WorkResult::Status mergeSeverity(WorkResult::Status overall,
                                 WorkResult::Status shard) {
  auto rank = [](WorkResult::Status status) {
    switch (status) {
      case WorkResult::Status::kDeadlineExceeded: return 3;
      case WorkResult::Status::kUnavailable: return 2;
      case WorkResult::Status::kShed: return 2;
      case WorkResult::Status::kFailed: return 1;
      case WorkResult::Status::kOk: return 0;
    }
    return 1;
  };
  return rank(shard) > rank(overall) ? shard : overall;
}

std::chrono::milliseconds backoffDelay(int attempt,
                                       std::chrono::milliseconds base,
                                       std::chrono::milliseconds cap,
                                       double jitter01) {
  RFSM_CHECK(attempt >= 1, "backoff attempts are 1-based");
  // Saturating shift: attempt is small in practice, but a caller-supplied
  // maxAttempts must not overflow the multiplier.
  const int shift = std::min(attempt - 1, 20);
  auto delay = base * (1 << shift);
  if (delay > cap) delay = cap;
  delay += std::chrono::milliseconds(
      static_cast<long>(jitter01 * static_cast<double>(base.count())));
  return std::min(delay, cap + base);
}

struct Supervisor::Impl {
  SupervisorOptions options;

  mutable std::mutex mutex;
  std::condition_variable wake;
  std::deque<Item> queue;
  bool stopping = false;
  bool forcedUnhealthy = false;
  std::deque<Clock::time_point> crashTimes;  // within restartWindow
  std::uint64_t crashes = 0, retries = 0, shed = 0, dispatches = 0;
  DispatchHook dispatchHook;
  Rng jitterRng{1};

  std::vector<std::thread> threads;
  std::vector<ipc::ChildProcess> children;  // slot per worker thread
  std::vector<char> childBusy;              // slot holds a live child
  /// Mirror of the slots' child pids (-1 = empty), guarded by `mutex` so
  /// health() can report without touching slot-thread-owned state.  May lag
  /// a crash the slot thread has not noticed yet; health() documents the
  /// count as "spawned", not "proven alive".
  std::vector<int> pidView;

  // --- health ------------------------------------------------------------

  void pruneCrashWindow(Clock::time_point now) {
    while (!crashTimes.empty() &&
           now - crashTimes.front() > options.restartWindow)
      crashTimes.pop_front();
  }

  /// Caller holds `mutex`.
  bool unhealthyLocked(Clock::time_point now) {
    pruneCrashWindow(now);
    return forcedUnhealthy ||
           static_cast<int>(crashTimes.size()) > options.restartLimit;
  }

  void recordCrash() {
    static metrics::Counter& crashCounter =
        metrics::counter(metrics::kServiceWorkerCrashes);
    crashCounter.add();
    trace::instant("supervisor.worker_crash", "service");
    std::lock_guard<std::mutex> lock(mutex);
    ++crashes;
    crashTimes.push_back(Clock::now());
  }

  // --- item resolution ----------------------------------------------------

  static void resolve(Item& item, WorkResult::Status status,
                      std::string payload, std::string error) {
    WorkResult result;
    result.status = status;
    result.payload = std::move(payload);
    result.error = std::move(error);
    result.attempts = item.attempts;
    item.promise->set_value(std::move(result));
  }

  /// Requeues a crashed-out item with backoff, or fails it for good.
  void retryOrFail(Item&& item, const std::string& why) {
    if (item.attempts >= options.maxAttempts) {
      resolve(item, WorkResult::Status::kFailed, "",
              why + " (" + std::to_string(item.attempts) + " attempts)");
      return;
    }
    static metrics::Counter& retryCounter =
        metrics::counter(metrics::kServiceShardRetries);
    retryCounter.add();
    double jitter = 0.0;
    {
      std::lock_guard<std::mutex> lock(mutex);
      ++retries;
      jitter = jitterRng.uniform();
    }
    const auto delay = backoffDelay(item.attempts, options.backoffBase,
                                    options.backoffCap, jitter);
    trace::instant("supervisor.retry", "service",
                   {trace::Arg::num("attempt",
                                    static_cast<std::int64_t>(item.attempts)),
                    trace::Arg::num("backoff_ms", static_cast<std::int64_t>(
                                                      delay.count())),
                    trace::Arg::str("why", why)});
    item.notBefore = Clock::now() + delay;
    {
      std::lock_guard<std::mutex> lock(mutex);
      queue.push_back(std::move(item));
    }
    wake.notify_all();
  }

  // --- worker slot management ---------------------------------------------

  /// Ensures slot `slot` holds a live child.  Returns false (and leaves the
  /// slot empty) when spawning is not allowed or failed.
  bool ensureChild(std::size_t slot) {
    if (childBusy[slot] != 0 && ipc::childAlive(children[slot].pid)) {
      return true;
    }
    if (childBusy[slot] != 0) {
      // Found dead between requests; reap happened in childAlive.
      children[slot] = ipc::ChildProcess{};
      childBusy[slot] = 0;
      {
        std::lock_guard<std::mutex> lock(mutex);
        pidView[slot] = -1;
      }
      recordCrash();
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (unhealthyLocked(Clock::now())) return false;
    }
    try {
      children[slot] = ipc::spawnWorker(options.workerCommand);
      childBusy[slot] = 1;
    } catch (const Error&) {
      return false;
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      pidView[slot] = children[slot].pid;
    }
    static metrics::Counter& restartCounter =
        metrics::counter(metrics::kServiceWorkerRestarts);
    restartCounter.add();
    trace::instant("supervisor.worker_spawn", "service",
                   {trace::Arg::num("pid", static_cast<std::int64_t>(
                                               children[slot].pid))});
    return true;
  }

  void destroyChild(std::size_t slot) {
    if (childBusy[slot] == 0) return;
    ipc::killChild(children[slot].pid);
    children[slot] = ipc::ChildProcess{};
    childBusy[slot] = 0;
    std::lock_guard<std::mutex> lock(mutex);
    pidView[slot] = -1;
  }

  /// Eagerly spawns slot `slot`'s child and, when configured, runs the
  /// warm-up exchange.  Failures leave the slot empty — the normal lazy
  /// ensureChild path takes over on the first real item.
  void preforkSlot(std::size_t slot) {
    if (!ensureChild(slot)) return;
    if (!options.warmupPayload.empty()) {
      CancelToken warmupToken;
      warmupToken.setDeadline(Clock::now() + options.idleTimeout);
      std::string response;
      try {
        ipc::writeFrame(children[slot].channel.get(), options.warmupPayload);
        if (ipc::readFrame(children[slot].channel.get(), response,
                           &warmupToken) != ipc::ReadStatus::kOk) {
          destroyChild(slot);
          recordCrash();
          return;
        }
      } catch (const Error&) {
        destroyChild(slot);
        recordCrash();
        return;
      }
    }
    static metrics::Counter& preforkCounter =
        metrics::counter(metrics::kServiceWorkersPreforked);
    preforkCounter.add();
    trace::instant("supervisor.worker_preforked", "service",
                   {trace::Arg::num("slot", static_cast<std::int64_t>(slot))});
  }

  // --- the worker-slot service loop ----------------------------------------

  void serviceLoop(std::size_t slot) {
    trace::setCurrentThreadName("rfsm-supervise-" + std::to_string(slot));
    if (options.prefork) preforkSlot(slot);
    for (;;) {
      Item item;
      {
        std::unique_lock<std::mutex> lock(mutex);
        for (;;) {
          if (stopping) return;
          const auto now = Clock::now();
          // First eligible item (FIFO among the eligible).
          auto it = std::find_if(queue.begin(), queue.end(), [&](const Item& i) {
            return i.notBefore <= now;
          });
          if (it != queue.end()) {
            item = std::move(*it);
            queue.erase(it);
            break;
          }
          if (queue.empty()) {
            wake.wait(lock);
          } else {
            const auto earliest =
                std::min_element(queue.begin(), queue.end(),
                                 [](const Item& a, const Item& b) {
                                   return a.notBefore < b.notBefore;
                                 })
                    ->notBefore;
            wake.wait_until(lock, earliest);
          }
        }
      }
      process(slot, std::move(item));
    }
  }

  void process(std::size_t slot, Item&& item) {
    // Expired while queued?  Resolve without touching a worker.
    if (item.cancel != nullptr && item.cancel->expired()) {
      resolve(item, WorkResult::Status::kDeadlineExceeded, "",
              "deadline exceeded while queued");
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (unhealthyLocked(Clock::now())) {
        resolve(item, WorkResult::Status::kUnavailable, "",
                "worker pool unhealthy");
        return;
      }
    }
    if (!ensureChild(slot)) {
      resolve(item, WorkResult::Status::kUnavailable, "",
              "cannot (re)spawn worker: restart budget exhausted or spawn "
              "failed");
      return;
    }
    ++item.attempts;

    if (ipc::pendingInput(children[slot].channel.get())) {
      // Bytes queued before we even sent the request: the channel is
      // desynchronized (a duplicated or late frame from a previous
      // exchange, or an EOF).  Reading now would pair a stale reply with
      // this request, so destroy the worker and retry on a fresh one.
      destroyChild(slot);
      recordCrash();
      retryOrFail(std::move(item),
                  "worker channel desynchronized (unexpected pending frame)");
      return;
    }

    try {
      ipc::writeFrame(children[slot].channel.get(), item.payload);
    } catch (const Error& error) {
      // The worker died before (or while) receiving the request: crash,
      // destroy, retry.
      destroyChild(slot);
      recordCrash();
      retryOrFail(std::move(item), std::string("worker write failed: ") +
                                       error.what());
      return;
    }

    DispatchHook hook;
    std::uint64_t ordinal = 0;
    {
      std::lock_guard<std::mutex> lock(mutex);
      hook = dispatchHook;
      ordinal = dispatches++;
    }
    if (hook) hook(ordinal, children[slot].pid);

    // Bound the wait: the item deadline + grace, or the idle timeout —
    // tightened further by the per-attempt timeout when configured.
    CancelToken readToken;
    Clock::time_point bound;
    if (item.cancel != nullptr && item.cancel->deadline().has_value()) {
      bound = *item.cancel->deadline() + options.deadlineGrace;
    } else {
      bound = Clock::now() + options.idleTimeout;
    }
    if (options.attemptTimeout.count() > 0)
      bound = std::min(bound, Clock::now() + options.attemptTimeout);
    readToken.setDeadline(bound);

    std::string response;
    ipc::ReadStatus status = ipc::ReadStatus::kEof;
    try {
      status = ipc::readFrame(children[slot].channel.get(), response,
                              &readToken);
    } catch (const Error& error) {
      destroyChild(slot);
      recordCrash();
      retryOrFail(std::move(item),
                  std::string("worker read failed: ") + error.what());
      return;
    }
    switch (status) {
      case ipc::ReadStatus::kOk:
        resolve(item, WorkResult::Status::kOk, std::move(response), "");
        return;
      case ipc::ReadStatus::kEof:
        // Crash mid-request (SIGKILL, OOM, abort): isolate and retry.
        destroyChild(slot);
        recordCrash();
        retryOrFail(std::move(item), "worker crashed mid-request");
        return;
      case ipc::ReadStatus::kTimeout:
        // The worker overran the deadline (or hung): it cannot be trusted
        // to ever answer — destroy it.  Past the item deadline this is a
        // DEADLINE_EXCEEDED, otherwise a hang worth retrying.
        destroyChild(slot);
        recordCrash();
        if (item.cancel != nullptr && item.cancel->expired()) {
          static metrics::Counter& deadlineCounter =
              metrics::counter(metrics::kServiceDeadlineExceeded);
          deadlineCounter.add();
          resolve(item, WorkResult::Status::kDeadlineExceeded, "",
                  "worker did not finish before the deadline");
        } else {
          retryOrFail(std::move(item), "worker hung past the idle timeout");
        }
        return;
    }
  }
};

Supervisor::Supervisor(SupervisorOptions options)
    : impl_(std::make_unique<Impl>()) {
  RFSM_CHECK(options.workers >= 1, "supervisor needs at least one worker");
  RFSM_CHECK(!options.workerCommand.empty(),
             "supervisor needs a worker command");
  ipc::ignoreSigpipe();
  impl_->options = std::move(options);
  impl_->jitterRng = Rng(impl_->options.jitterSeed);
  const auto n = static_cast<std::size_t>(impl_->options.workers);
  impl_->children.resize(n);
  impl_->childBusy.assign(n, 0);
  impl_->pidView.assign(n, -1);
  impl_->threads.reserve(n);
  for (std::size_t slot = 0; slot < n; ++slot)
    impl_->threads.emplace_back([this, slot] { impl_->serviceLoop(slot); });
}

Supervisor::~Supervisor() {
  std::deque<Item> leftovers;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->stopping = true;
    leftovers.swap(impl_->queue);
  }
  impl_->wake.notify_all();
  for (Item& item : leftovers)
    Impl::resolve(item, WorkResult::Status::kUnavailable, "",
                  "supervisor shutting down");
  for (std::thread& thread : impl_->threads) thread.join();
  for (std::size_t slot = 0; slot < impl_->children.size(); ++slot)
    impl_->destroyChild(slot);
}

std::future<WorkResult> Supervisor::submit(
    std::string payload, std::shared_ptr<const CancelToken> cancel) {
  Item item;
  item.payload = std::move(payload);
  item.promise = std::make_shared<std::promise<WorkResult>>();
  item.cancel = std::move(cancel);
  std::future<WorkResult> future = item.promise->get_future();

  bool rejected = false;
  WorkResult::Status rejection = WorkResult::Status::kShed;
  std::string reason;
  {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    if (impl_->stopping) {
      rejected = true;
      rejection = WorkResult::Status::kUnavailable;
      reason = "supervisor shutting down";
    } else if (impl_->unhealthyLocked(Clock::now())) {
      rejected = true;
      rejection = WorkResult::Status::kUnavailable;
      reason = "worker pool unhealthy";
    } else if (impl_->queue.size() >= impl_->options.queueCapacity) {
      rejected = true;
      rejection = WorkResult::Status::kShed;
      reason = "queue full (" +
               std::to_string(impl_->options.queueCapacity) + " items)";
      ++impl_->shed;
    }
    if (!rejected) impl_->queue.push_back(std::move(item));
  }
  if (rejected) {
    if (rejection == WorkResult::Status::kShed) {
      static metrics::Counter& shedCounter =
          metrics::counter(metrics::kServiceShed);
      shedCounter.add();
      trace::instant("supervisor.shed", "service");
    }
    Impl::resolve(item, rejection, "", reason);
  } else {
    impl_->wake.notify_one();
  }
  return future;
}

Supervisor::Health Supervisor::health() const {
  Health health;
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->pruneCrashWindow(Clock::now());
  health.healthy = !impl_->forcedUnhealthy &&
                   static_cast<int>(impl_->crashTimes.size()) <=
                       impl_->options.restartLimit;
  health.workersConfigured = impl_->options.workers;
  for (const int pid : impl_->pidView)
    if (pid >= 0) ++health.workersAlive;
  health.queueDepth = impl_->queue.size();
  health.crashesInWindow = static_cast<int>(impl_->crashTimes.size());
  health.crashes = impl_->crashes;
  health.retries = impl_->retries;
  health.shed = impl_->shed;
  return health;
}

void Supervisor::forceUnhealthy() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->forcedUnhealthy = true;
}

void Supervisor::clearUnhealthy() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->forcedUnhealthy = false;
}

void Supervisor::setDispatchHook(DispatchHook hook) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  impl_->dispatchHook = std::move(hook);
}

}  // namespace rfsm
