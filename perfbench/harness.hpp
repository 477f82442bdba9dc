// Process, statistics and span plumbing shared by the benchmark workloads.
//
// Nothing here knows about a particular workload: Daemon owns one spawned
// rfsmd (and reaps it), SpanLog is the benchmark's own in-memory tracer,
// and the free functions are the small statistics the report needs.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "service/protocol.hpp"
#include "util/ipc.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock (CLOCK_MONOTONIC).
std::int64_t nowNs();

/// splitmix64 of (a, b): how every workload input is derived from --seed.
std::uint64_t mix(std::uint64_t a, std::uint64_t b);

/// Linear-interpolated quantile q in [0, 1] of `values` (copied, sorted).
/// Empty input gives 0.
double quantile(std::vector<double> values, double q);
double median(const std::vector<double>& values);
double mean(const std::vector<double>& values);

/// Samples strictly above the q-quantile (how well a tail is resolved).
std::size_t samplesBeyond(const std::vector<double>& values, double q);

/// The q-quantile made robust to short bursts of outside interference:
/// `inOrder` (samples in time order) is cut into W consecutive equal-count
/// chunks and the median of the chunks' q-quantiles is returned.  W is the
/// largest value up to 5 that leaves at least 10 samples beyond the
/// quantile in every chunk (1 = the plain quantile).
double chunkedQuantile(const std::vector<double>& inOrder, double q,
                       std::size_t& chunks);

/// One rfsmd process started by the benchmark.  The child gets its own
/// process group and a parent-death signal, so a crashed benchmark never
/// leaves a daemon behind; the destructor stops it.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::vector<std::string>& args,
         const std::string& logPath);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// False once the process has exited (reaps it when it has).
  bool running();
  /// Direct children (the worker processes of a supervisor).
  std::vector<int> children() const;
  /// Peak resident set (VmHWM) of the daemon plus its children, in MiB.
  double peakRssMb() const;
  /// Sends `signal`: SIGTERM makes the daemon drain and exit, SIGKILL
  /// ends it at once.  stop() waits for the exit.
  void signal(int signal);
  /// signal(`signal`), wait for the exit, SIGKILL after 20 s.  Idempotent.
  void stop(int signal);
  /// Last bytes of the daemon's stderr log (for failure reports).
  std::string logTail() const;

 private:
  int pid_ = -1;
  std::string logPath_;
};

/// Reaps every orphaned grandchild (worker processes re-parented to this
/// process, which is a child subreaper) once their daemons have exited;
/// SIGKILLs stragglers after `timeout`.
void reapOrphans(const std::vector<int>& pids, std::chrono::milliseconds timeout);

/// Polls `endpoint` until the version handshake is accepted and, when
/// `preforkWorkers` > 0, until that many workers finished their warm-up.
/// Throws when the daemon exits or 30 s pass.
void waitReady(Daemon& daemon, const rfsm::ipc::Endpoint& endpoint,
               int preforkWorkers);

/// One stats-frame scrape (kStatsRequest).
rfsm::service::StatsResponse scrapeStats(const rfsm::ipc::Endpoint& endpoint);
std::uint64_t counterValue(const rfsm::service::StatsResponse& stats,
                           const std::string& name);

/// The benchmark's own tracer: spans kept in memory per thread, merged and
/// written once at the end.  A null SpanLog* turns every ScopedSpan into a
/// no-op, which is how the end-to-end run keeps tracing off.
struct Span {
  const char* name = "";
  const char* module = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  int thread = 0;
};

class SpanLog {
 public:
  explicit SpanLog(int thread) : thread_(thread) {}
  const std::vector<Span>& spans() const { return spans_; }

 private:
  friend class ScopedSpan;
  int thread_;
  std::uint64_t next_ = 1;
  std::vector<std::uint64_t> open_;  ///< stack of open span ids
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, const char* module);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  Span span_;
};

/// Durations (microseconds) of every span called `name`.
std::vector<double> spanDurationsUs(const std::vector<Span>& spans,
                                    const std::string& name);
/// Self time per module in milliseconds: each span's duration minus the
/// part covered by its direct children, summed by module.
std::map<std::string, double> selfTimeMs(const std::vector<Span>& spans);
/// Chrome trace-event JSON of `spans` (chrome://tracing, Perfetto).
bool writeTraceJson(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench
