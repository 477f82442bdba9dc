// perfbench_client: drives one benchmark workload against real rfsmd
// daemons, checks every output, and prints the result line.
//
//   perfbench_client --workload NAME --seed N --seconds S --trace 0|1
//                    --rfsmd PATH --work-dir DIR [--trace-out FILE]
//   perfbench_client --digest --workload NAME --seed N
//   perfbench_client --list-metrics
//
// perfbench/run.py builds this binary and calls it; see perfbench/README.md
// for the workloads, the metrics and the per-layer predictions.
//
// Shape of one run: deploy the workload's daemons several times to time
// set-up, keep the last deployment, warm it up, drive closed-loop traffic
// for --seconds (peak RSS is read once a fixed amount of work is done),
// scrape the daemons' counters, stop them, then check every output
// in-process.  With --trace 1 the traffic is
// split into alternating traced and untraced blocks, and in-process probes
// time each module's public entry points with the benchmark's own spans.
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/prctl.h>

#include "core/jsr.hpp"
#include "core/migration.hpp"
#include "core/mutable_machine.hpp"
#include "core/planners.hpp"
#include "core/program.hpp"
#include "gen/generator.hpp"
#include "gen/mutator.hpp"
#include "harness.hpp"
#include "service/client.hpp"
#include "service/protocol.hpp"
#include "service/session.hpp"
#include "util/fsio.hpp"
#include "util/rng.hpp"

namespace {

using namespace rfsm;
using namespace rfsm::service;
using perfbench::Daemon;
using perfbench::mix;
using perfbench::nowNs;
using perfbench::ScopedSpan;
using perfbench::SpanLog;

// --- workloads ---------------------------------------------------------------

constexpr int kStreams = 3;           // session client threads
constexpr int kSetupRounds = 40;      // deployments timed per run
constexpr int kBatchWarmup = 1;       // requests before the window opens
constexpr int kSessionWarmup = 8;     // mutations per stream before it opens
constexpr int kBatchWorkers = 2;      // rfsmd --workers
constexpr std::int64_t kTraceBlockNs = 250'000'000;  // traced/untraced blocks
constexpr std::int64_t kRssGraceNs = 40'000'000'000;  // see RssReading

struct Workload {
  std::string name;
  bool batch = false;
  BatchSpec spec;            ///< batch: request shape (seed set per request)
  SessionOpenRequest open;   ///< session: stream shape (name/seed per stream)
  std::uint32_t deltas = 0;  ///< session: deltas per mutation
  double tail = 0.9;         ///< tail quantile printed on stderr
  std::uint64_t rssUnits = 0;  ///< work done when rss_mb is read
};

std::vector<Workload> allWorkloads() {
  std::vector<Workload> all;
  Workload ea;
  ea.name = "batch-ea";
  ea.batch = true;
  ea.spec.stateCount = 32;
  ea.spec.inputCount = 4;
  ea.spec.outputCount = 2;
  ea.spec.deltaCount = 12;
  ea.spec.instanceCount = 8;
  ea.spec.planner = "ea";  // default population 64, 120 generations
  ea.rssUnits = 512;       // instances: 64 requests
  all.push_back(ea);

  Workload vol;
  vol.name = "session-volatile";
  vol.open.planner = "jsr";
  vol.open.stateCount = 64;
  vol.open.inputCount = 4;
  vol.open.outputCount = 2;
  vol.deltas = 6;
  vol.tail = 0.99;
  vol.rssUnits = 131072;  // acks over all streams
  all.push_back(vol);
  return all;
}

// --- generated inputs (a pure function of --seed) -------------------------------

BatchSpec requestSpec(const Workload& w, std::uint64_t seed, std::uint64_t i) {
  BatchSpec spec = w.spec;
  spec.seed = mix(seed, i);
  return spec;
}

SessionOpenRequest streamOpen(const Workload& w, std::uint64_t seed,
                              int stream) {
  SessionOpenRequest open = w.open;
  open.tenant = "perfbench";
  open.name = "s" + std::to_string(seed) + "-" + std::to_string(stream);
  open.seed = mix(seed, 1000 + static_cast<std::uint64_t>(stream));
  open.resume = true;
  return open;
}

std::uint64_t mutationSeedBase(std::uint64_t seed, int stream) {
  return mix(seed, 2000 + static_cast<std::uint64_t>(stream));
}

/// The schedule of `rfsmc session stream` without --defer-every: seq k
/// mutates with seed base+k, and every mutation flushes.
MutationRecord scheduleRecord(std::uint64_t k, std::uint32_t deltas,
                              std::uint64_t seedBase) {
  MutationRecord rec;
  rec.seq = k;
  rec.deltaCount = deltas;
  rec.newStateCount = 0;
  rec.mutationSeed = seedBase + k;
  rec.defer = false;
  return rec;
}

/// Built field for field as `rfsmc session stream` builds it: in
/// particular ackSeq stays 0, so the daemon retains the whole transcript.
SessionMutateRequest mutateRequest(const SessionOpenRequest& open,
                                   const MutationRecord& rec) {
  SessionMutateRequest request;
  request.tenant = open.tenant;
  request.name = open.name;
  request.seq = rec.seq;
  request.deltaCount = rec.deltaCount;
  request.newStateCount = rec.newStateCount;
  request.mutationSeed = rec.mutationSeed;
  request.defer = rec.defer;
  return request;
}

SessionConfig sessionConfig(const SessionOpenRequest& open) {
  SessionConfig config;
  config.tenant = open.tenant;
  config.name = open.name;
  config.priority = static_cast<int>(open.priority);
  config.weight = static_cast<double>(std::max<std::uint32_t>(1, open.weight));
  config.planner = open.planner;
  config.stateCount = open.stateCount;
  config.inputCount = open.inputCount;
  config.outputCount = open.outputCount;
  config.seed = open.seed;
  return config;
}

/// FNV-1a over a canonical rendering of the first requests and records the
/// daemons would receive for (workload, seed).
std::uint64_t inputDigest(const Workload& w, std::uint64_t seed) {
  std::ostringstream text;
  if (w.batch) {
    for (std::uint64_t i = 0; i < 256; ++i) {
      const BatchSpec s = requestSpec(w, seed, i);
      text << s.stateCount << ',' << s.inputCount << ',' << s.outputCount
           << ',' << s.deltaCount << ',' << s.newStateCount << ','
           << s.instanceCount << ',' << s.seed << ',' << s.planner << ','
           << s.eaPopulation << ',' << s.eaGenerations << ';';
    }
  } else {
    for (int stream = 0; stream < kStreams; ++stream) {
      const SessionOpenRequest open = streamOpen(w, seed, stream);
      text << open.tenant << '/' << open.name << ',' << open.planner << ','
           << open.stateCount << ',' << open.inputCount << ','
           << open.outputCount << ',' << open.seed << ';';
      for (std::uint64_t k = 1; k <= 256; ++k) {
        const SessionMutateRequest r = mutateRequest(
            open, scheduleRecord(k, w.deltas, mutationSeedBase(seed, stream)));
        text << r.seq << ',' << r.deltaCount << ',' << r.newStateCount << ','
             << r.mutationSeed << ',' << r.defer << ',' << r.ackSeq << ';';
      }
    }
  }
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : text.str()) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// --- metrics declared by this benchmark ------------------------------------

struct MetricDecl {
  const char* name;
  const char* unit;
};

const std::vector<MetricDecl> kEndToEnd = {
    {"setup_s", "s"},
    {"rss_mb", "MiB"},
    {"latency_ms_p50", "ms"},
};

const std::vector<MetricDecl> kPerLayer = {
    {"gen.random_machine_us", "us"},   {"gen.mutate_us", "us"},
    {"core.context_us", "us"},         {"core.plan_jsr_us", "us"},
    {"core.exec_verify_us", "us"},     {"core.render_us", "us"},
    {"core.program_steps", "count"},   {"ea.plan_ms", "ms"},
    {"ea.decode_us", "us"},            {"ea.evaluations", "count"},
    {"protocol.codec_us", "us"},       {"protocol.reply_bytes", "bytes"},
    {"ipc.rtt_us", "us"},              {"server.dispatch_ms", "ms"},
    {"server.queue_depth", "count"},   {"server.requests", "count"},
    {"server.shards", "count"},        {"server.shard_retries", "count"},
    {"server.shed", "count"},          {"supervisor.worker_crashes", "count"},
    {"worker_cache.hits", "count"},    {"worker_cache.misses", "count"},
    {"worker_cache.hit_ratio", "ratio"},
    {"session.apply_us", "us"},        {"session.mutate_us", "us"},
    {"session.snapshot_bytes", "bytes"},
    {"session.mutations_accepted", "count"},
    {"session.admission_rejections", "count"},
    {"fair.queue_depth", "count"},     {"fsio.append_us", "us"},
    {"fsio.snapshot_us", "us"},        {"repl.ship_us", "us"},
    {"trace.overhead_ms", "ms"},       {"trace.spans", "count"},
    {"self.bench_ms", "ms"},
    {"self.gen_ms", "ms"},             {"self.core_ms", "ms"},
    {"self.ea_ms", "ms"},              {"self.protocol_ms", "ms"},
    {"self.server_ms", "ms"},          {"self.session_ms", "ms"},
    {"self.fsio_ms", "ms"},            {"self.repl_ms", "ms"},
};

// --- run state ---------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string rfsmd;
  std::string workDir;
  std::string traceOut;
};

/// The timed window, fixed once every load thread finished its warm-up.
struct Window {
  std::int64_t t0 = 0;
  std::int64_t end = 0;
  bool trace = false;
  /// In a traced run, ops starting in odd blocks are traced.
  bool traced(std::int64_t startNs) const {
    return trace && ((startNs - t0) / kTraceBlockNs) % 2 == 1;
  }
};

/// Latencies of ops that started inside the window, split by tracing, as
/// (start ns, latency ms) pairs.
struct Latencies {
  std::vector<std::pair<std::int64_t, double>> untraced;
  std::vector<std::pair<std::int64_t, double>> traced;
  std::int64_t lastEndNs = 0;
  std::uint64_t units = 0;  ///< instances (batch) or acks (session)

  void add(const Window& window, std::int64_t start, std::int64_t end,
           std::uint64_t unitCount) {
    if (start < window.t0 || start >= window.end) return;
    (window.traced(start) ? traced : untraced)
        .emplace_back(start, static_cast<double>(end - start) / 1e6);
    lastEndNs = std::max(lastEndNs, end);
    units += unitCount;
  }
};

/// rss_mb is read when the timed phase has completed a fixed amount of
/// work (Workload::rssUnits), not at the end of the window: the daemons
/// retain every acked transcript entry, so a figure taken after a fixed time
/// would grow with throughput.  If the window closes first, the load keeps
/// going untimed for up to kRssGraceNs until the reading is taken.
struct RssReading {
  std::uint64_t target = 0;
  std::function<double()> read;  ///< peak RSS over the daemons, MiB
  std::atomic<std::uint64_t> units{0};
  std::atomic<bool> taken{false};
  double mb = 0.0;

  /// Counts `n` units completed after the window opened; the call that
  /// reaches the target takes the reading.
  void add(std::uint64_t n) {
    if (n > 0 && units.fetch_add(n) + n >= target && !taken.exchange(true))
      mb = read();
  }
  /// Whether a load thread should send another request.
  bool keepLoading(const Window& window) const {
    const std::int64_t now = nowNs();
    return now < window.end ||
           (!taken.load() && now < window.end + kRssGraceNs);
  }
};

/// Health round trips and queue depths sampled against the loaded daemon.
struct LoadProbe {
  std::vector<double> fairDepth;
  std::vector<double> serverDepth;
  std::int64_t nextNs = 0;
  std::string error;

  void maybeSample(const ipc::Endpoint& endpoint, SpanLog* log,
                   std::int64_t periodNs) {
    if (log == nullptr || nowNs() < nextNs) return;
    nextNs = nowNs() + periodNs;
    std::optional<HealthResponse> health;
    {
      ScopedSpan span(log, "ipc.health_rtt", "ipc");
      health = probeHealth(endpoint, 5000);
    }
    if (!health.has_value()) error = "health probe unanswered";
    const StatsResponse stats = perfbench::scrapeStats(endpoint);
    fairDepth.push_back(static_cast<double>(stats.schedulerDepth));
    serverDepth.push_back(static_cast<double>(stats.workers.queueDepth));
  }
};

struct Deployment {
  std::vector<std::unique_ptr<Daemon>> daemons;
  std::string socketPath;  ///< the daemon clients talk to
  ipc::Endpoint endpoint;  ///< socketPath, parsed
  std::vector<std::unique_ptr<SessionStream>> streams;
  std::vector<SessionOpenRequest> opens;

  Deployment() = default;
  Deployment(Deployment&&) = default;
  Deployment& operator=(Deployment&&) = default;
  ~Deployment() { stop(SIGTERM); }

  /// Closes the streams, stops every daemon with `signal` (SIGTERM drains,
  /// SIGKILL does not) and reaps their workers.
  void stop(int signal) {
    streams.clear();
    std::vector<int> workers;
    for (const auto& d : daemons)
      for (const int child : d->children()) workers.push_back(child);
    for (auto& d : daemons) d->signal(signal);  // all exit in parallel
    for (auto& d : daemons) d->stop(signal);
    perfbench::reapOrphans(workers, std::chrono::seconds(10));
  }
};

std::unique_ptr<Daemon> spawn(const Options& opt, const std::string& dir,
                              const std::string& role,
                              std::vector<std::string> args) {
  return std::make_unique<Daemon>(opt.rfsmd, args, dir + "/" + role + ".log");
}

/// Starts the workload's daemons and opens its sessions; the time this
/// function takes is what setup_s measures.
Deployment deploy(const Workload& w, const Options& opt,
                  const std::string& dir) {
  std::filesystem::create_directories(dir);
  Deployment d;
  const std::string primarySock = dir + "/primary.sock";
  d.socketPath = primarySock;
  d.endpoint = ipc::parseEndpoint(primarySock);
  if (w.batch) {
    d.daemons.push_back(spawn(opt, dir, "primary",
                              {"--socket", primarySock, "--workers",
                               std::to_string(kBatchWorkers), "--prefork",
                               "--plan-cache", "0"}));
    perfbench::waitReady(*d.daemons.back(), d.endpoint, kBatchWorkers);
    return d;
  }
  d.daemons.push_back(
      spawn(opt, dir, "primary", {"--socket", primarySock, "--plan-cache", "0"}));
  perfbench::waitReady(*d.daemons.back(), d.endpoint, 0);
  for (int s = 0; s < kStreams; ++s) {
    SessionStream::Options so;
    so.endpoint = d.endpoint;
    so.endpoints.push_back(d.endpoint);
    d.streams.push_back(std::make_unique<SessionStream>(so));
    d.opens.push_back(streamOpen(w, opt.seed, s));
    const SessionOpenResponse opened = d.streams.back()->open(d.opens.back());
    if (opened.status != SessionStatus::kOk || opened.lastApplied != 0)
      throw std::runtime_error("session open failed: " +
                               std::string(toString(opened.status)) + " " +
                               opened.error);
  }
  return d;
}

template <typename F>
auto timed(SpanLog* log, const char* name, const char* module, F&& f) {
  ScopedSpan span(log, name, module);
  return f();
}

// --- batch traffic -------------------------------------------------------------

struct BatchRun {
  std::vector<BatchSpec> specs;
  std::vector<std::vector<std::string>> programs;  ///< empty = failed request
  Latencies lat;
  std::uint64_t failed = 0;
  std::uint64_t degraded = 0;
  std::string notices;  ///< planBatch diagnostics (degradation etc.)
  std::string error;
};

void batchLoop(const Workload& w, const Options& opt, const Deployment& d,
               std::barrier<std::function<void()>>& start, const Window& window,
               BatchRun& run, SpanLog& spans, RssReading& rss) {
  ClientOptions client;
  client.socketPath = d.socketPath;
  std::ostringstream notices;
  auto once = [&](std::uint64_t i) {
    const BatchSpec spec = requestSpec(w, opt.seed, i);
    const std::int64_t begin = nowNs();
    ClientResult result = timed(window.traced(begin) ? &spans : nullptr,
                                "client.plan_batch", "client",
                                [&] { return planBatch(spec, client, notices); });
    const std::int64_t end = nowNs();
    const bool ok = result.status == WorkResult::Status::kOk &&
                    !result.degraded &&
                    result.programs.size() == spec.instanceCount;
    if (result.degraded) ++run.degraded;
    if (!ok) {
      ++run.failed;
      result.programs.clear();
    }
    run.specs.push_back(spec);
    run.programs.push_back(std::move(result.programs));
    if (ok) run.lat.add(window, begin, end, spec.instanceCount);
    return ok ? spec.instanceCount : 0;
  };
  std::uint64_t i = 0;
  try {
    for (; i < kBatchWarmup; ++i) once(i);
  } catch (const std::exception& e) {
    run.error = e.what();
  }
  start.arrive_and_wait();
  try {
    while (run.error.empty() && rss.keepLoading(window)) rss.add(once(i++));
  } catch (const std::exception& e) {
    run.error = e.what();
  }
  run.notices = notices.str();
}

// --- session traffic -----------------------------------------------------------

struct Ack {
  SessionStatus status = SessionStatus::kFailed;
  std::string program;
};

struct StreamRun {
  std::vector<MutationRecord> sent;  ///< records with an answer, seq order
  std::vector<Ack> acks;
  Latencies lat;
  std::uint64_t failed = 0;
  std::uint64_t rejections = 0;
  std::string error;
};

void streamLoop(const Workload& w, const Options& opt, Deployment& d, int s,
                std::barrier<std::function<void()>>& start,
                const Window& window, StreamRun& run, SpanLog& spans,
                LoadProbe* probe, RssReading& rss) {
  SessionStream& stream = *d.streams[static_cast<std::size_t>(s)];
  const SessionOpenRequest& open = d.opens[static_cast<std::size_t>(s)];
  const std::uint64_t seedBase = mutationSeedBase(opt.seed, s);
  auto once = [&](std::uint64_t k) {
    const MutationRecord rec = scheduleRecord(k, w.deltas, seedBase);
    const SessionMutateRequest request = mutateRequest(open, rec);
    const std::int64_t begin = nowNs();
    SessionMutateResponse response;
    {
      ScopedSpan span(window.traced(begin) ? &spans : nullptr,
                      "client.mutate", "client");
      // The admission backoff loop of `rfsmc session stream`.
      const auto admissionDeadline = perfbench::Clock::now() +
                                     std::chrono::seconds(15);
      for (;;) {
        response = stream.mutate(request);
        if ((response.status != SessionStatus::kResourceExhausted &&
             response.status != SessionStatus::kDraining) ||
            perfbench::Clock::now() >= admissionDeadline)
          break;
        ++run.rejections;
        std::this_thread::sleep_for(std::chrono::milliseconds(
            std::max<std::int64_t>(1, response.retryAfterMs > 0
                                          ? response.retryAfterMs
                                          : 100)));
      }
    }
    const std::int64_t end = nowNs();
    const bool ok = response.seq == rec.seq &&
                    (response.status == SessionStatus::kOk ||
                     response.status == SessionStatus::kAccepted);
    if (!ok) ++run.failed;
    run.sent.push_back(rec);
    run.acks.push_back({response.status, std::move(response.program)});
    if (ok) run.lat.add(window, begin, end, 1);
    return ok ? 1u : 0u;
  };
  std::uint64_t k = 1;
  try {
    for (; k <= kSessionWarmup; ++k) once(k);
  } catch (const std::exception& e) {
    run.error = e.what();
  }
  start.arrive_and_wait();
  try {
    while (run.error.empty() && rss.keepLoading(window)) {
      rss.add(once(k++));
      if (probe != nullptr) probe->maybeSample(d.endpoint, &spans, 100'000'000);
    }
  } catch (const std::exception& e) {
    run.error = e.what();
  }
}

/// The daemon's retained transcript for one stream, fetched in chunks.
std::map<std::uint64_t, std::string> fetchTranscript(
    SessionStream& stream, const SessionOpenRequest& open,
    std::uint64_t lastSeq, std::string& error) {
  std::map<std::uint64_t, std::string> entries;
  for (std::uint64_t from = 1; from <= lastSeq; from += 4096) {
    SessionReplayRequest request;
    request.tenant = open.tenant;
    request.name = open.name;
    request.fromSeq = from;
    request.toSeq = std::min(lastSeq, from + 4095);
    const SessionReplayResponse replayed = stream.replay(request);
    if (replayed.status != SessionStatus::kOk) {
      error = "replay failed: " + std::string(toString(replayed.status));
      return entries;
    }
    for (const auto& e : replayed.entries) entries[e.seq] = e.program;
  }
  return entries;
}

// --- output checks -------------------------------------------------------------

/// Parses, replays and bounds every program of every answered request;
/// byte-matches a seeded sample of requests against in-process planRange.
/// Returns the number of requests with a wrong program.
std::uint64_t checkBatches(const BatchRun& run, std::uint64_t seed,
                           std::string& report) {
  const std::size_t n = run.specs.size();
  std::vector<char> wrong(n, 0);
  std::vector<char> sample(n, 0);
  if (n > 0) {
    sample[0] = 1;
    sample[mix(seed, 77) % n] = 1;
    sample[mix(seed, 78) % n] = 1;
  }
  std::mutex reportMutex;
  auto worker = [&](std::size_t first) {
    for (std::size_t i = first; i < n; i += kStreams) {
      const auto& programs = run.programs[i];
      if (programs.empty()) continue;  // already counted as failed
      const BatchSpec& spec = run.specs[i];
      std::string why;
      for (std::uint64_t k = 0; k < spec.instanceCount && why.empty(); ++k) {
        try {
          const MigrationContext context = makeInstance(spec, k);
          const ReconfigurationProgram program =
              programFromText(context, programs[k]);
          MutableMachine machine(context);
          machine.applyProgram(program);
          if (!machine.matchesTarget(&why))
            why = "does not reach its target: " + why;
          else if (program.length() < context.deltaCount())
            why = "shorter than |Td| (Thm. 4.3)";
        } catch (const std::exception& e) {
          why = e.what();
        }
        if (!why.empty()) why = "instance " + std::to_string(k) + " " + why;
      }
      if (why.empty() && sample[i] &&
          planRange(spec, 0, spec.instanceCount, nullptr, 1,
                    PlanCacheMode::kBypass) != programs)
        why = "differs from in-process planRange";
      if (!why.empty()) {
        wrong[i] = 1;
        std::lock_guard<std::mutex> lock(reportMutex);
        report += "request " + std::to_string(i) + ": " + why + "\n";
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kStreams; ++t)
    threads.emplace_back(worker, static_cast<std::size_t>(t));
  for (auto& t : threads) t.join();
  return static_cast<std::uint64_t>(std::count(wrong.begin(), wrong.end(), 1));
}

/// Feeds a reference SessionEngine the stream's records and compares every
/// ack and the daemon's retained transcript.  Returns diverged acks.
std::uint64_t checkStream(const SessionOpenRequest& open, const StreamRun& run,
                          const std::map<std::uint64_t, std::string>& daemonLog,
                          std::string& report) {
  SessionEngine engine(sessionConfig(open));
  auto logged = daemonLog.begin();  // walked in step with the planned acks
  std::size_t planned = 0;
  bool sameLog = true;
  std::uint64_t diverged = 0;
  for (std::size_t j = 0; j < run.sent.size(); ++j) {
    const PlanOutcome outcome = engine.apply(run.sent[j]);
    const Ack& ack = run.acks[j];
    const bool same =
        outcome.failed
            ? ack.status == SessionStatus::kFailed
            : (outcome.planned ? ack.status == SessionStatus::kOk &&
                                     ack.program == outcome.program
                               : ack.status == SessionStatus::kAccepted);
    if (outcome.planned) {
      ++planned;
      sameLog = sameLog && logged != daemonLog.end() &&
                logged->first == run.sent[j].seq &&
                logged->second == outcome.program;
      if (logged != daemonLog.end()) ++logged;
    }
    if (!same && diverged++ == 0)
      report += open.name + ": seq " + std::to_string(run.sent[j].seq) +
                " diverged from the reference engine\n";
  }
  if (!sameLog || daemonLog.size() != planned) {
    ++diverged;
    report += open.name + ": daemon transcript (" +
              std::to_string(daemonLog.size()) +
              " entries) differs from the reference (" +
              std::to_string(planned) + ")\n";
  }
  return diverged;
}

// --- in-process layer probes (traced run only) ---------------------------------

/// The workload's instance shape (dims, deltas, EA config) as a 64-instance
/// batch with a probe seed.
BatchSpec probeSpec(const Workload& w, std::uint64_t seed) {
  BatchSpec spec = w.spec;
  if (!w.batch) {
    spec.stateCount = w.open.stateCount;
    spec.inputCount = w.open.inputCount;
    spec.outputCount = w.open.outputCount;
    spec.deltaCount = static_cast<int>(w.deltas);
    spec.planner = w.open.planner;
  }
  spec.seed = mix(seed, 9000);
  spec.instanceCount = 64;
  return spec;
}

/// The generate -> context -> plan -> render -> execute+verify pipeline, one
/// span per module call.  Returns the summed program length (a count that
/// repeats exactly for a seed).
std::uint64_t probePipeline(SpanLog& log, const BatchSpec& spec,
                            std::string& error) {
  std::uint64_t steps = 0;
  for (std::uint64_t i = 0; i < spec.instanceCount; ++i) {
    ScopedSpan root(&log, "probe.instance", "bench");
    Rng gen = Rng(spec.seed).substream(kGenStreamBase + i);
    RandomMachineSpec sourceSpec;
    sourceSpec.stateCount = spec.stateCount;
    sourceSpec.inputCount = spec.inputCount;
    sourceSpec.outputCount = spec.outputCount;
    sourceSpec.name = "probe" + std::to_string(i);
    const Machine source = timed(&log, "gen.random_machine", "gen",
                                 [&] { return randomMachine(sourceSpec, gen); });
    MutationSpec mutation;
    mutation.deltaCount = spec.deltaCount;
    const Machine target = timed(&log, "gen.mutate", "gen", [&] {
      return mutateMachine(source, mutation, gen);
    });
    const MigrationContext context = timed(
        &log, "core.context", "core",
        [&] { return MigrationContext(source, target); });
    const ReconfigurationProgram program =
        timed(&log, "core.plan_jsr", "core", [&] { return planJsr(context); });
    const std::string text = timed(&log, "core.render", "core", [&] {
      return programToText(context, program);
    });
    const bool reached = timed(&log, "core.exec_verify", "core", [&] {
      MutableMachine machine(context);
      machine.applyProgram(program);
      return machine.matchesTarget();
    });
    if (!reached || text.empty()) error = "probe program misses its target";
    steps += static_cast<std::uint64_t>(program.length());
  }
  return steps;
}

/// planEvolutionary on two instances and decodeOrder on seeded orders;
/// returns the fitness evaluations (a count that repeats for a seed).
std::uint64_t probeEa(SpanLog& log, const BatchSpec& spec, std::uint64_t seed) {
  std::uint64_t evaluations = 0;
  EvolutionConfig config;
  config.populationSize = spec.eaPopulation;
  config.generations = spec.eaGenerations;
  for (std::uint64_t i = 0; i < 2; ++i) {
    const MigrationContext context = makeInstance(spec, i);
    Rng rng = Rng(spec.seed).substream(i);
    const EvolutionaryPlan plan = timed(&log, "ea.plan", "ea", [&] {
      return planEvolutionary(context, config, rng);
    });
    evaluations += static_cast<std::uint64_t>(plan.evaluations);
  }
  const MigrationContext context = makeInstance(spec, 0);
  std::vector<int> order(static_cast<std::size_t>(loopDeltaCount(context)));
  std::iota(order.begin(), order.end(), 0);
  Rng rng(mix(seed, 31));
  for (int j = 0; j < 256; ++j) {
    rng.shuffle(order);
    timed(&log, "ea.decode", "ea", [&] { return decodeOrder(context, order); });
  }
  return evaluations;
}

/// Encodes and decodes `reply` repeatedly; returns the payload size.
template <typename Reply, typename Encode, typename Decode>
std::size_t probeCodec(SpanLog& log, const Reply& reply, Encode encode,
                       Decode decode, int rounds, std::string& error) {
  std::size_t bytes = 0;
  for (int j = 0; j < rounds; ++j) {
    ScopedSpan span(&log, "protocol.codec", "protocol");
    const std::string payload = encode(reply);
    bytes = payload.size();
    if (decode(payload).status != reply.status) error = "codec round trip";
  }
  return bytes;
}

/// In-process SessionService::mutate and SessionEngine::apply on the same
/// records; the two must plan identical programs.  Returns the engine's
/// snapshot size.
std::size_t probeSession(SpanLog& log, const BatchSpec& shape,
                          std::uint64_t seed, std::string& error) {
  SessionOpenRequest open;
  open.tenant = "perfbench-probe";
  open.name = "inproc";
  open.planner = "jsr";
  open.stateCount = shape.stateCount;
  open.inputCount = shape.inputCount;
  open.outputCount = shape.outputCount;
  open.seed = mix(seed, 4000);
  const auto deltas = static_cast<std::uint32_t>(shape.deltaCount);
  std::vector<MutationRecord> records;
  for (std::uint64_t k = 1; k <= 200; ++k)
    records.push_back(scheduleRecord(k, deltas, mix(seed, 4001)));

  std::vector<std::string> served;
  {
    SessionServiceOptions options;  // volatile, 2 executors: rfsmd defaults
    SessionService service(options);
    if (service.open(open).status != SessionStatus::kOk)
      error = "in-process session open failed";
    for (const MutationRecord& rec : records) {
      const SessionMutateResponse response =
          timed(&log, "session.mutate", "session",
                [&] { return service.mutate(mutateRequest(open, rec)); });
      served.push_back(response.program);
    }
    service.drain();
  }
  SessionEngine engine(sessionConfig(open));
  for (std::size_t j = 0; j < records.size(); ++j) {
    const PlanOutcome outcome = timed(&log, "session.apply", "session",
                                      [&] { return engine.apply(records[j]); });
    if (outcome.program != served[j]) error = "in-process session diverged";
  }
  ipc::MessageWriter writer;
  engine.encodeSnapshot(writer);
  return writer.take().size();
}

/// WAL-record-sized durable appends and snapshot-sized durable replaces.
void probeFsio(SpanLog& log, const std::string& dir, std::size_t snapshotBytes) {
  // A journaled MutationRecord line is 40-60 bytes; 64 covers it.
  const std::string record(63, 'r');
  const std::string walPath = dir + "/probe.wal";
  ipc::Fd wal = fsio::openAppend(walPath);
  for (int j = 0; j < 32; ++j) {
    ScopedSpan span(&log, "fsio.append", "fsio");
    fsio::appendDurable(wal.get(), walPath, record + "\n");
  }
  const std::string snapshot(snapshotBytes, 's');
  for (int j = 0; j < 8; ++j) {
    ScopedSpan span(&log, "fsio.snapshot", "fsio");
    fsio::writeFileDurable(dir + "/probe.snap", snapshot);
  }
}

/// Ships replication frames for a probe session to the loaded daemon,
/// which takes the standby role for that session.
void probeRepl(SpanLog& log, const ipc::Endpoint& target, const BatchSpec& shape,
               std::uint64_t seed, std::string& error) {
  SessionReplAppendRequest request;
  request.tenant = "perfbench-probe";
  request.name = "repl-" + std::to_string(seed);
  request.planner = "jsr";
  request.stateCount = shape.stateCount;
  request.inputCount = shape.inputCount;
  request.outputCount = shape.outputCount;
  request.seed = mix(seed, 5000);
  request.epoch = 1;
  for (std::uint64_t k = 1; k <= 64; ++k) {
    const MutationRecord rec = scheduleRecord(
        k, static_cast<std::uint32_t>(shape.deltaCount), mix(seed, 5001));
    request.seq = rec.seq;
    request.deltaCount = rec.deltaCount;
    request.newStateCount = rec.newStateCount;
    request.mutationSeed = rec.mutationSeed;
    request.defer = rec.defer;
    const auto reply = timed(&log, "repl.ship", "repl", [&] {
      return exchangeEndpoint(target, encodeSessionReplAppendRequest(request),
                              5000);
    });
    if (!reply.has_value() ||
        decodeSessionReplAppendResponse(*reply).status != SessionStatus::kOk)
      error = "replication probe frame refused";
  }
}

/// Plans `spec` on kBatchWorkers threads pulling 4-instance shards, the
/// way rfsmd's default pool does, minus processes and wire.  Returns the
/// number of programs.
std::size_t planShardedInProcess(const BatchSpec& spec) {
  constexpr std::uint64_t kShard = 4;  // rfsmd --shard-size default
  clearInstanceCache();
  std::atomic<std::uint64_t> next{0};
  std::atomic<std::size_t> programs{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kBatchWorkers; ++t)
    threads.emplace_back([&] {
      for (std::uint64_t lo; (lo = next.fetch_add(kShard)) < spec.instanceCount;)
        programs += planRange(spec, lo, std::min(lo + kShard, spec.instanceCount),
                              nullptr, 1, PlanCacheMode::kBypass)
                        .size();
    });
  for (auto& t : threads) t.join();
  return programs;
}

// --- the run -------------------------------------------------------------------

struct Scrape {
  std::uint64_t requests = 0, shards = 0, retries = 0, shed = 0, crashes = 0;
  std::uint64_t cacheHits = 0, cacheMisses = 0;
  std::uint64_t accepted = 0, rejected = 0;
};

Scrape scrape(const StatsResponse& s) {
  Scrape out;
  out.requests = perfbench::counterValue(s, metrics::kServiceRequests);
  out.shards = perfbench::counterValue(s, metrics::kServiceShards);
  out.retries = perfbench::counterValue(s, metrics::kServiceShardRetries);
  out.shed = perfbench::counterValue(s, metrics::kServiceShed);
  out.crashes = perfbench::counterValue(s, metrics::kServiceWorkerCrashes);
  out.cacheHits = perfbench::counterValue(s, metrics::kServiceWorkerCacheHits);
  out.cacheMisses =
      perfbench::counterValue(s, metrics::kServiceWorkerCacheMisses);
  out.accepted = perfbench::counterValue(s, metrics::kSessionMutationsAccepted);
  out.rejected = perfbench::counterValue(s, metrics::kSessionMutationsRejected);
  return out;
}

std::string fixed(double v, int digits = 3) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(digits) << v;
  return out.str();
}

/// Everything the timed phase left behind, before and after the checks.
struct RunState {
  std::vector<std::unique_ptr<SpanLog>> spanLogs;  ///< one per load thread
  Window window;
  BatchRun batch;
  std::vector<StreamRun> streams;
  LoadProbe probe;
  RssReading rss;
  std::vector<std::map<std::uint64_t, std::string>> transcripts;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string report;  ///< failure details for stderr
};

/// Runs the closed-loop traffic: one batch client (plus, traced, a probe
/// thread) or kStreams session streams, warmed up, then timed together.
void driveLoad(const Workload& w, const Options& opt, Deployment& d,
               RunState& rs) {
  rs.window.trace = opt.trace;
  for (int t = 0; t <= kStreams; ++t)
    rs.spanLogs.push_back(std::make_unique<SpanLog>(t));
  rs.streams.resize(w.batch ? 0 : kStreams);
  const int threads = w.batch ? (opt.trace ? 2 : 1) : kStreams;
  std::barrier<std::function<void()>> start(threads, [&] {
    rs.window.t0 = nowNs();
    rs.window.end = rs.window.t0 + static_cast<std::int64_t>(opt.seconds * 1e9);
  });
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(threads));
  if (w.batch) {
    pool.emplace_back([&] {
      batchLoop(w, opt, d, start, rs.window, rs.batch, *rs.spanLogs[0],
                rs.rss);
    });
    if (opt.trace)
      pool.emplace_back([&] {
        start.arrive_and_wait();
        try {
          while (nowNs() < rs.window.end) {
            rs.probe.maybeSample(d.endpoint, rs.spanLogs[1].get(), 50'000'000);
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
          }
        } catch (const std::exception& e) {
          rs.probe.error = e.what();
        }
      });
  } else {
    for (std::size_t s = 0; s < rs.streams.size(); ++s)
      pool.emplace_back([&, s] {
        streamLoop(w, opt, d, static_cast<int>(s), start, rs.window,
                   rs.streams[s], *rs.spanLogs[s],
                   s == 0 && opt.trace ? &rs.probe : nullptr, rs.rss);
      });
  }
  for (auto& t : pool) t.join();
}

/// Fetches each stream's retained transcript.  The daemon must still be up.
void collectTranscripts(Deployment& d, RunState& rs) {
  for (std::size_t s = 0; s < rs.streams.size(); ++s) {
    std::string error;
    rs.transcripts.push_back(fetchTranscript(
        *d.streams[s], d.opens[s], rs.streams[s].sent.size(), error));
    if (!error.empty()) rs.report += d.opens[s].name + ": " + error + "\n";
  }
}

/// The output checks (after the daemons stopped) and the end-to-end
/// latencies: untraced ops in `latMs` (in start order), traced ones in
/// `tracedLatMs`.
void checkOutputs(const Workload& w, const Options& opt, const Deployment& d,
                  RunState& rs, std::vector<double>& latMs,
                  std::vector<double>& tracedLatMs, double& elapsedS,
                  std::uint64_t& units) {
  std::vector<const Latencies*> lats;
  if (w.batch) {
    const BatchRun& batch = rs.batch;
    rs.attempted += batch.specs.size();
    rs.failed += batch.failed + checkBatches(batch, opt.seed, rs.report);
    if (!batch.error.empty()) {
      ++rs.failed;
      rs.report += "client: " + batch.error + "\n";
    }
    if (batch.degraded > 0)
      rs.report += std::to_string(batch.degraded) + " degraded replies\n";
    rs.report += batch.notices;
    lats.push_back(&batch.lat);
  } else {
    std::vector<std::string> reports(rs.streams.size());
    std::vector<std::uint64_t> diverged(rs.streams.size(), 0);
    std::vector<std::thread> checkers;
    for (std::size_t s = 0; s < rs.streams.size(); ++s)
      checkers.emplace_back([&, s] {
        try {
          diverged[s] = checkStream(d.opens[s], rs.streams[s],
                                    rs.transcripts[s], reports[s]);
        } catch (const std::exception& e) {
          diverged[s] = 1;
          reports[s] += d.opens[s].name + ": reference engine: " + e.what() +
                        "\n";
        }
      });
    for (auto& t : checkers) t.join();
    for (std::size_t s = 0; s < rs.streams.size(); ++s) {
      const StreamRun& sr = rs.streams[s];
      rs.attempted += sr.sent.size();
      rs.failed += sr.failed + diverged[s];
      rs.report += reports[s];
      if (!sr.error.empty()) {
        ++rs.failed;
        rs.report += d.opens[s].name + ": " + sr.error + "\n";
      }
      lats.push_back(&sr.lat);
    }
  }
  if (!rs.probe.error.empty()) {
    ++rs.failed;
    rs.report += "load probe: " + rs.probe.error + "\n";
  }
  std::int64_t lastEnd = rs.window.t0;
  std::vector<std::pair<std::int64_t, double>> untraced;
  for (const Latencies* lat : lats) {
    untraced.insert(untraced.end(), lat->untraced.begin(),
                    lat->untraced.end());
    for (const auto& sample : lat->traced) tracedLatMs.push_back(sample.second);
    lastEnd = std::max(lastEnd, lat->lastEndNs);
    units += lat->units;
  }
  std::sort(untraced.begin(), untraced.end());
  for (const auto& sample : untraced) latMs.push_back(sample.second);
  elapsedS = static_cast<double>(lastEnd - rs.window.t0) / 1e9;
}

using Put = std::function<void(const std::string&, double)>;

/// Runs the in-process probes on the workload's instance shape and puts
/// every per-layer metric.  `p50` and `tracedP50` are the untraced and
/// traced end-to-end medians of the same run.
void layerMetrics(const Workload& w, const Options& opt, RunState& rs,
                  SpanLog& probeLog, const BatchSpec& shape,
                  const Scrape& counters, double p50, double tracedP50,
                  std::string& probeError, const Put& put) {
  const std::uint64_t steps = probePipeline(probeLog, shape, probeError);
  const std::uint64_t evaluations = probeEa(probeLog, shape, opt.seed);
  std::size_t replyBytes = 0;
  if (w.batch) {
    PlanResponse reply;
    reply.status = WorkResult::Status::kOk;
    if (!rs.batch.programs.empty()) reply.programs = rs.batch.programs.front();
    replyBytes = probeCodec(probeLog, reply, encodePlanResponse,
                            decodePlanResponse, 20, probeError);
  } else {
    SessionMutateResponse reply;
    reply.status = SessionStatus::kOk;
    const StreamRun& first = rs.streams.front();
    for (std::size_t j = 0; j < first.acks.size(); ++j)
      if (first.acks[j].status == SessionStatus::kOk) {
        reply.seq = first.sent[j].seq;
        reply.program = first.acks[j].program;
        break;
      }
    replyBytes = probeCodec(probeLog, reply, encodeSessionMutateResponse,
                            decodeSessionMutateResponse, 200, probeError);
  }
  const std::size_t snapshotBytes =
      probeSession(probeLog, shape, opt.seed, probeError);
  probeFsio(probeLog, opt.workDir, snapshotBytes);
  // Service time without the daemon: the batch planned in-process as the
  // daemon shards it, or in-process SessionService::mutate (sessions).
  const char* inProcess = "session.mutate";
  if (w.batch) {
    inProcess = "server.plan_range";
    for (std::size_t i = 0; i < std::min<std::size_t>(3, rs.batch.specs.size());
         ++i)
      timed(&probeLog, inProcess, "server",
            [&] { return planShardedInProcess(rs.batch.specs[i]); });
  }

  std::vector<perfbench::Span> spans = probeLog.spans();
  for (const auto& l : rs.spanLogs)
    spans.insert(spans.end(), l->spans().begin(), l->spans().end());
  if (!opt.traceOut.empty() && !perfbench::writeTraceJson(spans, opt.traceOut))
    probeError = "cannot write " + opt.traceOut;
  auto medianUs = [&](const char* name) {
    return perfbench::median(perfbench::spanDurationsUs(spans, name));
  };
  auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  put("gen.random_machine_us", medianUs("gen.random_machine"));
  put("gen.mutate_us", medianUs("gen.mutate"));
  put("core.context_us", medianUs("core.context"));
  put("core.plan_jsr_us", medianUs("core.plan_jsr"));
  put("core.exec_verify_us", medianUs("core.exec_verify"));
  put("core.render_us", medianUs("core.render"));
  put("core.program_steps", count(steps));
  put("ea.plan_ms", medianUs("ea.plan") / 1e3);
  put("ea.decode_us", medianUs("ea.decode"));
  put("ea.evaluations", count(evaluations));
  put("protocol.codec_us", medianUs("protocol.codec"));
  put("protocol.reply_bytes", count(replyBytes));
  put("ipc.rtt_us", medianUs("ipc.health_rtt"));
  put("server.dispatch_ms", p50 - medianUs(inProcess) / 1e3);
  put("server.queue_depth", perfbench::mean(rs.probe.serverDepth));
  put("server.requests", count(counters.requests));
  put("server.shards", count(counters.shards));
  put("server.shard_retries", count(counters.retries));
  put("server.shed", count(counters.shed));
  put("supervisor.worker_crashes", count(counters.crashes));
  put("worker_cache.hits", count(counters.cacheHits));
  put("worker_cache.misses", count(counters.cacheMisses));
  put("worker_cache.hit_ratio",
      count(counters.cacheHits) /
          count(std::max<std::uint64_t>(
              1, counters.cacheHits + counters.cacheMisses)));
  put("session.apply_us", medianUs("session.apply"));
  put("session.mutate_us", medianUs("session.mutate"));
  put("session.snapshot_bytes", count(snapshotBytes));
  put("session.mutations_accepted", count(counters.accepted));
  put("session.admission_rejections", count(counters.rejected));
  put("fair.queue_depth", perfbench::mean(rs.probe.fairDepth));
  put("fsio.append_us", medianUs("fsio.append"));
  put("fsio.snapshot_us", medianUs("fsio.snapshot"));
  put("repl.ship_us", medianUs("repl.ship"));
  put("trace.overhead_ms", tracedP50 - p50);
  put("trace.spans", count(spans.size()));
  // Only the probes run a fixed amount of work; the load threads' spans
  // fill the traced half of the window whatever the daemon's speed.
  const auto self = perfbench::selfTimeMs(probeLog.spans());
  for (const char* module : {"bench", "gen", "core", "ea", "protocol",
                             "server", "session", "fsio", "repl"}) {
    const auto it = self.find(module);
    put(std::string("self.") + module + "_ms",
        it == self.end() ? 0.0 : it->second);
  }
}

int run(const Workload& w, const Options& opt) {
  std::ostream& log = std::cerr;
  const auto wallStart = perfbench::Clock::now();

  // Set-up, timed kSetupRounds times; the last deployment carries the load.
  // Earlier rounds are throwaway, so they are killed instead of drained.
  // All rounds run before the load: later, the client's heap holds every
  // ack, and fork() of a large client would be timed as daemon set-up.
  std::vector<double> setupS;
  Deployment d;
  for (int round = 0; round < kSetupRounds; ++round) {
    if (round > 0) d.stop(SIGKILL);
    const std::int64_t begin = nowNs();
    d = deploy(w, opt, opt.workDir + "/round" + std::to_string(round));
    setupS.push_back(static_cast<double>(nowNs() - begin) / 1e9);
  }

  RunState rs;
  // A traced run reports no rss_mb, so it never extends its window.
  rs.rss.target = opt.trace ? 0 : w.rssUnits;
  rs.rss.read = [&d] {
    double mb = 0.0;
    for (const auto& daemon : d.daemons) mb += daemon->peakRssMb();
    return mb;
  };
  driveLoad(w, opt, d, rs);

  // Daemon-side evidence, before anything is stopped.
  if (!rs.rss.taken.exchange(true)) {
    rs.rss.mb = rs.rss.read();
    rs.report += "rss_mb read at the end: only " +
                 std::to_string(rs.rss.units.load()) + " of " +
                 std::to_string(rs.rss.target) + " units done\n";
  }
  const double rssMb = rs.rss.mb;
  std::size_t processes = 0;
  for (const auto& daemon : d.daemons)
    processes += 1 + daemon->children().size();
  const Scrape counters = scrape(perfbench::scrapeStats(d.endpoint));
  collectTranscripts(d, rs);
  std::string probeError;
  SpanLog probeLog(kStreams + 1);
  const BatchSpec shape = probeSpec(w, opt.seed);
  if (opt.trace)
    probeRepl(probeLog, d.endpoint, shape, opt.seed, probeError);
  d.stop(SIGTERM);

  std::vector<double> latMs, tracedLatMs;
  double elapsedS = 0.0;
  std::uint64_t units = 0;
  checkOutputs(w, opt, d, rs, latMs, tracedLatMs, elapsedS, units);

  // End-to-end figures (in a traced run: its untraced blocks).
  const char* latName = w.batch ? "batch_ms" : "ack_ms";
  const std::string tailName =
      std::string(latName) + "_p" +
      std::to_string(static_cast<int>(std::lround(w.tail * 100)));
  const double p50 = perfbench::median(latMs);
  const double tail = perfbench::quantile(latMs, w.tail);
  // Diagnostic only: the same figures with short host bursts filtered out.
  std::size_t p50Chunks = 0, tailChunks = 0;
  const double chunkedP50 = perfbench::chunkedQuantile(latMs, 0.5, p50Chunks);
  const double chunkedTail =
      perfbench::chunkedQuantile(latMs, w.tail, tailChunks);
  const double throughput =
      elapsedS > 0 ? static_cast<double>(units) / elapsedS : 0.0;
  const double setup = perfbench::median(setupS);

  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  const Put put = [&](const std::string& name, double value) {
    for (const auto& decl : opt.trace ? kPerLayer : kEndToEnd)
      if (name == decl.name) {
        metrics.push_back({name, {value, decl.unit}});
        return;
      }
    throw std::logic_error("undeclared metric " + name);
  };
  if (opt.trace) {
    layerMetrics(w, opt, rs, probeLog, shape, counters, p50,
                 perfbench::median(tracedLatMs), probeError, put);
    if (!probeError.empty()) {
      ++rs.failed;
      rs.report += "probe: " + probeError + "\n";
    }
  } else {
    put("setup_s", setup);
    put("rss_mb", rssMb);
    put("latency_ms_p50", p50);
  }

  log << "perfbench " << w.name << " seed " << opt.seed
      << (opt.trace ? " (traced)" : "") << ": " << rs.attempted << " "
      << (w.batch ? "requests" : "mutations") << " attempted, " << rs.failed
      << " failed (fail_ratio "
      << static_cast<double>(rs.failed) /
             static_cast<double>(std::max<std::uint64_t>(1, rs.attempted))
      << ")\n"
      << "  " << latName << "_p50 " << fixed(p50) << " ms (n=" << latMs.size()
      << "; median of " << p50Chunks << " chunks " << fixed(chunkedP50)
      << ")\n"
      << "  " << tailName << " " << fixed(tail) << " ms ("
      << perfbench::samplesBeyond(latMs, w.tail) << " samples beyond; median of "
      << tailChunks << " chunks of " << latMs.size() / tailChunks << " samples "
      << fixed(chunkedTail) << ")\n"
      << "  " << (w.batch ? "instances_per_s " : "acks_per_s ")
      << fixed(throughput, 1) << " 1/s over " << fixed(elapsedS, 2) << " s\n"
      << "  setup_s " << fixed(setup, 4) << " s (median of " << setupS.size()
      << ")\n"
      << "  rss_mb " << fixed(rssMb, 1) << " MiB (VmHWM over " << processes
      << " daemon processes, read after " << rs.rss.target << " "
      << (w.batch ? "instances" : "acks") << ")\n"
      << "  daemon counters: shard retries " << counters.retries << " of "
      << counters.shards << " shards; worker crashes " << counters.crashes
      << "; shed " << counters.shed << " of " << counters.requests
      << " requests; worker-cache hits " << counters.cacheHits << " of "
      << counters.cacheHits + counters.cacheMisses
      << " lookups seen by the stats frame; admission rejections "
      << counters.rejected << " of " << counters.accepted + counters.rejected
      << " mutations\n";
  if (opt.trace)
    log << "  traced: " << tracedLatMs.size() << " ops traced, "
        << latMs.size() << " untraced\n";
  log << rs.report << "  wall "
      << fixed(std::chrono::duration<double>(perfbench::Clock::now() -
                                             wallStart)
                   .count(),
               2)
      << " s\n";

  std::cout << "{\"correct\": " << (rs.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << std::max<std::uint64_t>(1, rs.attempted)
            << ", \"failed\": " << rs.failed << ", \"metrics\": {";
  for (std::size_t k = 0; k < metrics.size(); ++k) {
    const auto& [value, unit] = metrics[k].second;
    std::cout << (k ? ", " : "") << "\"" << metrics[k].first
              << "\": {\"value\": " << std::setprecision(17)
              << (std::isfinite(value) ? value : 0.0) << ", \"unit\": \""
              << unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return rs.failed == 0 ? 0 : 1;
}

std::optional<std::string> option(const std::vector<std::string>& args,
                                  const std::string& name) {
  for (std::size_t k = 0; k + 1 < args.size(); ++k)
    if (args[k] == name) return args[k + 1];
  return std::nullopt;
}

bool flag(const std::vector<std::string>& args, const std::string& name) {
  return std::find(args.begin(), args.end(), name) != args.end();
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  // The daemons and the in-process probes run in their default
  // configuration, whatever the caller's environment asks for.
  for (const char* name : {"RFSM_CHAOS", "RFSM_ENDPOINTS", "RFSM_METRICS",
                           "RFSM_PLAN_CACHE", "RFSM_TRACE", "RFSM_TRACE_OUT"})
    ::unsetenv(name);
  try {
    if (flag(args, "--list-metrics")) {
      for (const MetricDecl& m : kEndToEnd)
        std::cout << "end_to_end " << m.name << " " << m.unit << "\n";
      for (const MetricDecl& m : kPerLayer)
        std::cout << "per_layer " << m.name << " " << m.unit << "\n";
      return 0;
    }
    Options opt;
    opt.workload = option(args, "--workload").value_or("");
    opt.seed = std::stoull(option(args, "--seed").value_or("1"));
    std::optional<Workload> workload;
    for (const Workload& w : allWorkloads())
      if (w.name == opt.workload) workload = w;
    if (!workload.has_value()) {
      std::cerr << "perfbench_client: unknown workload '" << opt.workload
                << "'\n";
      return 64;
    }
    if (flag(args, "--digest")) {
      std::cout << std::hex << inputDigest(*workload, opt.seed) << "\n";
      return 0;
    }
    opt.seconds = std::stod(option(args, "--seconds").value_or("10"));
    opt.trace = option(args, "--trace").value_or("0") == "1";
    opt.rfsmd = option(args, "--rfsmd").value_or("");
    opt.workDir = option(args, "--work-dir").value_or("");
    opt.traceOut = option(args, "--trace-out").value_or("");
    if (opt.rfsmd.empty() || opt.workDir.empty() || opt.seconds <= 0) {
      std::cerr << "perfbench_client: needs --rfsmd, --work-dir, --seconds\n";
      return 64;
    }
    // Worker processes re-parent to this process when their daemon exits,
    // so every one of them can be reaped here.
    ::prctl(PR_SET_CHILD_SUBREAPER, 1);
    return run(*workload, opt);
  } catch (const std::exception& error) {
    std::cerr << "perfbench_client: " << error.what() << "\n";
    return 2;
  }
}
