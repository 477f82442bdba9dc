// A16 — Multi-tenant session sweep: the streaming session layer under
// offered load, crash/restart, and tenant contention.  Three artifacts:
//
//  * an arrival-rate sweep — one tenant streams mutations at increasing
//    offered rates against token-bucket admission control; each rate's
//    goodput and completion-latency p50/p99 (from scheduled arrival to
//    applied plan, so queueing and admission backoff count) form the
//    goodput/latency curves published in the BENCH_*.json sidecar under
//    "curves" for tools/bench_diff.py to gate on;
//  * a kill/restart/resume cell — a real rfsmd is SIGKILLed mid-stream,
//    restarted over the same state dir, and the resumed transcript is
//    compared byte-for-byte against an uninterrupted SessionEngine
//    reference;
//  * a starved-tenant cell — aggressor tenants flood mutations at ~10x the
//    victim's rate; weighted-fair scheduling must keep the victim's p99
//    within a bound of its uncontended latency.
//
// The binary exits 1 when recovery is not byte-identical or the fairness
// bound breaks.  `--smoke` shrinks the grid for the CI regression gate.
#include "common.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "service/protocol.hpp"
#include "service/session.hpp"
#include "util/ipc.hpp"
#include "util/table.hpp"
#include "rfsmd_harness.hpp"

namespace rfsm::bench {
namespace {

using namespace std::chrono_literals;
using service::MutationRecord;
using service::PlanOutcome;
using service::SessionConfig;
using service::SessionEngine;
using service::SessionService;
using service::SessionServiceOptions;
using service::SessionStatus;

SessionConfig sessionConfig(const std::string& tenant,
                            const std::string& name) {
  SessionConfig config;
  config.tenant = tenant;
  config.name = name;
  config.stateCount = 8;
  config.inputCount = 2;
  config.outputCount = 2;
  config.seed = 0xA16;
  config.planner = "jsr";
  return config;
}

MutationRecord mutationFor(std::uint64_t seq, bool defer = false) {
  MutationRecord rec;
  rec.seq = seq;
  rec.deltaCount = 3;
  rec.mutationSeed = 0xA16000 + seq;
  rec.defer = defer;
  return rec;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t index = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(index, values.size() - 1)];
}

// --- Arrival-rate sweep ---------------------------------------------------

struct RatePoint {
  double offered = 0.0;   ///< mutations/second scheduled
  double goodput = 0.0;   ///< mutations/second applied
  double p50Ms = 0.0;     ///< completion latency, arrival -> applied
  double p99Ms = 0.0;
  std::uint64_t rejections = 0;  ///< RESOURCE_EXHAUSTED verdicts absorbed
};

/// One open-loop cell: mutations arrive on a fixed schedule; an admission
/// rejection backs off per the retryAfterMs hint and resends the same seq
/// (sessions are strictly sequential), so saturation shows up as latency,
/// not lost work.
RatePoint runRate(double offeredPerSec, std::uint64_t mutations,
                  double admitRate) {
  SessionServiceOptions options;
  options.executors = 2;
  options.tenantRate = admitRate;
  options.tenantBurst = 8.0;
  SessionService store(options);
  const SessionConfig config = sessionConfig("sweep", "stream");
  if (store.open(openRequestFor(config)).status != SessionStatus::kOk)
    return {};

  RatePoint point;
  point.offered = offeredPerSec;
  std::vector<double> latenciesMs;
  latenciesMs.reserve(mutations);
  const auto interval = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(1s / offeredPerSec);
  const auto start = std::chrono::steady_clock::now();
  auto arrival = start;
  for (std::uint64_t seq = 1; seq <= mutations; ++seq) {
    std::this_thread::sleep_until(arrival);
    while (true) {
      const auto response =
          store.mutate(mutateRequestFor(config, mutationFor(seq)));
      if (response.status == SessionStatus::kResourceExhausted) {
        ++point.rejections;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(std::max<std::int64_t>(
                1, response.retryAfterMs)));
        continue;
      }
      break;
    }
    latenciesMs.push_back(std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - arrival)
                              .count());
    arrival += interval;
  }
  const double wallSec =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  point.goodput = wallSec > 0.0 ? static_cast<double>(mutations) / wallSec
                                : 0.0;
  point.p50Ms = quantile(latenciesMs, 0.50);
  point.p99Ms = quantile(latenciesMs, 0.99);
  return point;
}

// --- Kill / restart / resume cell -----------------------------------------

struct Daemon {
  pid_t pid = -1;

  bool start(const std::string& socketPath, const std::string& stateDir) {
    pid = fork();
    if (pid == -1) return false;
    if (pid == 0) {
      const std::string binary = rfsmdPath();
      ::execl(binary.c_str(), binary.c_str(), "--socket", socketPath.c_str(),
              "--state-dir", stateDir.c_str(), "--workers", "1",
              "--snapshot-every", "2", static_cast<char*>(nullptr));
      _exit(127);
    }
    for (int spin = 0; spin < 200; ++spin) {
      if (::access(socketPath.c_str(), F_OK) == 0) return true;
      std::this_thread::sleep_for(25ms);
    }
    return false;
  }

  void sigkill() {
    if (pid <= 0) return;
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    pid = -1;
  }

  ~Daemon() { sigkill(); }
};

/// The shared mutation schedule: odd seqs defer (compacted into the next
/// even flush), the final seq always flushes.
MutationRecord scheduledMut(std::uint64_t k, std::uint64_t total) {
  return mutationFor(k, k % 2 == 1 && k != total);
}

struct KillCell {
  bool ok = false;
  bool byteIdentical = false;
  std::uint64_t resumedAt = 0;
  std::string detail;
};

KillCell runKillCell() {
  KillCell cell;
  const std::uint64_t kMutations = 6;
  const std::uint64_t kKillAfter = 3;
  const SessionConfig config = sessionConfig("kill", "stream");

  std::vector<std::pair<std::uint64_t, std::string>> reference;
  {
    SessionEngine engine(config);
    for (std::uint64_t k = 1; k <= kMutations; ++k) {
      const PlanOutcome outcome = engine.apply(scheduledMut(k, kMutations));
      if (outcome.planned) reference.emplace_back(k, outcome.program);
    }
  }

  const TempDir stateDir;
  if (stateDir.path.empty()) {
    cell.detail = "mkdtemp failed";
    return cell;
  }
  const std::string socketPath = stateDir.path + "/rfsmd.sock";

  const auto streamRange =
      [&config](service::SessionStream& stream, std::uint64_t from,
                std::uint64_t to, std::uint64_t total,
                std::vector<std::pair<std::uint64_t, std::string>>*
                    transcript) -> bool {
    for (std::uint64_t k = from; k <= to; ++k) {
      const auto response =
          stream.mutate(mutateRequestFor(config, scheduledMut(k, total)));
      if (response.status != SessionStatus::kOk &&
          response.status != SessionStatus::kAccepted)
        return false;
      if (response.status == SessionStatus::kOk)
        transcript->emplace_back(k, response.program);
    }
    return true;
  };

  std::vector<std::pair<std::uint64_t, std::string>> transcript;
  service::SessionStream::Options streamOptions;
  streamOptions.endpoint = ipc::parseEndpoint(socketPath);
  streamOptions.retryFor = 15s;

  Daemon daemon;
  if (!daemon.start(socketPath, stateDir.path)) {
    cell.detail = "rfsmd did not start";
    return cell;
  }
  try {
    service::SessionStream stream(streamOptions);
    if (stream.open(openRequestFor(config)).status != SessionStatus::kOk) {
      cell.detail = "open failed";
      return cell;
    }
    if (!streamRange(stream, 1, kKillAfter, kMutations, &transcript)) {
      cell.detail = "pre-kill stream failed";
      return cell;
    }
  } catch (const Error& error) {
    cell.detail = error.what();
    return cell;
  }
  daemon.sigkill();

  Daemon restarted;
  if (!restarted.start(socketPath, stateDir.path)) {
    cell.detail = "rfsmd did not restart";
    return cell;
  }
  try {
    service::SessionStream stream(streamOptions);
    const auto resumed = stream.open(openRequestFor(config));
    if (resumed.status != SessionStatus::kOk) {
      cell.detail = "resume open failed";
      return cell;
    }
    cell.resumedAt = resumed.lastApplied;
    if (!streamRange(stream, resumed.lastApplied + 1, kMutations, kMutations,
                     &transcript)) {
      cell.detail = "post-restart stream failed";
      return cell;
    }
  } catch (const Error& error) {
    cell.detail = error.what();
    return cell;
  }

  cell.ok = true;
  cell.byteIdentical = transcript == reference;
  if (!cell.byteIdentical) cell.detail = "transcript diverged";
  return cell;
}

// --- Starved-tenant fairness cell -----------------------------------------

struct FairnessCell {
  double victimSoloP99Ms = 0.0;
  double victimContendedP99Ms = 0.0;
  double boundMs = 0.0;
  bool holds = false;
};

std::vector<double> victimLatencies(SessionService& store,
                                    const SessionConfig& victim,
                                    std::uint64_t mutations) {
  std::vector<double> latenciesMs;
  latenciesMs.reserve(mutations);
  for (std::uint64_t k = 1; k <= mutations; ++k) {
    const auto start = std::chrono::steady_clock::now();
    store.mutate(mutateRequestFor(victim, mutationFor(k)));
    latenciesMs.push_back(std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - start)
                              .count());
    std::this_thread::sleep_for(2ms);
  }
  return latenciesMs;
}

FairnessCell runFairnessCell(std::uint64_t victimMutations,
                             std::uint64_t aggressorMutations) {
  FairnessCell cell;
  // Uncontended baseline.
  {
    SessionServiceOptions options;
    options.executors = 2;
    SessionService store(options);
    const SessionConfig victim = sessionConfig("victim", "v");
    store.open(openRequestFor(victim));
    cell.victimSoloP99Ms =
        quantile(victimLatencies(store, victim, victimMutations), 0.99);
  }
  // Contended: three aggressor sessions flood back-to-back mutations (the
  // victim paces itself, so the aggressors offer ~10x its rate).
  SessionServiceOptions options;
  options.executors = 2;
  SessionService store(options);
  std::vector<SessionConfig> aggressors;
  for (int a = 0; a < 3; ++a) {
    aggressors.push_back(
        sessionConfig("aggr", "s" + std::to_string(a)));
    store.open(openRequestFor(aggressors.back()));
  }
  const SessionConfig victim = sessionConfig("victim", "v");
  store.open(openRequestFor(victim));
  std::vector<std::thread> threads;
  threads.reserve(aggressors.size());
  for (const SessionConfig& config : aggressors)
    threads.emplace_back([&store, config, aggressorMutations] {
      for (std::uint64_t k = 1; k <= aggressorMutations; ++k)
        store.mutate(mutateRequestFor(config, mutationFor(k)));
    });
  cell.victimContendedP99Ms =
      quantile(victimLatencies(store, victim, victimMutations), 0.99);
  for (std::thread& t : threads) t.join();

  // Weighted-fair scheduling bounds the victim's wait to a handful of
  // in-flight aggressor items per slot.  The bound is deliberately loose
  // (catastrophic starvation — strict FIFO draining the whole aggressor
  // backlog first — overshoots it by an order of magnitude) so slow CI
  // machines do not flake.
  cell.boundMs = cell.victimSoloP99Ms * 32.0 + 50.0;
  cell.holds = cell.victimContendedP99Ms < cell.boundMs;
  return cell;
}

// --- Artifact -------------------------------------------------------------

std::string formatMs(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.2f", value);
  return buffer;
}

/// Returns true when the kill cell is byte-identical and the fairness
/// bound holds.
bool printArtifact(bool smoke) {
  banner("A16", "Session sweep - arrival rates, crash recovery, fairness");

  const std::vector<double> rates =
      smoke ? std::vector<double>{100.0, 400.0}
            : std::vector<double>{50.0, 100.0, 200.0, 400.0, 800.0};
  const std::uint64_t mutations = smoke ? 60 : 250;
  const double admitRate = 200.0;

  std::vector<RatePoint> points;
  Table table({"offered/s", "goodput/s", "p50 ms", "p99 ms", "rejections"});
  for (const double rate : rates) {
    points.push_back(runRate(rate, mutations, admitRate));
    const RatePoint& point = points.back();
    table.addRow({formatMs(point.offered), formatMs(point.goodput),
                  formatMs(point.p50Ms), formatMs(point.p99Ms),
                  std::to_string(point.rejections)});
  }
  std::cout << "\narrival-rate sweep (one tenant, admission "
            << formatMs(admitRate) << "/s sustained, burst 8, " << mutations
            << " mutations per point):\n"
            << table.toMarkdown();

  const KillCell kill = runKillCell();
  std::cout << "\nkill/restart/resume cell: SIGKILL after 3 of 6 mutations, "
               "restart, resume\n"
            << "  resumed at seq " << kill.resumedAt << ", transcript "
            << (kill.byteIdentical ? "BYTE-IDENTICAL to uninterrupted run"
                                   : std::string("DIVERGED (") +
                                         (kill.detail.empty() ? "?"
                                                              : kill.detail) +
                                         ")")
            << "\n";

  const FairnessCell fairness =
      runFairnessCell(smoke ? 10 : 25, smoke ? 30 : 120);
  std::cout << "\nstarved-tenant cell: 3 aggressor sessions flooding vs one "
               "paced victim\n"
            << "  victim p99 solo " << formatMs(fairness.victimSoloP99Ms)
            << " ms, contended " << formatMs(fairness.victimContendedP99Ms)
            << " ms, bound " << formatMs(fairness.boundMs) << " ms: "
            << (fairness.holds ? "FAIRNESS HOLDS" : "STARVED") << "\n";

  // Publish the curves for tools/bench_diff.py.
  std::ostringstream curves;
  curves << "\"curves\": {\n";
  const auto array = [&curves, &points](const char* key,
                                        auto&& project, bool last = false) {
    curves << "    \"" << key << "\": [";
    for (std::size_t k = 0; k < points.size(); ++k)
      curves << (k ? ", " : "") << project(points[k]);
    curves << "]" << (last ? "" : ",") << "\n";
  };
  array("offered_per_sec", [](const RatePoint& p) { return p.offered; });
  array("goodput_per_sec", [](const RatePoint& p) { return p.goodput; });
  array("p50_ms", [](const RatePoint& p) { return p.p50Ms; });
  array("p99_ms", [](const RatePoint& p) { return p.p99Ms; });
  array("rejections", [](const RatePoint& p) { return p.rejections; },
        /*last=*/true);
  curves << "  }";
  sidecarExtra() = curves.str();

  printTelemetry(artifactJobs());
  return kill.ok && kill.byteIdentical && fairness.holds;
}

void sessionMutateBench(benchmark::State& state) {
  SessionServiceOptions options;
  options.executors = static_cast<int>(state.range(0));
  SessionService store(options);
  const SessionConfig config = sessionConfig("bench", "stream");
  store.open(openRequestFor(config));
  std::uint64_t seq = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store.mutate(mutateRequestFor(config, mutationFor(++seq))));
  }
  state.SetLabel("streamed mutate -> plan, in-process");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(sessionMutateBench)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

void sessionCompactionBench(benchmark::State& state) {
  // Deferred run of `range` mutations flushed by one plan: measures what
  // compaction saves over planning each mutation individually.
  SessionServiceOptions options;
  options.executors = 1;
  SessionService store(options);
  const SessionConfig config = sessionConfig("bench", "compact");
  store.open(openRequestFor(config));
  std::uint64_t seq = 0;
  const std::uint64_t run = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    for (std::uint64_t k = 1; k < run; ++k)
      store.mutate(
          mutateRequestFor(config, mutationFor(++seq, /*defer=*/true)));
    benchmark::DoNotOptimize(
        store.mutate(mutateRequestFor(config, mutationFor(++seq))));
  }
  state.SetLabel("deferred run compacted into one plan");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(run));
}
BENCHMARK(sessionCompactionBench)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rfsm::bench

int main(int argc, char** argv) {
  const std::string jsonOut = rfsm::bench::stripJsonOutFlag(argc, argv);
  bool smoke = false;
  int kept = 1;
  for (int k = 1; k < argc; ++k) {
    if (std::string(argv[k]) == "--smoke")
      smoke = true;
    else
      argv[kept++] = argv[k];
  }
  argc = kept;
  const auto artifactStart = std::chrono::steady_clock::now();
  const bool contractHolds = rfsm::bench::printArtifact(smoke);
  const double artifactMs =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - artifactStart)
          .count();
  if (!jsonOut.empty() &&
      !rfsm::bench::writeBenchJson(jsonOut, argv[0], artifactMs))
    return 1;
  if (!contractHolds) return 1;
  if (smoke) return 0;  // regression gate: artifact only, no timings
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
