// A18 — Deterministic chaos sweep: the full service topology under the
// seeded disk/network fault plane (util/chaos.hpp), proving the robustness
// contract end to end.  Four cells:
//
//  * a net-chaos fabric grid — a real service::Server (spawning rfsmd
//    workers) behind a fabric client, with the wire fault plane armed at
//    (seed x profile); every cell must answer OK with programs
//    bit-identical to the clean in-process planRange reference, and every
//    injection the plane journaled must be visible in
//    service.chaos_net_faults (faults are never absorbed silently);
//  * a replay-determinism cell — the same seeded schedule is driven twice
//    over a single-threaded frame workload; the plane's journal digests
//    must match exactly (same seed = same schedule), and a different seed
//    must diverge;
//  * a corrupt-frame cell — with bit corruption forced on every frame, the
//    CRC32C trailer must reject 100% of them as typed FrameErrors
//    (service.frames_rejected counts each); a corrupted payload must never
//    be returned to the caller;
//  * a disk-chaos kill/restart cell — a real rfsmd runs with
//    `--chaos <seed>:disk-storm`, a session streams mutations through
//    journal-append failures (each refused un-acked and retried), the
//    daemon is SIGKILLed mid-stream and restarted over the same state dir
//    under the same chaos spec; the resumed transcript must be
//    byte-identical to an uninterrupted SessionEngine reference, no acked
//    mutation may be lost, retries must stay bounded, and the daemon's
//    scraped service.chaos_disk_faults must show the injections landed.
//
// The binary exits 1 when any cell breaks its contract.  `--smoke`
// shrinks the grid for the CI regression gate.
#include "common.hpp"

#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <thread>
#include <utility>
#include <vector>

#include "service/client.hpp"
#include "service/fabric.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/session.hpp"
#include "util/chaos.hpp"
#include "util/ipc.hpp"
#include "util/table.hpp"
#include "rfsmd_harness.hpp"

namespace rfsm::bench {
namespace {

using namespace std::chrono_literals;

std::uint64_t counterValue(const char* name) {
  return metrics::counter(name).value();
}

struct SocketPair {
  ipc::Fd a;
  ipc::Fd b;
  SocketPair() {
    int fds[2] = {-1, -1};
    RFSM_CHECK(socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0,
               "socketpair failed");
    a = ipc::Fd(fds[0]);
    b = ipc::Fd(fds[1]);
  }
};

// --- Net-chaos fabric grid ------------------------------------------------

service::BatchSpec sweepSpec(bool smoke) {
  service::BatchSpec spec;
  spec.stateCount = 8;
  spec.inputCount = 2;
  spec.outputCount = 2;
  spec.deltaCount = 6;
  spec.newStateCount = 1;
  spec.instanceCount = smoke ? 8 : 16;
  spec.seed = 0xA18;
  spec.planner = "greedy";
  return spec;
}

struct NetCell {
  std::uint64_t seed = 0;
  std::string profile;
  std::string status;
  bool degraded = false;
  bool bitIdentical = false;
  std::uint64_t injected = 0;       ///< the plane's own injection count
  std::uint64_t counterDelta = 0;   ///< service.chaos_net_faults delta
  bool accounted = false;           ///< counterDelta == injected
  double wallMs = 0.0;
};

NetCell runNetCell(std::uint64_t seed, const std::string& profileName,
                   const service::BatchSpec& spec,
                   const std::vector<std::string>& reference) {
  NetCell cell;
  cell.seed = seed;
  cell.profile = profileName;
  const std::uint64_t before = counterValue(metrics::kServiceChaosNetFaults);

  // The server starts clean (worker prefork and warm-up undisturbed) so
  // that everything the cell observes is the armed plane's doing; workers
  // are separate processes without RFSM_CHAOS, so the server side of each
  // worker channel and both sides of the client channel take the faults.
  RunningServer server(
      freshSocketPath(std::to_string(seed) + "-" + profileName));
  service::FabricOptions options;
  options.endpoints = {ipc::parseEndpoint(server.path)};
  options.jobs = 2;
  options.backoffBase = 1ms;
  options.backoffCap = 10ms;
  service::Fabric fabric(std::move(options));

  chaos::plane().arm(seed, *chaos::profileByName(profileName));
  std::ostringstream err;
  const auto start = std::chrono::steady_clock::now();
  const service::ClientResult result = fabric.plan(spec, err);
  cell.wallMs = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  chaos::plane().disarm();

  cell.status = toString(result.status);
  cell.degraded = result.degraded;
  cell.bitIdentical = result.status == WorkResult::Status::kOk &&
                      result.programs == reference;
  cell.injected = chaos::plane().injectedNet();
  cell.counterDelta = counterValue(metrics::kServiceChaosNetFaults) - before;
  cell.accounted = cell.counterDelta == cell.injected;
  return cell;
}

// --- Replay determinism ---------------------------------------------------

struct ScheduleRun {
  std::uint64_t digest = 0;
  std::uint64_t injected = 0;
};

/// One single-threaded seeded frame workload: the consultation sequence is
/// a pure function of the injected faults, which are a pure function of
/// the seed — so the journal digest must reproduce exactly.
ScheduleRun runSchedule(std::uint64_t seed, int rounds) {
  chaos::plane().arm(seed, *chaos::profileByName("net-storm"));
  for (int round = 0; round < rounds; ++round) {
    SocketPair pair;
    const std::string payload =
        "chaos-determinism-" + std::to_string(round);
    try {
      ipc::writeFrame(pair.a.get(), payload);
      std::string read;
      (void)ipc::readFrame(pair.b.get(), read);
    } catch (const ipc::IpcError&) {
      // Injected reset / partial / corruption — part of the schedule.
    }
  }
  chaos::plane().disarm();
  return {chaos::plane().journalDigest(), chaos::plane().injectedNet()};
}

// --- Corrupt-frame cell ---------------------------------------------------

struct CorruptCell {
  int frames = 0;
  int rejected = 0;            ///< typed FrameError rejections
  int poisoned = 0;            ///< corrupted payloads returned as good
  std::uint64_t counterDelta = 0;  ///< service.frames_rejected delta
};

CorruptCell runCorruptCell(int frames) {
  CorruptCell cell;
  cell.frames = frames;
  const std::uint64_t before = counterValue(metrics::kServiceFramesRejected);
  chaos::Profile always;
  always.name = "corrupt-always";
  always.corruptProbability = 1.0;
  chaos::plane().arm(0xC0DE, always);
  for (int k = 0; k < frames; ++k) {
    SocketPair pair;
    const std::string payload = "poison-candidate-" + std::to_string(k);
    ipc::writeFrame(pair.a.get(), payload);  // ships with one bit flipped
    std::string read;
    try {
      (void)ipc::readFrame(pair.b.get(), read);
      if (read != payload) ++cell.poisoned;  // corruption served as truth
    } catch (const ipc::FrameError&) {
      ++cell.rejected;
    }
  }
  chaos::plane().disarm();
  cell.counterDelta = counterValue(metrics::kServiceFramesRejected) - before;
  return cell;
}

// --- Disk-chaos kill/restart/resume cell ----------------------------------

service::SessionConfig killConfig() {
  service::SessionConfig config;
  config.tenant = "chaos";
  config.name = "stream";
  config.stateCount = 8;
  config.inputCount = 2;
  config.outputCount = 2;
  config.seed = 0xA18;
  config.planner = "jsr";
  return config;
}

/// The shared mutation schedule: odd seqs defer (compacted into the next
/// even flush), the final seq always flushes.
service::MutationRecord scheduledMut(std::uint64_t k, std::uint64_t total) {
  service::MutationRecord rec;
  rec.seq = k;
  rec.deltaCount = 3;
  rec.mutationSeed = 0xA18000 + k;
  rec.defer = k % 2 == 1 && k != total;
  return rec;
}

struct Daemon {
  pid_t pid = -1;

  bool start(const std::string& socketPath, const std::string& stateDir,
             const std::string& chaosSpec) {
    pid = fork();
    if (pid == -1) return false;
    if (pid == 0) {
      const std::string binary = rfsmdPath();
      ::execl(binary.c_str(), binary.c_str(), "--socket", socketPath.c_str(),
              "--state-dir", stateDir.c_str(), "--workers", "1",
              "--snapshot-every", "2", "--chaos", chaosSpec.c_str(),
              static_cast<char*>(nullptr));
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

/// The daemon's service.chaos_disk_faults value, scraped over the stats
/// frame (0 when the scrape fails — the caller treats that as undetected).
std::uint64_t scrapeDiskFaults(const std::string& socketPath) {
  try {
    const auto reply = service::exchangeEndpoint(
        ipc::parseEndpoint(socketPath), service::encodeStatsRequest(), 5000);
    if (!reply.has_value()) return 0;
    const service::StatsResponse stats =
        service::decodeStatsResponse(*reply);
    for (const auto& counter : stats.metrics.counters)
      if (counter.name == metrics::kServiceChaosDiskFaults)
        return counter.value;
  } catch (const Error&) {
  }
  return 0;
}

struct KillCell {
  bool ok = false;
  bool byteIdentical = false;
  bool ackedPreserved = false;   ///< resume >= highest pre-kill acked seq
  bool retriesBounded = false;
  bool faultsDetected = false;   ///< daemon-side chaos_disk_faults > 0
  std::uint64_t resumedAt = 0;
  std::uint64_t retries = 0;     ///< refused-unacked resends absorbed
  std::uint64_t diskFaults = 0;  ///< scraped across both daemon lives
  std::string detail;
};

KillCell runKillCell(bool smoke) {
  KillCell cell;
  const std::uint64_t kMutations = smoke ? 8 : 12;
  const std::uint64_t kKillAfter = kMutations / 2;
  // Per-seq resend budget: disk-storm refuses roughly a third of appends,
  // so a handful of attempts converges; 80 is an order of magnitude of
  // headroom while still proving boundedness.
  const std::uint64_t kMaxAttempts = 80;
  const std::string chaosSpec = "29:disk-storm";
  const service::SessionConfig config = killConfig();

  std::vector<std::pair<std::uint64_t, std::string>> reference;
  {
    service::SessionEngine engine(config);
    for (std::uint64_t k = 1; k <= kMutations; ++k) {
      const service::PlanOutcome outcome =
          engine.apply(scheduledMut(k, kMutations));
      if (outcome.planned) reference.emplace_back(k, outcome.program);
    }
  }

  const TempDir stateDir;
  if (stateDir.path.empty()) {
    cell.detail = "mkdtemp failed";
    return cell;
  }
  const std::string socketPath = stateDir.path + "/rfsmd.sock";

  std::vector<std::pair<std::uint64_t, std::string>> transcript;
  std::uint64_t maxAcked = 0;

  // Streams [from, to]; an injected journal-append failure answers kFailed
  // with the mutation refused un-acked, so the same seq is resent until it
  // lands (RESOURCE_EXHAUSTED honours the retry hint).
  const auto streamRange = [&](service::SessionStream& stream,
                               std::uint64_t from, std::uint64_t to) -> bool {
    for (std::uint64_t k = from; k <= to; ++k) {
      const service::SessionMutateRequest request =
          service::mutateRequestFor(config, scheduledMut(k, kMutations));
      std::uint64_t attempts = 0;
      while (true) {
        if (++attempts > kMaxAttempts) {
          cell.detail = "retry budget exhausted at seq " +
                        std::to_string(k);
          return false;
        }
        const auto response = stream.mutate(request);
        if (response.status == service::SessionStatus::kOk ||
            response.status == service::SessionStatus::kAccepted) {
          if (response.status == service::SessionStatus::kOk)
            transcript.emplace_back(k, response.program);
          maxAcked = std::max(maxAcked, k);
          break;
        }
        ++cell.retries;
        if (response.status ==
            service::SessionStatus::kResourceExhausted) {
          std::this_thread::sleep_for(std::chrono::milliseconds(
              std::max<std::int64_t>(1, response.retryAfterMs)));
          continue;
        }
        if (response.status == service::SessionStatus::kFailed) {
          std::this_thread::sleep_for(2ms);
          continue;  // refused un-acked (journal append died); resend
        }
        cell.detail = "unexpected status " + std::string(toString(
                          response.status)) + " at seq " + std::to_string(k);
        return false;
      }
    }
    return true;
  };

  // The open persists session state too, so disk-storm can refuse it the
  // same way it refuses appends — resend under the same bounded budget.
  const auto openWithRetry =
      [&](service::SessionStream& stream) -> service::SessionOpenResponse {
    service::SessionOpenResponse response;
    for (std::uint64_t attempt = 0; attempt < kMaxAttempts; ++attempt) {
      response = stream.open(openRequestFor(config));
      if (response.status == service::SessionStatus::kOk) return response;
      ++cell.retries;
      std::this_thread::sleep_for(std::chrono::milliseconds(
          std::max<std::int64_t>(2, response.retryAfterMs)));
    }
    return response;
  };

  service::SessionStream::Options streamOptions;
  streamOptions.endpoint = ipc::parseEndpoint(socketPath);
  streamOptions.retryFor = 15s;

  Daemon daemon;
  if (!daemon.start(socketPath, stateDir.path, chaosSpec)) {
    cell.detail = "rfsmd did not start";
    return cell;
  }
  try {
    service::SessionStream stream(streamOptions);
    if (openWithRetry(stream).status != service::SessionStatus::kOk) {
      cell.detail = "open failed";
      return cell;
    }
    if (!streamRange(stream, 1, kKillAfter)) return cell;
    cell.diskFaults += scrapeDiskFaults(socketPath);
  } catch (const Error& error) {
    cell.detail = error.what();
    return cell;
  }
  daemon.sigkill();

  Daemon restarted;
  if (!restarted.start(socketPath, stateDir.path, chaosSpec)) {
    cell.detail = "rfsmd did not restart";
    return cell;
  }
  try {
    service::SessionStream stream(streamOptions);
    const auto resumed = openWithRetry(stream);
    if (resumed.status != service::SessionStatus::kOk) {
      cell.detail = "resume open failed";
      return cell;
    }
    cell.resumedAt = resumed.lastApplied;
    cell.ackedPreserved = resumed.lastApplied >= maxAcked;
    if (!cell.ackedPreserved) {
      cell.detail = "acked seq " + std::to_string(maxAcked) +
                    " lost (resumed at " + std::to_string(resumed.lastApplied) +
                    ")";
      return cell;
    }
    if (!streamRange(stream, resumed.lastApplied + 1, kMutations))
      return cell;
    cell.diskFaults += scrapeDiskFaults(socketPath);
  } catch (const Error& error) {
    cell.detail = error.what();
    return cell;
  }

  cell.ok = true;
  cell.byteIdentical = transcript == reference;
  if (!cell.byteIdentical) cell.detail = "transcript diverged";
  cell.retriesBounded = true;  // streamRange enforced kMaxAttempts
  cell.faultsDetected = cell.diskFaults > 0;
  if (cell.faultsDetected == false && cell.detail.empty())
    cell.detail = "no injected disk fault surfaced in counters";
  return cell;
}

// --- Artifact -------------------------------------------------------------

std::string formatMs(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.2f", value);
  return buffer;
}

std::string hex64(std::uint64_t value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

bool printArtifact(bool smoke) {
  banner("A18", "Chaos sweep - seeded disk/wire faults vs invariants");
  const service::BatchSpec spec = sweepSpec(smoke);
  chaos::plane().disarm();  // the reference is the clean run, by definition
  const std::vector<std::string> reference =
      service::planRange(spec, 0, spec.instanceCount);

  // Net-chaos fabric grid.
  const std::vector<std::uint64_t> seeds =
      smoke ? std::vector<std::uint64_t>{7}
            : std::vector<std::uint64_t>{7, 11};
  const std::vector<std::string> profiles = {"net-light", "net-storm"};
  bool netHolds = true;
  Table netTable({"seed", "profile", "status", "degraded", "bit-identical",
                  "injected", "counted", "wall ms"});
  for (const std::uint64_t seed : seeds)
    for (const std::string& profile : profiles) {
      const NetCell cell = runNetCell(seed, profile, spec, reference);
      // net-light may legitimately schedule zero faults for a short run;
      // net-storm disturbing nothing means the hooks are dead.
      const bool mustInject = profile == "net-storm";
      const bool holds = cell.bitIdentical && cell.accounted &&
                         (!mustInject || cell.injected > 0);
      netHolds = netHolds && holds;
      netTable.addRow({std::to_string(seed), profile, cell.status,
                       cell.degraded ? "yes" : "no",
                       cell.bitIdentical ? "YES" : "NO",
                       std::to_string(cell.injected),
                       cell.accounted ? "all" : "MISSING",
                       formatMs(cell.wallMs)});
    }
  std::cout << "\nnet-chaos fabric grid (real server + rfsmd workers, one "
               "fabric client;\nreference = clean in-process planRange):\n"
            << netTable.toMarkdown();

  // Replay determinism.
  const int rounds = smoke ? 24 : 48;
  const ScheduleRun first = runSchedule(101, rounds);
  const ScheduleRun second = runSchedule(101, rounds);
  const ScheduleRun other = runSchedule(202, rounds);
  const bool replayHolds = first.digest == second.digest &&
                           first.injected == second.injected &&
                           first.digest != other.digest;
  std::cout << "\nreplay-determinism cell (net-storm, " << rounds
            << " single-threaded frames):\n"
            << "  seed 101 run 1: digest " << hex64(first.digest) << ", "
            << first.injected << " injected\n"
            << "  seed 101 run 2: digest " << hex64(second.digest) << ", "
            << second.injected << " injected\n"
            << "  seed 202:       digest " << hex64(other.digest) << "\n"
            << "  verdict: "
            << (replayHolds ? "SCHEDULE REPLAYS EXACTLY"
                            : "SCHEDULE DIVERGED")
            << "\n";

  // Corrupt-frame cell.
  const CorruptCell corrupt = runCorruptCell(smoke ? 12 : 24);
  const bool corruptHolds = corrupt.rejected == corrupt.frames &&
                            corrupt.poisoned == 0 &&
                            corrupt.counterDelta ==
                                static_cast<std::uint64_t>(corrupt.frames);
  std::cout << "\ncorrupt-frame cell (bit flip forced on every frame):\n"
            << "  " << corrupt.rejected << "/" << corrupt.frames
            << " rejected as FrameError, " << corrupt.poisoned
            << " corrupted payloads served, frames_rejected +"
            << corrupt.counterDelta << "\n"
            << "  verdict: "
            << (corruptHolds ? "NO CORRUPTION SERVED" : "CORRUPTION LEAKED")
            << "\n";

  // Disk-chaos kill/restart cell.
  const KillCell kill = runKillCell(smoke);
  const bool killHolds = kill.ok && kill.byteIdentical &&
                         kill.ackedPreserved && kill.retriesBounded &&
                         kill.faultsDetected;
  std::cout << "\ndisk-chaos kill/restart cell (rfsmd --chaos 29:disk-storm, "
               "SIGKILL mid-stream):\n"
            << "  resumed at seq " << kill.resumedAt << ", " << kill.retries
            << " refused-unacked resends, " << kill.diskFaults
            << " injected disk faults scraped\n"
            << "  transcript "
            << (kill.byteIdentical
                    ? "BYTE-IDENTICAL to uninterrupted reference"
                    : std::string("DIVERGED (") +
                          (kill.detail.empty() ? "?" : kill.detail) + ")")
            << "\n";

  const bool holds = netHolds && replayHolds && corruptHolds && killHolds;
  std::cout << "\ninvariant sweep: "
            << (holds ? "ALL CELLS HOLD" : "CONTRACT BROKEN") << "\n";

  // Deterministic replay evidence for the sidecar: digests and the
  // corrupt-cell tally are pure functions of seed + workload, so two CI
  // runs of the same binary must publish identical values.
  std::ostringstream extra;
  extra << "\"chaos\": {\n"
        << "    \"replay_digest\": \"" << hex64(first.digest) << "\",\n"
        << "    \"replay_injected\": " << first.injected << ",\n"
        << "    \"frames_rejected\": " << corrupt.counterDelta << ",\n"
        << "    \"net_cells_bit_identical\": " << (netHolds ? "true" : "false")
        << ",\n"
        << "    \"kill_cell_byte_identical\": "
        << (kill.byteIdentical ? "true" : "false") << "\n"
        << "  }";
  sidecarExtra() = extra.str();

  printTelemetry(artifactJobs());
  // Chaos disturbs every latency on purpose (a 10% stall rate moves p99 by
  // integer multiples), so the gated histogram/timer sections would flake
  // any tools/bench_diff.py comparison of two honest runs.  The sidecar
  // keeps the counters and the deterministic "chaos" section only.
  lastSnapshot().timers.clear();
  lastSnapshot().histograms.clear();
  lastSnapshot().rolling.clear();
  lastSnapshot().gauges.clear();
  return holds;
}

// --- Timing loops ---------------------------------------------------------

void frameExchangeBench(benchmark::State& state) {
  // range(0): 0 = plane disarmed (the zero-cost claim), 1 = armed with the
  // all-zero "off" profile (the enabled-but-silent draw cost).
  if (state.range(0) == 1)
    chaos::plane().arm(1, *chaos::profileByName("off"));
  else
    chaos::plane().disarm();
  SocketPair pair;
  const std::string payload(256, 'x');
  std::string read;
  for (auto _ : state) {
    ipc::writeFrame(pair.a.get(), payload);
    (void)ipc::readFrame(pair.b.get(), read);
    benchmark::DoNotOptimize(read);
  }
  chaos::plane().disarm();
  state.SetLabel(state.range(0) == 1 ? "plane armed, profile off"
                                     : "plane disarmed");
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(frameExchangeBench)->Arg(0)->Arg(1);

void crc32cBench(benchmark::State& state) {
  const std::string payload(static_cast<std::size_t>(state.range(0)), 'y');
  for (auto _ : state)
    benchmark::DoNotOptimize(ipc::crc32c(payload));
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(crc32cBench)->Arg(64)->Arg(4096)->Arg(1 << 20);

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
