// A15 — Plan-cache sweep: the content-addressed plan-result cache across
// every consumer (in-process planRange at two job counts, an rfsmd server,
// the fabric, and the fabric's full degradation ladder), proving two
// contracts at once:
//
//   * correctness — warm (cache-hit) output is bit-identical to the cold
//     run and to a cache-disabled reference, for every rung and job count,
//     and the warm run actually hit (nonzero service.plan_cache_hits);
//   * poisoning defense — a deliberately tampered cache entry is detected
//     by the sampled quorum check, quarantined, recomputed, and never
//     served (the tampered cell's output still matches the reference and
//     service.plan_cache_poisoned goes up).
//
// The timing half records per-call latencies of cold (cache cleared each
// call) and warm (fully cached) planRange into bench.plan_cold/_warm
// histograms — the sidecar carries their p99s, and the binary exits 1
// unless warm p99 < cold p99.  Exit 1 likewise when any correctness or
// poisoning cell fails, so CI needs no output parsing.  `--smoke` shrinks
// the batch for the CI gate.
#include "common.hpp"

#include <unistd.h>

#include <thread>
#include <vector>

#include "service/fabric.hpp"
#include "service/plan_cache.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "util/histogram.hpp"
#include "util/ipc.hpp"
#include "util/table.hpp"
#include "rfsmd_harness.hpp"

namespace rfsm::bench {
namespace {

using namespace std::chrono_literals;

service::BatchSpec sweepSpec(bool smoke) {
  service::BatchSpec spec;
  spec.stateCount = 10;
  spec.inputCount = 3;
  spec.outputCount = 2;
  spec.deltaCount = 8;
  spec.newStateCount = 1;
  spec.instanceCount = smoke ? 12 : 24;
  spec.seed = 0xA15;
  spec.planner = "greedy";
  return spec;
}

std::uint64_t hitsValue() {
  return metrics::counter(metrics::kServicePlanCacheHits).value();
}
std::uint64_t poisonedValue() {
  return metrics::counter(metrics::kServicePlanCachePoisoned).value();
}

struct CellResult {
  std::string status = "?";
  bool coldIdentical = false;  ///< cold output == cache-disabled reference
  bool warmIdentical = false;  ///< warm output == the same reference
  std::uint64_t warmHits = 0;  ///< plan-cache hits during the warm run
};

/// Runs `plan` cold (empty cache) and warm (immediately again) and checks
/// both against the disabled-cache reference.
template <typename PlanFn>
CellResult runColdWarm(const std::vector<std::string>& reference,
                       PlanFn&& plan) {
  CellResult cell;
  service::clearPlanCache();
  service::ClientResult cold = plan();
  cell.status = toString(cold.status);
  if (cold.status != WorkResult::Status::kOk) return cell;
  cell.coldIdentical = cold.programs == reference;
  const std::uint64_t before = hitsValue();
  service::ClientResult warm = plan();
  if (warm.status != WorkResult::Status::kOk) {
    cell.status = toString(warm.status);
    return cell;
  }
  cell.warmIdentical = warm.programs == reference;
  cell.warmHits = hitsValue() - before;
  return cell;
}

service::ClientResult planViaFabric(const service::BatchSpec& spec,
                                    std::vector<ipc::Endpoint> endpoints,
                                    std::ostream& err, int quorum = 1,
                                    std::uint64_t shardSize = 0) {
  service::FabricOptions options;
  options.endpoints = std::move(endpoints);
  options.backoffBase = 1ms;
  options.backoffCap = 10ms;
  options.quorum = quorum;
  options.shardSize = shardSize;
  options.breaker.failureThreshold = 1;
  service::Fabric fabric(std::move(options));
  return fabric.plan(spec, err);
}

bool printArtifact(bool smoke) {
  banner("A15", "Plan-cache sweep - warm/cold identity, eviction, poisoning");
  const int jobs = artifactJobs();
  const service::BatchSpec spec = sweepSpec(smoke);

  // The reference is computed before the cache is ever enabled: the bytes a
  // cache-free build would produce.
  service::configurePlanCache(0);
  const std::vector<std::string> reference =
      service::planRange(spec, 0, spec.instanceCount);
  service::configurePlanCache(4096);

  struct Row {
    std::string scenario;
    CellResult cell;
  };
  std::vector<Row> rows;
  std::ostringstream sink;  // degradation notices (asserted, not printed)

  rows.push_back({"local-jobs1", runColdWarm(reference, [&] {
                    return service::planLocal(spec, 0, 1);
                  })});
  rows.push_back({"local-jobsN", runColdWarm(reference, [&] {
                    return service::planLocal(spec, 0, jobs);
                  })});
  {  // one daemon, two requests: cross-worker sharing through the parent
    RunningServer server(freshSocketPath("server"));
    service::ClientOptions client;
    client.socketPath = server.path;
    client.jobs = jobs;
    rows.push_back({"server", runColdWarm(reference, [&] {
                      return service::planBatch(spec, client, sink);
                    })});
  }
  {  // healthy fabric rung: warm shards never cross the wire
    RunningServer a(freshSocketPath("fabric-a"));
    RunningServer b(freshSocketPath("fabric-b"));
    rows.push_back({"fabric", runColdWarm(reference, [&] {
                      return planViaFabric(
                          spec,
                          {ipc::parseEndpoint(a.path),
                           ipc::parseEndpoint(b.path)},
                          sink);
                    })});
  }
  {  // degraded rung: every endpoint dead, ladder lands on in-process
    rows.push_back({"fabric-degraded", runColdWarm(reference, [&] {
                      return planViaFabric(
                          spec,
                          {ipc::parseEndpoint(freshSocketPath("dead-a")),
                           ipc::parseEndpoint(freshSocketPath("dead-b"))},
                          sink);
                    })});
  }

  // Poisoning cell: warm the cache honestly, tamper one entry in place,
  // then replan via a quorum-2 fabric whose single shard is sampled — the
  // cached shard must be byte-verified, the poison quarantined and
  // recomputed, and the output still reference-identical.
  bool poisonDetected = false;
  bool poisonNeverServed = false;
  {
    service::clearPlanCache();
    // Not an in-process RunningServer: that would share this process's
    // plan cache and serve the poisoned entry back, letting the poison
    // vouch for itself.
    FakeEndpoint honest(freshSocketPath("poison-honest"));
    std::ostringstream err;
    service::ClientResult seed = planViaFabric(
        spec, {ipc::parseEndpoint(honest.path())}, err);
    if (seed.status == WorkResult::Status::kOk) {
      service::planCacheStore(service::planCacheKey(spec, 0),
                              "# poisoned entry\n");
      const std::uint64_t before = poisonedValue();
      // One shard spanning the batch: shard 0 is always quorum-sampled, so
      // the cached (poisoned) shard is guaranteed byte-verified.
      service::ClientResult verified = planViaFabric(
          spec, {ipc::parseEndpoint(honest.path())}, err, /*quorum=*/2,
          /*shardSize=*/spec.instanceCount);
      poisonDetected = poisonedValue() > before;
      poisonNeverServed = verified.status == WorkResult::Status::kOk &&
                          verified.programs == reference;
    }
  }

  bool contractHolds = poisonDetected && poisonNeverServed;
  Table table({"scenario", "status", "cold identical", "warm identical",
               "warm hits > 0"});
  for (const Row& row : rows) {
    table.addRow({row.scenario, row.cell.status,
                  row.cell.coldIdentical ? "yes" : "NO",
                  row.cell.warmIdentical ? "yes" : "NO",
                  row.cell.warmHits > 0 ? "yes" : "NO"});
    if (!row.cell.coldIdentical || !row.cell.warmIdentical ||
        row.cell.warmHits == 0)
      contractHolds = false;
  }
  std::cout << "\nplan-cache consumers, cold vs warm (" << spec.instanceCount
            << " instances, jobs = " << jobs << "):\n"
            << table.toMarkdown();
  std::cout << "\ntampered-entry cell: detected "
            << (poisonDetected ? "yes" : "NO") << ", never served "
            << (poisonNeverServed ? "yes" : "NO") << "\n";

  // Timing: per-call cold (cache cleared) vs warm (fully cached) latency.
  // Histograms land in the sidecar; the p99 ordering is gated right here.
  metrics::Histogram& cold = metrics::histogram("bench.plan_cold");
  metrics::Histogram& warm = metrics::histogram("bench.plan_warm");
  const int samples = smoke ? 10 : 40;
  for (int k = 0; k < samples; ++k) {
    service::clearPlanCache();
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(service::planRange(spec, 0, spec.instanceCount,
                                                nullptr, jobs));
    cold.record(std::chrono::steady_clock::now() - start);
  }
  for (int k = 0; k < samples; ++k) {
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(service::planRange(spec, 0, spec.instanceCount,
                                                nullptr, jobs));
    warm.record(std::chrono::steady_clock::now() - start);
  }
  const double coldP99 =
      static_cast<double>(cold.quantile(0.99)) / 1e6;
  const double warmP99 =
      static_cast<double>(warm.quantile(0.99)) / 1e6;
  const bool warmFaster = warmP99 < coldP99;
  std::cout << "warm p99 below cold p99: " << (warmFaster ? "yes" : "NO")
            << "\n";
  if (!warmFaster) contractHolds = false;

  std::cout << "\nplan-cache contract: "
            << (contractHolds
                    ? "HOLDS (every rung bit-identical cold and warm, "
                      "poisoning detected and never served, warm p99 < "
                      "cold p99)"
                    : "VIOLATED - see the columns above")
            << "\n";
  printTelemetry(jobs, /*countersOnly=*/true);
  service::configurePlanCache(0);
  return contractHolds;
}

void planColdBench(benchmark::State& state) {
  const service::BatchSpec spec = sweepSpec(/*smoke=*/true);
  service::configurePlanCache(4096);
  for (auto _ : state) {
    service::clearPlanCache();
    benchmark::DoNotOptimize(service::planRange(spec, 0, spec.instanceCount));
  }
  service::configurePlanCache(0);
  state.SetLabel("cold cache");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(spec.instanceCount));
}
BENCHMARK(planColdBench)->Unit(benchmark::kMillisecond);

void planWarmBench(benchmark::State& state) {
  const service::BatchSpec spec = sweepSpec(/*smoke=*/true);
  service::configurePlanCache(4096);
  benchmark::DoNotOptimize(service::planRange(spec, 0, spec.instanceCount));
  for (auto _ : state) {
    benchmark::DoNotOptimize(service::planRange(spec, 0, spec.instanceCount));
  }
  service::configurePlanCache(0);
  state.SetLabel("warm cache");
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(spec.instanceCount));
}
BENCHMARK(planWarmBench)->Unit(benchmark::kMillisecond);

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
