// End-to-end tests of the cross-host planner fabric: sharding across real
// rfsmd servers, rerouting around dead endpoints, the full degradation
// ladder (fabric -> single endpoint -> in-process, byte-identical stdout at
// every rung), hedged requests against a slow endpoint, and quorum
// verification against a lying one.
//
// Misbehaving endpoints are played by FakeEndpoint, an in-test server that
// speaks the real wire protocol but can tamper with its replies, delay
// them, or hang up without answering.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>

#include "service/client.hpp"
#include "service/fabric.hpp"
#include "service/plan_cache.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "util/breaker.hpp"
#include "util/ipc.hpp"
#include "util/metrics.hpp"
#include "rfsmd_harness.hpp"

namespace rfsm {
namespace {

using namespace std::chrono_literals;

service::BatchSpec smallSpec() {
  service::BatchSpec spec;
  spec.stateCount = 8;
  spec.inputCount = 2;
  spec.outputCount = 2;
  spec.deltaCount = 6;
  spec.instanceCount = 12;
  spec.seed = 11;
  spec.planner = "greedy";
  return spec;
}

service::FabricOptions fastFabric(std::vector<ipc::Endpoint> endpoints) {
  service::FabricOptions options;
  options.endpoints = std::move(endpoints);
  options.backoffBase = 1ms;
  options.backoffCap = 5ms;
  return options;
}

std::size_t countOccurrences(const std::string& haystack,
                             const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size()))
    ++count;
  return count;
}

// --- One reply classifier under planBatch and the fabric ------------------

struct ScriptedAnswer {
  const char* name;
  FakeEndpoint::Behavior behavior;
  WorkResult::Status status;  ///< what both client paths must report
  const char* reason;         ///< the stderr reason token; "" = no notice
};

/// The reason token of the first degradation notice in `err`.
std::string firstReason(const std::string& err) {
  const std::size_t open = err.find('(');
  if (open == std::string::npos) return "";
  return err.substr(open + 1, err.find(')', open) - open - 1);
}

class ClientAndFabric : public ::testing::TestWithParam<ScriptedAnswer> {};

TEST_P(ClientAndFabric, ClassifyEveryReplyAlike) {
  // planBatch and a one-endpoint fabric with no reroute, hedge or quorum
  // must read each answer as the same status and name it with the same
  // reason token.
  const ScriptedAnswer& answer = GetParam();
  FakeEndpoint fake(freshSocketPath(std::string("answer-") + answer.name),
                    answer.behavior);
  const service::BatchSpec spec = smallSpec();

  service::ClientOptions client;
  client.socketPath = fake.path();
  std::ostringstream clientErr;
  const service::ClientResult viaClient =
      service::planBatch(spec, client, clientErr);

  service::FabricOptions options =
      fastFabric({ipc::parseEndpoint(fake.path())});
  options.maxAttempts = 1;
  service::Fabric fabric(options);
  std::ostringstream fabricErr;
  const service::ClientResult viaFabric = fabric.plan(spec, fabricErr);

  EXPECT_EQ(viaClient.status, answer.status) << clientErr.str();
  EXPECT_EQ(viaFabric.status, answer.status) << fabricErr.str();
  EXPECT_EQ(firstReason(clientErr.str()), answer.reason) << clientErr.str();
  EXPECT_EQ(firstReason(fabricErr.str()), answer.reason) << fabricErr.str();
  if (answer.status == WorkResult::Status::kOk) {
    EXPECT_EQ(viaClient.programs, viaFabric.programs);
  }
}

// A transport failure of either kind degrades to in-process planning, so
// it ends kOk; only the reason token tells the failures apart.
INSTANTIATE_TEST_SUITE_P(
    Answers, ClientAndFabric,
    ::testing::Values(
        ScriptedAnswer{"Ok", FakeEndpoint::Behavior::kHonest,
                       WorkResult::Status::kOk, ""},
        ScriptedAnswer{"Unavailable", FakeEndpoint::Behavior::kUnavailable,
                       WorkResult::Status::kOk, "unhealthy"},
        ScriptedAnswer{"Shed", FakeEndpoint::Behavior::kShed,
                       WorkResult::Status::kOk, "overloaded"},
        ScriptedAnswer{"DeadlineExceeded", FakeEndpoint::Behavior::kDeadline,
                       WorkResult::Status::kDeadlineExceeded, ""},
        ScriptedAnswer{"Failed", FakeEndpoint::Behavior::kFailed,
                       WorkResult::Status::kFailed, ""},
        ScriptedAnswer{"CorruptFrame", FakeEndpoint::Behavior::kCorruptFrame,
                       WorkResult::Status::kOk, "malformed response"},
        ScriptedAnswer{"UndecodablePayload",
                       FakeEndpoint::Behavior::kUndecodable,
                       WorkResult::Status::kOk, "malformed response"},
        ScriptedAnswer{"Silence", FakeEndpoint::Behavior::kSilent,
                       WorkResult::Status::kOk, "unreachable"}),
    [](const ::testing::TestParamInfo<ScriptedAnswer>& info) {
      return std::string(info.param.name);
    });

// --- Rung 1: healthy fabric ----------------------------------------------

TEST(Fabric, ShardsAcrossTwoServersBitIdentically) {
  const std::string pathA = freshSocketPath("a");
  const std::string pathB = freshSocketPath("b");
  RunningServer serverA(smallServerOptions(pathA));
  RunningServer serverB(smallServerOptions(pathB));

  const service::BatchSpec spec = smallSpec();
  service::Fabric fabric(fastFabric(
      {ipc::parseEndpoint(pathA), ipc::parseEndpoint(pathB)}));
  std::ostringstream err;
  const service::ClientResult result = fabric.plan(spec, err);
  ASSERT_EQ(result.status, WorkResult::Status::kOk) << result.error;
  EXPECT_FALSE(result.degraded);
  EXPECT_EQ(result.programs,
            service::planRange(spec, 0, spec.instanceCount));
  EXPECT_TRUE(err.str().empty()) << err.str();
  unlink(pathA.c_str());
  unlink(pathB.c_str());
}

TEST(Fabric, ReroutesAroundADeadEndpoint) {
  const std::string live = freshSocketPath("live");
  const std::string dead = freshSocketPath("dead");  // nobody listens here
  RunningServer server(smallServerOptions(live));

  const service::BatchSpec spec = smallSpec();
  service::FabricOptions options = fastFabric(
      {ipc::parseEndpoint(dead), ipc::parseEndpoint(live)});
  options.shardSize = 3;  // several shards so the dead endpoint is hit
  options.breaker.failureThreshold = 2;
  metrics::Counter& rerouted = metrics::counter(metrics::kFabricRerouted);
  const std::uint64_t rerouted0 = rerouted.value();

  service::Fabric fabric(std::move(options));
  std::ostringstream err;
  const service::ClientResult result = fabric.plan(spec, err);
  ASSERT_EQ(result.status, WorkResult::Status::kOk) << result.error;
  EXPECT_FALSE(result.degraded);  // rung 1 absorbed the failure
  EXPECT_EQ(result.programs,
            service::planRange(spec, 0, spec.instanceCount));
  EXPECT_GT(rerouted.value(), rerouted0);
  // The dead endpoint's breaker tripped; the live one stayed closed.
  EXPECT_GE(fabric.breaker(0).trips(), 1u);
  EXPECT_EQ(fabric.breaker(1).trips(), 0u);
  unlink(live.c_str());
}

// --- The degradation ladder ----------------------------------------------

TEST(Fabric, FullLadderIsByteIdenticalWithOneNoticePerRung) {
  const std::string deadA = freshSocketPath("down-a");
  const std::string deadB = freshSocketPath("down-b");

  const service::BatchSpec spec = smallSpec();
  service::FabricOptions options = fastFabric(
      {ipc::parseEndpoint(deadA), ipc::parseEndpoint(deadB)});
  options.breaker.failureThreshold = 1;
  service::Fabric fabric(std::move(options));
  std::ostringstream err;
  const service::ClientResult result = fabric.plan(spec, err);

  // Every rung failed except the last: in-process planning, same bytes.
  ASSERT_EQ(result.status, WorkResult::Status::kOk) << result.error;
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.programs,
            service::planRange(spec, 0, spec.instanceCount));
  // Exactly one stderr notice per rung drop, with stable reason tokens.
  EXPECT_EQ(countOccurrences(
                err.str(),
                "planner fabric unavailable (unreachable); retrying via "
                "single endpoint"),
            1u)
      << err.str();
  EXPECT_EQ(countOccurrences(
                err.str(),
                "planner service unavailable (unreachable); degrading to "
                "in-process planning"),
            1u)
      << err.str();
}

TEST(Fabric, SingleHealthyEndpointServesRungTwo) {
  // Rung 1 collapses (the fabric's shards cannot complete while every
  // breaker is open from the dead endpoint's failures... ) — here we force
  // it by breaking one endpoint with failureThreshold 1 and routing the
  // fallback to the live one.
  const std::string dead = freshSocketPath("rung2-dead");
  const std::string live = freshSocketPath("rung2-live");
  RunningServer server(smallServerOptions(live));

  const service::BatchSpec spec = smallSpec();
  service::FabricOptions options = fastFabric(
      {ipc::parseEndpoint(dead), ipc::parseEndpoint(live)});
  options.maxAttempts = 1;  // no rerouting: a dead primary sinks its shard
  options.shardSize = 3;
  options.breaker.failureThreshold = 1;
  service::Fabric fabric(std::move(options));
  std::ostringstream err;
  const service::ClientResult result = fabric.plan(spec, err);

  ASSERT_EQ(result.status, WorkResult::Status::kOk) << result.error;
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.programs,
            service::planRange(spec, 0, spec.instanceCount));
  // Rung 2 went to the live endpoint: the fabric notice fired, the
  // in-process notice did not.
  EXPECT_EQ(countOccurrences(err.str(), "planner fabric unavailable"), 1u)
      << err.str();
  EXPECT_EQ(countOccurrences(err.str(), "planner service unavailable"), 0u)
      << err.str();
  unlink(live.c_str());
}

// --- Hedged requests ------------------------------------------------------

TEST(Fabric, HedgesTailShardsToAFasterTwin) {
  const service::BatchSpec spec = smallSpec();
  FakeEndpoint slow(freshSocketPath("slow"), FakeEndpoint::Behavior::kSlow,
                    600ms);
  FakeEndpoint fast(freshSocketPath("fast"),
                    FakeEndpoint::Behavior::kHonest);

  service::FabricOptions options = fastFabric(
      {ipc::parseEndpoint(slow.path()), ipc::parseEndpoint(fast.path())});
  options.shardSize = spec.instanceCount;  // one shard, primary = slow
  options.hedgeMs = 50;
  metrics::Counter& hedged = metrics::counter(metrics::kFabricHedged);
  metrics::Counter& hedgeWins =
      metrics::counter(metrics::kFabricHedgeWins);
  const std::uint64_t hedged0 = hedged.value();
  const std::uint64_t wins0 = hedgeWins.value();

  service::Fabric fabric(std::move(options));
  std::ostringstream err;
  const service::ClientResult result = fabric.plan(spec, err);
  ASSERT_EQ(result.status, WorkResult::Status::kOk) << result.error;
  EXPECT_EQ(result.programs,
            service::planRange(spec, 0, spec.instanceCount));
  EXPECT_GT(hedged.value(), hedged0);
  EXPECT_GT(hedgeWins.value(), wins0);
}

// --- Quorum verification --------------------------------------------------

TEST(Fabric, QuorumCatchesALyingEndpointAndServesGroundTruth) {
  const service::BatchSpec spec = smallSpec();
  FakeEndpoint liar(freshSocketPath("liar"),
                    FakeEndpoint::Behavior::kTamper);
  FakeEndpoint honest(freshSocketPath("honest"),
                      FakeEndpoint::Behavior::kHonest);

  service::FabricOptions options = fastFabric(
      {ipc::parseEndpoint(liar.path()),
       ipc::parseEndpoint(honest.path())});
  options.shardSize = spec.instanceCount;  // one (sampled) shard
  options.quorum = 2;
  metrics::Counter& mismatches =
      metrics::counter(metrics::kFabricQuorumMismatch);
  const std::uint64_t mismatches0 = mismatches.value();

  service::Fabric fabric(std::move(options));
  std::ostringstream err;
  const service::ClientResult result = fabric.plan(spec, err);

  // The tampered reply was detected, never served: stdout is ground truth.
  ASSERT_EQ(result.status, WorkResult::Status::kOk) << result.error;
  EXPECT_EQ(result.programs,
            service::planRange(spec, 0, spec.instanceCount));
  EXPECT_GT(mismatches.value(), mismatches0);
  // The liar is quarantined for subsequent batches; the honest endpoint
  // keeps serving.
  EXPECT_GE(fabric.breaker(0).trips(), 1u);
  EXPECT_EQ(fabric.breaker(1).trips(), 0u);
  EXPECT_EQ(fabric.breaker(0).state(), CircuitBreaker::State::kOpen);
}

TEST(Fabric, QuorumOfHonestEndpointsAgreesQuietly) {
  const service::BatchSpec spec = smallSpec();
  FakeEndpoint a(freshSocketPath("qa"), FakeEndpoint::Behavior::kHonest);
  FakeEndpoint b(freshSocketPath("qb"), FakeEndpoint::Behavior::kHonest);

  service::FabricOptions options = fastFabric(
      {ipc::parseEndpoint(a.path()), ipc::parseEndpoint(b.path())});
  options.shardSize = spec.instanceCount;
  options.quorum = 2;
  metrics::Counter& mismatches =
      metrics::counter(metrics::kFabricQuorumMismatch);
  const std::uint64_t mismatches0 = mismatches.value();

  service::Fabric fabric(std::move(options));
  std::ostringstream err;
  const service::ClientResult result = fabric.plan(spec, err);
  ASSERT_EQ(result.status, WorkResult::Status::kOk) << result.error;
  EXPECT_EQ(result.programs,
            service::planRange(spec, 0, spec.instanceCount));
  EXPECT_EQ(mismatches.value(), mismatches0);
  EXPECT_EQ(fabric.breaker(0).trips(), 0u);
  EXPECT_EQ(fabric.breaker(1).trips(), 0u);
}

// --- Plan cache on the fabric path ----------------------------------------

/// RAII twin of test_service's scope: fresh enabled cache, guaranteed
/// disabled afterwards.
class PlanCacheScope {
 public:
  explicit PlanCacheScope(std::size_t capacity) {
    service::configurePlanCache(capacity);
    service::clearPlanCache();
  }
  ~PlanCacheScope() { service::configurePlanCache(0); }
};

TEST(Fabric, WarmShardIsServedWithoutTouchingAnyEndpoint) {
  PlanCacheScope scope(256);
  const service::BatchSpec spec = smallSpec();
  const auto reference = service::planRange(
      spec, 0, spec.instanceCount, nullptr, 1,
      service::PlanCacheMode::kBypass);
  const std::string path = freshSocketPath("warm");
  service::Fabric fabric(fastFabric({ipc::parseEndpoint(path)}));
  std::ostringstream err;

  {
    FakeEndpoint endpoint(path, FakeEndpoint::Behavior::kHonest);
    const service::ClientResult cold = fabric.plan(spec, err);
    ASSERT_EQ(cold.status, WorkResult::Status::kOk) << cold.error;
    EXPECT_EQ(cold.programs, reference);
    EXPECT_EQ(cold.cacheHits, 0u);
  }  // the only endpoint is gone now

  // The warm batch can only succeed *undegraded* if no shard was
  // dispatched: every endpoint is dead, so any dispatch attempt would
  // descend the ladder and leave a notice.
  const service::ClientResult warm = fabric.plan(spec, err);
  ASSERT_EQ(warm.status, WorkResult::Status::kOk) << warm.error;
  EXPECT_EQ(warm.programs, reference);  // byte-identical to the cold path
  EXPECT_EQ(warm.cacheHits, spec.instanceCount);
  EXPECT_FALSE(warm.degraded);
  EXPECT_EQ(countOccurrences(err.str(), "planner fabric unavailable"), 0u);
}

TEST(Fabric, WarmShardsServeEvenWhenEveryEndpointIsDead) {
  // The cache sits above the degradation ladder: a fully-warm batch never
  // needs an endpoint, so it succeeds at rung one without a notice.
  PlanCacheScope scope(256);
  const service::BatchSpec spec = smallSpec();
  const auto reference = service::planRange(
      spec, 0, spec.instanceCount, nullptr, 1,
      service::PlanCacheMode::kBypass);
  (void)service::planRange(spec, 0, spec.instanceCount);  // warm it

  service::FabricOptions options = fastFabric(
      {ipc::parseEndpoint(freshSocketPath("gone-a")),
       ipc::parseEndpoint(freshSocketPath("gone-b"))});
  service::Fabric fabric(std::move(options));
  std::ostringstream err;
  const service::ClientResult result = fabric.plan(spec, err);
  ASSERT_EQ(result.status, WorkResult::Status::kOk) << result.error;
  EXPECT_EQ(result.programs, reference);
  EXPECT_FALSE(result.degraded);
  EXPECT_EQ(countOccurrences(err.str(), "planner fabric unavailable"), 0u);
}

TEST(Fabric, TamperedCacheEntryIsDetectedQuarantinedAndNeverServed) {
  PlanCacheScope scope(256);
  const service::BatchSpec spec = smallSpec();
  const auto reference = service::planRange(
      spec, 0, spec.instanceCount, nullptr, 1,
      service::PlanCacheMode::kBypass);
  FakeEndpoint honest(freshSocketPath("cache-honest"),
                      FakeEndpoint::Behavior::kHonest);

  // Warm the cache honestly, then poison one entry in place — modeling a
  // corrupted or maliciously overwritten cache line.
  (void)service::planRange(spec, 0, spec.instanceCount);
  const std::string poisonedKey = service::planCacheKey(spec, 3);
  service::planCacheStore(poisonedKey, "# poisoned\n");

  service::FabricOptions options =
      fastFabric({ipc::parseEndpoint(honest.path())});
  options.shardSize = spec.instanceCount;  // one shard — always sampled
  options.quorum = 2;  // sampled cache hits get byte-verified
  metrics::Counter& poisoned =
      metrics::counter(metrics::kServicePlanCachePoisoned);
  const std::uint64_t poisoned0 = poisoned.value();

  service::Fabric fabric(std::move(options));
  std::ostringstream err;
  const service::ClientResult result = fabric.plan(spec, err);

  // Detected, recomputed, and the poisoned bytes never reached stdout.
  ASSERT_EQ(result.status, WorkResult::Status::kOk) << result.error;
  EXPECT_EQ(result.programs, reference);
  EXPECT_GT(poisoned.value(), poisoned0);
  // The quarantined entry was replaced by recomputed ground truth.
  const auto repaired = service::planCacheLookup(poisonedKey);
  ASSERT_TRUE(repaired.has_value());
  EXPECT_EQ(*repaired, reference[3]);
  // The honest replica that exposed the poison is not punished.
  EXPECT_EQ(fabric.breaker(0).trips(), 0u);
}

TEST(Fabric, CleanCacheHitsPassQuorumVerificationQuietly) {
  PlanCacheScope scope(256);
  const service::BatchSpec spec = smallSpec();
  FakeEndpoint honest(freshSocketPath("clean-honest"),
                      FakeEndpoint::Behavior::kHonest);
  (void)service::planRange(spec, 0, spec.instanceCount);  // honest warm

  service::FabricOptions options =
      fastFabric({ipc::parseEndpoint(honest.path())});
  options.shardSize = spec.instanceCount;
  options.quorum = 2;
  metrics::Counter& poisoned =
      metrics::counter(metrics::kServicePlanCachePoisoned);
  metrics::Counter& mismatches =
      metrics::counter(metrics::kFabricQuorumMismatch);
  const std::uint64_t poisoned0 = poisoned.value();
  const std::uint64_t mismatches0 = mismatches.value();

  service::Fabric fabric(std::move(options));
  std::ostringstream err;
  const service::ClientResult result = fabric.plan(spec, err);
  ASSERT_EQ(result.status, WorkResult::Status::kOk) << result.error;
  EXPECT_EQ(result.programs,
            service::planRange(spec, 0, spec.instanceCount, nullptr, 1,
                               service::PlanCacheMode::kBypass));
  EXPECT_EQ(poisoned.value(), poisoned0);
  EXPECT_EQ(mismatches.value(), mismatches0);
}

// --- Prefork --------------------------------------------------------------

TEST(Fabric, PreforkedServerWarmsWorkersBeforeFirstRequest) {
  const std::string path = freshSocketPath("prefork");
  service::ServerOptions options = smallServerOptions(path);
  options.pool.prefork = true;
  options.pool.warmupPayload = service::encodeWarmupRequest();
  metrics::Counter& preforked =
      metrics::counter(metrics::kServiceWorkersPreforked);
  const std::uint64_t preforked0 = preforked.value();

  RunningServer server(std::move(options));
  // Warm-up completes asynchronously in the slot threads; poll briefly.
  for (int spin = 0;
       spin < 100 && preforked.value() - preforked0 < 2; ++spin)
    std::this_thread::sleep_for(20ms);
  EXPECT_EQ(preforked.value() - preforked0, 2u);

  // The warmed pool serves a normal request.
  service::ClientOptions client;
  client.socketPath = path;
  std::ostringstream err;
  const service::ClientResult result =
      service::planBatch(smallSpec(), client, err);
  ASSERT_EQ(result.status, WorkResult::Status::kOk) << result.error;
  EXPECT_FALSE(result.degraded);
  unlink(path.c_str());
}

}  // namespace
}  // namespace rfsm
