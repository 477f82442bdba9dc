// The hot-standby replication plane, bottom to top: the SessionRepl* wire
// frames, the shared reconnect-backoff ladder, the repl-link chaos
// profiles, epoch fencing and warm replay inside SessionService
// (replAppend / replInstall / promotion), async-lag visibility in the
// Replicator, and — the headline contract — an in-process primary quorum-
// shipping to a real rfsmd standby, failing over, and producing a
// byte-identical transcript while the deposed primary is fenced.
//
// The rfsmd binary path comes from RFSM_RFSMD_BUILD_PATH (a CMake
// target-file definition) or the RFSM_RFSMD environment override.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "service/protocol.hpp"
#include "service/repl.hpp"
#include "service/session.hpp"
#include "util/chaos.hpp"
#include "util/check.hpp"
#include "util/deadline.hpp"
#include "util/fsio.hpp"
#include "util/ipc.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "rfsmd_harness.hpp"

namespace rfsm {

namespace service {

/// A latch a test opens by hand; arrive() and wait() note that the gated
/// side got there.
struct Gate {
  std::mutex mutex;
  std::condition_variable changed;
  bool entered = false;
  bool open = false;

  void arrive() {
    std::lock_guard lock(mutex);
    entered = true;
    changed.notify_all();
  }
  void wait() {
    arrive();
    std::unique_lock lock(mutex);
    changed.wait(lock, [&] { return open; });
  }
  void awaitEntered() {
    std::unique_lock lock(mutex);
    changed.wait(lock, [&] { return entered; });
  }
  void release() {
    std::lock_guard lock(mutex);
    open = true;
    changed.notify_all();
  }
};

/// Reaches SessionService internals the tests below pin.
struct SessionServiceTestAccess {
  /// Holds a session's work without relying on timing: queues an item that
  /// blocks on a gate on the session's scheduler flow, so everything queued
  /// for that session after it waits until the gate opens.
  static std::shared_ptr<Gate> hold(SessionService& service,
                                    const std::string& flow) {
    auto gate = std::make_shared<Gate>();
    {
      std::lock_guard lock(service.mutex_);
      service.scheduler_.enqueue(flow, 1, 1.0, {[gate] { gate->wait(); }, 1.0});
      service.work_.notify_all();
    }
    return gate;
  }

  /// Accepted records the session keeps for WAL rewrites and resyncs.
  static std::size_t tailSize(SessionService& service,
                              const std::string& tenant,
                              const std::string& name) {
    return service.resyncBundle(tenant, name).value().tail.size();
  }
};

}  // namespace service

namespace {

using namespace std::chrono_literals;
using service::MutationRecord;
using service::PlanOutcome;
using service::ReplAck;
using service::Replicator;
using service::ReplicatorOptions;
using service::SessionConfig;
using service::SessionEngine;
using service::SessionService;
using service::SessionServiceOptions;
using service::SessionServiceTestAccess;
using service::SessionStatus;

SessionConfig smallConfig(const std::string& tenant = "t",
                          const std::string& name = "s") {
  SessionConfig config;
  config.tenant = tenant;
  config.name = name;
  config.stateCount = 6;
  config.inputCount = 2;
  config.outputCount = 2;
  config.seed = 7;
  config.planner = "jsr";
  return config;
}

MutationRecord mut(std::uint64_t seq, bool defer = false,
                   std::uint32_t deltas = 3) {
  MutationRecord rec;
  rec.seq = seq;
  rec.deltaCount = deltas;
  rec.mutationSeed = 500 + seq;
  rec.defer = defer;
  return rec;
}

/// Polls `status` until the warm replay has caught its journal (applied ==
/// lastAccepted) or the deadline passes.
service::SessionStatusResponse awaitCaughtUp(SessionService& store,
                                             const SessionConfig& config) {
  service::SessionStatusRequest probe{config.tenant, config.name};
  service::SessionStatusResponse status;
  for (int spin = 0; spin < 400; ++spin) {
    status = store.status(probe);
    if (status.status == SessionStatus::kOk &&
        status.applied == status.lastAccepted)
      return status;
    std::this_thread::sleep_for(10ms);
  }
  return status;
}

// --- Wire frames ----------------------------------------------------------

TEST(ReplProtocol, AppendFramesRoundTrip) {
  service::SessionReplAppendRequest request;
  request.tenant = "acme";
  request.name = "press";
  request.priority = 2;
  request.weight = 3;
  request.planner = "astar";
  request.stateCount = 9;
  request.inputCount = 3;
  request.outputCount = 2;
  request.seed = 41;
  request.epoch = 6;
  request.seq = 17;
  request.deltaCount = 5;
  request.newStateCount = 11;
  request.mutationSeed = 999;
  request.defer = true;
  const auto back = service::decodeSessionReplAppendRequest(
      service::encodeSessionReplAppendRequest(request));
  EXPECT_EQ(back.tenant, "acme");
  EXPECT_EQ(back.name, "press");
  EXPECT_EQ(back.priority, 2u);
  EXPECT_EQ(back.weight, 3u);
  EXPECT_EQ(back.planner, "astar");
  EXPECT_EQ(back.stateCount, 9);
  EXPECT_EQ(back.inputCount, 3);
  EXPECT_EQ(back.outputCount, 2);
  EXPECT_EQ(back.seed, 41u);
  EXPECT_EQ(back.epoch, 6u);
  EXPECT_EQ(back.seq, 17u);
  EXPECT_EQ(back.deltaCount, 5u);
  EXPECT_EQ(back.newStateCount, 11u);
  EXPECT_EQ(back.mutationSeed, 999u);
  EXPECT_TRUE(back.defer);

  service::SessionReplAppendResponse response;
  response.status = SessionStatus::kStaleEpoch;
  response.error = "stale";
  response.epoch = 7;
  response.lastAccepted = 16;
  const auto responseBack = service::decodeSessionReplAppendResponse(
      service::encodeSessionReplAppendResponse(response));
  EXPECT_EQ(responseBack.status, SessionStatus::kStaleEpoch);
  EXPECT_EQ(responseBack.error, "stale");
  EXPECT_EQ(responseBack.epoch, 7u);
  EXPECT_EQ(responseBack.lastAccepted, 16u);
  EXPECT_STREQ(toString(SessionStatus::kStaleEpoch), "STALE_EPOCH");
}

TEST(ReplProtocol, SnapshotFramesRoundTrip) {
  service::SessionReplSnapshotRequest request;
  request.tenant = "acme";
  request.name = "press";
  request.epoch = 4;
  request.snapshot = std::string("rfsm-snap\x00\x01\xff"
                                 "bytes",
                                 16);
  const auto back = service::decodeSessionReplSnapshotRequest(
      service::encodeSessionReplSnapshotRequest(request));
  EXPECT_EQ(back.tenant, "acme");
  EXPECT_EQ(back.name, "press");
  EXPECT_EQ(back.epoch, 4u);
  EXPECT_EQ(back.snapshot, request.snapshot);  // binary-clean

  service::SessionReplSnapshotResponse response;
  response.status = SessionStatus::kOk;
  response.epoch = 4;
  response.lastAccepted = 12;
  const auto responseBack = service::decodeSessionReplSnapshotResponse(
      service::encodeSessionReplSnapshotResponse(response));
  EXPECT_EQ(responseBack.status, SessionStatus::kOk);
  EXPECT_EQ(responseBack.epoch, 4u);
  EXPECT_EQ(responseBack.lastAccepted, 12u);
}

TEST(ReplProtocol, StatusFramesRoundTrip) {
  service::SessionStatusRequest request;
  request.tenant = "acme";
  request.name = "press";
  const auto back = service::decodeSessionStatusRequest(
      service::encodeSessionStatusRequest(request));
  EXPECT_EQ(back.tenant, "acme");
  EXPECT_EQ(back.name, "press");

  service::SessionStatusResponse response;
  response.status = SessionStatus::kOk;
  response.role = "standby";
  response.epoch = 3;
  response.lastAccepted = 9;
  response.applied = 8;
  const auto responseBack = service::decodeSessionStatusResponse(
      service::encodeSessionStatusResponse(response));
  EXPECT_EQ(responseBack.status, SessionStatus::kOk);
  EXPECT_EQ(responseBack.role, "standby");
  EXPECT_EQ(responseBack.epoch, 3u);
  EXPECT_EQ(responseBack.lastAccepted, 9u);
  EXPECT_EQ(responseBack.applied, 8u);
}

TEST(ReplProtocol, PeekTypeIdentifiesReplFrames) {
  using service::MessageType;
  EXPECT_EQ(service::peekType(service::encodeSessionReplAppendRequest({})),
            MessageType::kSessionReplAppendRequest);
  EXPECT_EQ(service::peekType(service::encodeSessionReplAppendResponse({})),
            MessageType::kSessionReplAppendResponse);
  EXPECT_EQ(service::peekType(service::encodeSessionReplSnapshotRequest({})),
            MessageType::kSessionReplSnapshotRequest);
  EXPECT_EQ(service::peekType(service::encodeSessionReplSnapshotResponse({})),
            MessageType::kSessionReplSnapshotResponse);
  EXPECT_EQ(service::peekType(service::encodeSessionStatusRequest({})),
            MessageType::kSessionStatusRequest);
  EXPECT_EQ(service::peekType(service::encodeSessionStatusResponse({})),
            MessageType::kSessionStatusResponse);
}

// --- Backoff ladder and ack modes -----------------------------------------

TEST(ReplBackoff, DeterministicDoublingCappedWithBoundedJitter) {
  // Same (attempt, salt) always sleeps the same amount.
  for (std::uint32_t attempt = 0; attempt < 12; ++attempt)
    EXPECT_EQ(service::backoffDelay(attempt, "client-a"),
              service::backoffDelay(attempt, "client-a"));
  // The ladder doubles from 20ms and the jitter stays within a quarter of
  // the pre-jitter delay: attempt k's base is min(20 << k, cap).
  for (std::uint32_t attempt = 0; attempt < 12; ++attempt) {
    const auto base = std::min<std::int64_t>(
        20ll << attempt, service::kReconnectBackoffCap.count());
    const auto delay = service::backoffDelay(attempt, "client-a").count();
    EXPECT_GE(delay, base) << "attempt " << attempt;
    EXPECT_LE(delay, base + base / 4) << "attempt " << attempt;
  }
  // Different salts fan the fleet out: at least one of the first attempts
  // draws a different jitter for a different salt.
  bool spread = false;
  for (std::uint32_t attempt = 0; attempt < 8 && !spread; ++attempt)
    spread = service::backoffDelay(attempt, "client-a") !=
             service::backoffDelay(attempt, "client-b");
  EXPECT_TRUE(spread);
}

TEST(ReplAckMode, ParsesKnownModesAndRejectsUnknown) {
  EXPECT_EQ(service::replAckFromString("quorum"), ReplAck::kQuorum);
  EXPECT_EQ(service::replAckFromString("async"), ReplAck::kAsync);
  EXPECT_STREQ(service::toString(ReplAck::kQuorum), "quorum");
  EXPECT_STREQ(service::toString(ReplAck::kAsync), "async");
  EXPECT_THROW(service::replAckFromString("eventual"), Error);
}

// --- Chaos profiles for the replication link ------------------------------

TEST(ReplChaos, ProfilesTargetOnlyTheReplLink) {
  const auto light = chaos::profileByName("repl-light");
  ASSERT_TRUE(light.has_value());
  EXPECT_GT(light->replResetProbability, 0.0);
  EXPECT_GT(light->replConnectResetProbability, 0.0);
  // The client-facing wire and the disk stay quiet under repl-*.
  EXPECT_EQ(light->resetProbability, 0.0);
  EXPECT_EQ(light->connectResetProbability, 0.0);
  EXPECT_EQ(light->diskErrorProbability, 0.0);

  const auto storm = chaos::profileByName("repl-storm");
  ASSERT_TRUE(storm.has_value());
  EXPECT_GT(storm->replResetProbability, light->replResetProbability);

  // `full` exercises every plane at light rates, repl link included.
  const auto full = chaos::profileByName("full");
  ASSERT_TRUE(full.has_value());
  EXPECT_GT(full->replResetProbability, 0.0);
  EXPECT_GT(full->resetProbability, 0.0);
  EXPECT_GT(full->diskErrorProbability, 0.0);
}

TEST(ReplChaos, ScopedReplLinkTagsTheCallingThreadOnly) {
  EXPECT_FALSE(chaos::onReplLink());
  {
    chaos::ScopedReplLink outer;
    EXPECT_TRUE(chaos::onReplLink());
    {
      chaos::ScopedReplLink inner;  // nesting is fine
      EXPECT_TRUE(chaos::onReplLink());
    }
    EXPECT_TRUE(chaos::onReplLink());
    // Another thread is untagged even while this one is inside the scope.
    bool other = true;
    std::thread([&other] { other = chaos::onReplLink(); }).join();
    EXPECT_FALSE(other);
  }
  EXPECT_FALSE(chaos::onReplLink());
}

// --- Standby semantics (in-process SessionService) ------------------------

TEST(ReplStandby, WarmReplaysShippedRecordsAndReportsStatus) {
  SessionService standby(SessionServiceOptions{});
  const SessionConfig config = smallConfig();
  for (std::uint64_t k = 1; k <= 5; ++k) {
    const auto response = standby.replAppend(replRequestFor(config, 1, mut(k)));
    ASSERT_EQ(response.status, SessionStatus::kOk)
        << "seq " << k << ": " << response.error;
    EXPECT_EQ(response.lastAccepted, k);
    EXPECT_EQ(response.epoch, 1u);
  }
  const auto status = awaitCaughtUp(standby, config);
  ASSERT_EQ(status.status, SessionStatus::kOk);
  EXPECT_EQ(status.role, "standby");
  EXPECT_EQ(status.epoch, 1u);
  EXPECT_EQ(status.lastAccepted, 5u);
  EXPECT_EQ(status.applied, 5u);  // warm replay caught up, not just journaled
}

TEST(ReplStandby, PromotionOnClientResumeBumpsEpochAndMatchesReference) {
  SessionService standby(SessionServiceOptions{});
  const SessionConfig config = smallConfig();
  for (std::uint64_t k = 1; k <= 5; ++k)
    ASSERT_EQ(standby.replAppend(replRequestFor(config, 1, mut(k))).status,
              SessionStatus::kOk);
  awaitCaughtUp(standby, config);

  // Failover: the first client open(resume) promotes the standby.
  const std::uint64_t failoversBefore =
      metrics::counter(metrics::kServiceFailovers).value();
  const auto resumed = standby.open(openRequestFor(config));
  ASSERT_EQ(resumed.status, SessionStatus::kOk);
  EXPECT_EQ(resumed.lastApplied, 5u);
  EXPECT_EQ(metrics::counter(metrics::kServiceFailovers).value(),
            failoversBefore + 1);
  auto status = standby.status({config.tenant, config.name});
  EXPECT_EQ(status.role, "primary");
  EXPECT_EQ(status.epoch, 2u);

  // The promoted transcript continues exactly where an uninterrupted
  // engine would be.
  SessionEngine reference(config);
  for (std::uint64_t k = 1; k <= 5; ++k) reference.apply(mut(k));
  const PlanOutcome expected = reference.apply(mut(6));
  const auto response = standby.mutate(mutateRequestFor(config, mut(6)));
  ASSERT_EQ(response.status, SessionStatus::kOk) << response.error;
  EXPECT_EQ(response.program, expected.program);

  // A deposed primary still shipping epoch 1 is refused and counted.
  const std::uint64_t staleBefore =
      metrics::counter(metrics::kServiceStaleEpochRejected).value();
  const auto stale = standby.replAppend(replRequestFor(config, 1, mut(7)));
  EXPECT_EQ(stale.status, SessionStatus::kStaleEpoch);
  EXPECT_EQ(stale.epoch, 2u);  // tells the deposed primary how far behind
  EXPECT_EQ(metrics::counter(metrics::kServiceStaleEpochRejected).value(),
            staleBefore + 1);
}

TEST(ReplStandby, EqualEpochAgainstAPrimaryIsRefused) {
  // Two daemons both believing they are the epoch-1 primary must not
  // cross-replicate: an append at the receiver's own epoch is only valid
  // when the receiver is a standby.
  SessionService store(SessionServiceOptions{});
  const SessionConfig config = smallConfig();
  ASSERT_EQ(store.open(openRequestFor(config)).status, SessionStatus::kOk);
  ASSERT_EQ(store.mutate(mutateRequestFor(config, mut(1))).status,
            SessionStatus::kOk);
  const auto refused = store.replAppend(replRequestFor(config, 1, mut(2)));
  EXPECT_EQ(refused.status, SessionStatus::kStaleEpoch);
}

TEST(ReplStandby, HigherEpochDemotesAPrimaryAndForcesResync) {
  SessionService store(SessionServiceOptions{});
  const SessionConfig config = smallConfig();
  ASSERT_EQ(store.open(openRequestFor(config)).status, SessionStatus::kOk);
  for (std::uint64_t k = 1; k <= 2; ++k)
    ASSERT_EQ(store.mutate(mutateRequestFor(config, mut(k))).status,
              SessionStatus::kOk);
  // A newer primary (epoch 3) starts shipping: this replica adopts the
  // epoch and demotes itself to standby — and because its own accepted
  // suffix may contain records the new primary never saw (seq equality
  // proves nothing across epochs), it discards its replay state and
  // reports a gap so the new primary resyncs it from scratch.
  const auto shipped = store.replAppend(replRequestFor(config, 3, mut(3)));
  ASSERT_EQ(shipped.status, SessionStatus::kBadSequence) << shipped.error;
  EXPECT_EQ(shipped.epoch, 3u);        // the epoch was adopted...
  EXPECT_EQ(shipped.lastAccepted, 0u); // ...and the suffix discarded
  // The shipper heals the gap the usual way: snapshot (none here — the
  // primary never rotated, its whole history is the tail) + tail replay.
  for (std::uint64_t k = 1; k <= 3; ++k)
    ASSERT_EQ(store.replAppend(replRequestFor(config, 3, mut(k))).status,
              SessionStatus::kOk);
  const auto status = awaitCaughtUp(store, config);
  EXPECT_EQ(status.role, "standby");
  EXPECT_EQ(status.epoch, 3u);
  EXPECT_EQ(status.lastAccepted, 3u);
}

TEST(ReplStandby, EpochAdoptionDiscardsDivergentSuffix) {
  // The async-failover divergence leg: a deposed primary (or a standby it
  // reached that the promotion winner did not) holds records at seqs the
  // new primary assigned to *different* mutations.  Those phantoms must
  // not survive demotion as "duplicates" — after resync the transcript
  // must match the new primary's history, byte for byte.
  SessionService store(SessionServiceOptions{});
  const SessionConfig config = smallConfig();
  for (std::uint64_t k = 1; k <= 2; ++k)
    ASSERT_EQ(store.replAppend(replRequestFor(config, 1, mut(k))).status,
              SessionStatus::kOk);
  MutationRecord phantom = mut(3);
  phantom.mutationSeed = 424242;  // the record the new primary never saw
  ASSERT_EQ(store.replAppend(replRequestFor(config, 1, phantom)).status,
            SessionStatus::kOk);
  awaitCaughtUp(store, config);

  // The new primary (epoch 2) ships ITS seq-3 record: same seq, different
  // content.  Before the fix this answered kOk as an idempotent duplicate
  // and the phantom survived; now the standby discards and gap-reports.
  ASSERT_EQ(store.replAppend(replRequestFor(config, 2, mut(3))).status,
            SessionStatus::kBadSequence);
  for (std::uint64_t k = 1; k <= 3; ++k)
    ASSERT_EQ(store.replAppend(replRequestFor(config, 2, mut(k))).status,
              SessionStatus::kOk);
  awaitCaughtUp(store, config);

  // Promote and continue: the transcript must equal a reference that only
  // ever saw the new primary's records.
  ASSERT_EQ(store.open(openRequestFor(config)).status, SessionStatus::kOk);
  SessionEngine reference(config);
  for (std::uint64_t k = 1; k <= 3; ++k) reference.apply(mut(k));
  const PlanOutcome expected = reference.apply(mut(4));
  const auto response = store.mutate(mutateRequestFor(config, mut(4)));
  ASSERT_EQ(response.status, SessionStatus::kOk) << response.error;
  EXPECT_EQ(response.program, expected.program);
}

TEST(ReplStandby, StandbyGraceGatesPromotionWhilePrimaryIsLive) {
  // With --standby-grace set, a standby that heard from its primary inside
  // the window refuses client-triggered promotion: a transport blip
  // between client and primary must not depose a healthy primary.
  SessionServiceOptions gated;
  gated.standbyGrace = std::chrono::milliseconds(60000);
  SessionService standby(gated);
  const SessionConfig config = smallConfig();
  ASSERT_EQ(standby.replAppend(replRequestFor(config, 1, mut(1))).status,
            SessionStatus::kOk);
  awaitCaughtUp(standby, config);
  const auto refusedOpen = standby.open(openRequestFor(config));
  EXPECT_EQ(refusedOpen.status, SessionStatus::kFailed);
  EXPECT_NE(refusedOpen.error.find("standby"), std::string::npos)
      << refusedOpen.error;
  EXPECT_EQ(standby.mutate(mutateRequestFor(config, mut(2))).status,
            SessionStatus::kFailed);
  EXPECT_EQ(standby.status({config.tenant, config.name}).role, "standby");

  // Once the primary has been silent past the grace window, the same
  // client contact IS the failover signal and promotion proceeds.
  SessionServiceOptions brief;
  brief.standbyGrace = std::chrono::milliseconds(50);
  SessionService patient(brief);
  ASSERT_EQ(patient.replAppend(replRequestFor(config, 1, mut(1))).status,
            SessionStatus::kOk);
  awaitCaughtUp(patient, config);
  std::this_thread::sleep_for(150ms);
  ASSERT_EQ(patient.open(openRequestFor(config)).status, SessionStatus::kOk);
  EXPECT_EQ(patient.status({config.tenant, config.name}).role, "primary");
}

TEST(ReplStandby, DuplicatesAreIdempotentAndGapsRejected) {
  SessionService standby(SessionServiceOptions{});
  const SessionConfig config = smallConfig();
  ASSERT_EQ(standby.replAppend(replRequestFor(config, 1, mut(1))).status,
            SessionStatus::kOk);
  // A duplicate (retry after a lost reply) is acked without re-journaling.
  const auto duplicate = standby.replAppend(replRequestFor(config, 1, mut(1)));
  EXPECT_EQ(duplicate.status, SessionStatus::kOk);
  EXPECT_EQ(duplicate.lastAccepted, 1u);
  // A gap tells the primary to resync via snapshot install.
  const auto gap = standby.replAppend(replRequestFor(config, 1, mut(5)));
  EXPECT_EQ(gap.status, SessionStatus::kBadSequence);
  EXPECT_NE(gap.error.find("expected seq 2"), std::string::npos) << gap.error;
}

TEST(ReplStandby, SnapshotInstallSeedsAStandbyForTailReplay) {
  // A primary old enough to have rotated its journal resyncs a gapped
  // standby with its on-disk snapshot; the standby then replays only the
  // un-snapshotted tail — promotion cost is O(tail), not O(history).
  const SessionConfig config = smallConfig();
  TempDir primaryDir;
  std::string snapshotBytes;
  std::uint64_t snapshotCovers = 0;
  {
    SessionServiceOptions options;
    options.stateDir = primaryDir.path;
    options.snapshotEvery = 2;
    SessionService primary(options);
    ASSERT_EQ(primary.open(openRequestFor(config)).status, SessionStatus::kOk);
    for (std::uint64_t k = 1; k <= 4; ++k)
      ASSERT_EQ(primary.mutate(mutateRequestFor(config, mut(k))).status,
                SessionStatus::kOk);
    const auto bytes = fsio::readFileIfExists(primaryDir.path + "/" +
                                              config.tenant + "@" +
                                              config.name + ".snap");
    ASSERT_TRUE(bytes.has_value()) << "no snapshot after 4 mutations";
    snapshotBytes = *bytes;
  }

  TempDir standbyDir;
  SessionServiceOptions standbyOptions;
  standbyOptions.stateDir = standbyDir.path;
  SessionService standby(standbyOptions);
  service::SessionReplSnapshotRequest install;
  install.tenant = config.tenant;
  install.name = config.name;
  install.epoch = 2;
  install.snapshot = snapshotBytes;
  const auto installed = standby.replInstall(install);
  ASSERT_EQ(installed.status, SessionStatus::kOk) << installed.error;
  snapshotCovers = installed.lastAccepted;
  ASSERT_GE(snapshotCovers, 2u);
  ASSERT_LE(snapshotCovers, 4u);

  // Tail replay from the install point, then promote and continue; the
  // result must match an engine that lived through all of it.
  for (std::uint64_t k = snapshotCovers + 1; k <= 6; ++k)
    ASSERT_EQ(standby.replAppend(replRequestFor(config, 2, mut(k))).status,
              SessionStatus::kOk);
  awaitCaughtUp(standby, config);
  ASSERT_EQ(standby.open(openRequestFor(config)).status, SessionStatus::kOk);
  EXPECT_EQ(standby.status({config.tenant, config.name}).epoch, 3u);

  SessionEngine reference(config);
  for (std::uint64_t k = 1; k <= 6; ++k) reference.apply(mut(k));
  const PlanOutcome expected = reference.apply(mut(7));
  const auto response = standby.mutate(mutateRequestFor(config, mut(7)));
  ASSERT_EQ(response.status, SessionStatus::kOk) << response.error;
  EXPECT_EQ(response.program, expected.program);

  // A corrupted snapshot must never install.
  SessionService fresh(SessionServiceOptions{});
  install.snapshot[install.snapshot.size() / 2] ^= 0x40;
  install.tenant = "poisoned";
  EXPECT_NE(fresh.replInstall(install).status, SessionStatus::kOk);
}

TEST(ReplStandby, InstallRefusesBadNamesAndAnotherSessionsSnapshot) {
  // The frame's names become file names and the map key: a traversal
  // name must not reach the file system, and a snapshot must belong to
  // the session the frame names.
  const SessionConfig config = smallConfig();
  TempDir primaryDir;
  std::string snapshotBytes;
  {
    SessionServiceOptions options;
    options.stateDir = primaryDir.path;
    options.snapshotEvery = 1;
    SessionService primary(options);
    ASSERT_EQ(primary.open(openRequestFor(config)).status, SessionStatus::kOk);
    ASSERT_EQ(primary.mutate(mutateRequestFor(config, mut(1))).status,
              SessionStatus::kOk);
    const auto bytes =
        fsio::readFileIfExists(primaryDir.path + "/t@s.snap");
    ASSERT_TRUE(bytes.has_value());
    snapshotBytes = *bytes;
  }

  TempDir standbyDir;
  SessionServiceOptions options;
  options.stateDir = standbyDir.path;
  SessionService standby(options);
  const std::string escape = "rfsm-escape-" + std::to_string(::getpid());
  service::SessionReplSnapshotRequest install;
  install.tenant = "../" + escape;
  install.name = "s";
  install.epoch = 1;
  install.snapshot = snapshotBytes;
  const auto traversal = standby.replInstall(install);
  EXPECT_EQ(traversal.status, SessionStatus::kFailed);
  EXPECT_NE(traversal.error.find("tenant/session names"), std::string::npos)
      << traversal.error;
  EXPECT_FALSE(fsio::readFileIfExists(standbyDir.path + "/../" + escape +
                                      "@s.snap")
                   .has_value());

  install.tenant = "u";  // a valid name, but the snapshot is t/s's
  const auto foreign = standby.replInstall(install);
  EXPECT_EQ(foreign.status, SessionStatus::kFailed);
  EXPECT_NE(foreign.error.find("t/s"), std::string::npos) << foreign.error;

  EXPECT_EQ(standby.sessionCount(), 0u);
  EXPECT_TRUE(fsio::listDir(standbyDir.path).empty());
}

// --- Snapshot files from older builds and from hostile peers --------------

/// FNV-1a 64: the snapshot file's checksum trailer.
std::uint64_t fnv64(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// `body` followed by a valid checksum trailer.
std::string sealSnapshot(const std::string& body) {
  ipc::MessageWriter trailer;
  trailer.u64(fnv64(body));
  return body + trailer.take();
}

/// Streams mutations 1..4 (3 deferred) into a durable session, drains it,
/// and returns the snapshot file it left behind.
std::string drainedSnapshot(const std::string& stateDir,
                            const SessionConfig& config) {
  SessionServiceOptions options;
  options.stateDir = stateDir;
  options.snapshotEvery = 0;
  SessionService store(options);
  EXPECT_EQ(store.open(openRequestFor(config)).status, SessionStatus::kOk);
  for (std::uint64_t k = 1; k <= 4; ++k)
    store.mutate(mutateRequestFor(config, mut(k, k == 3)));
  EXPECT_EQ(store.drain(), 1u);
  return fsio::readFileIfExists(stateDir + "/" + config.tenant + "@" +
                                config.name + ".snap")
      .value_or("");
}

TEST(ReplSnapshot, PreReplicationSnapshotRecoversAsEpochOnePrimary) {
  // Snapshots written before the replication plane end after the outcome
  // list: no epoch/standby trailer.  They must still recover, as epoch 1
  // primary, rather than be quarantined.
  TempDir dir;
  const SessionConfig config = smallConfig();
  const std::string bytes = drainedSnapshot(dir.path, config);
  ASSERT_GT(bytes.size(), 20u);
  const std::string body = bytes.substr(0, bytes.size() - 8 - 12);
  fsio::writeFileDurable(dir.path + "/t@s.snap", sealSnapshot(body));

  SessionServiceOptions options;
  options.stateDir = dir.path;
  SessionService recovered(options);
  EXPECT_EQ(recovered.quarantined(), 0u);
  EXPECT_EQ(recovered.recoveredSessions(), 1u);
  const auto status = recovered.status({config.tenant, config.name});
  ASSERT_EQ(status.status, SessionStatus::kOk);
  EXPECT_EQ(status.role, "primary");
  EXPECT_EQ(status.epoch, 1u);
  EXPECT_EQ(status.lastAccepted, 4u);

  SessionEngine reference(config);
  for (std::uint64_t k = 1; k <= 4; ++k) reference.apply(mut(k, k == 3));
  const PlanOutcome expected = reference.apply(mut(5));
  const auto response = recovered.mutate(mutateRequestFor(config, mut(5)));
  ASSERT_EQ(response.status, SessionStatus::kOk) << response.error;
  EXPECT_EQ(response.program, expected.program);
}

TEST(ReplSnapshot, MutatedSnapshotsWithValidChecksumsFailTyped) {
  // fnv64 is not a MAC: a peer can ship any body under a matching trailer.
  // Whatever it ships, replInstall must answer with a reply (kFailed for a
  // body that does not decode), never a bad_alloc or a contract violation.
  TempDir dir;
  const SessionConfig config = smallConfig();
  const std::string bytes = drainedSnapshot(dir.path, config);
  ASSERT_GT(bytes.size(), 8u);
  const std::string body = bytes.substr(0, bytes.size() - 8);

  SessionService standby(SessionServiceOptions{});
  Rng rng(20261017);
  int failed = 0;
  for (int round = 0; round < 400; ++round) {
    std::string mutated = body;
    const std::size_t pos = static_cast<std::size_t>(rng.below(body.size()));
    switch (rng.below(3)) {
      case 0:  // a count or length blown up to 0xFFFFFFFF
        mutated.replace(pos, 4, 4, '\xff');
        break;
      case 1:
        for (int e = 0; e < 4; ++e)
          mutated[rng.below(mutated.size())] =
              static_cast<char>(rng.below(256));
        break;
      default:
        mutated.resize(pos);
    }
    service::SessionReplSnapshotRequest install;
    install.tenant = config.tenant;
    install.name = config.name;
    install.epoch = 1;
    install.snapshot = sealSnapshot(mutated);
    try {
      const auto reply = standby.replInstall(install);
      ASSERT_TRUE(reply.status == SessionStatus::kOk ||
                  reply.status == SessionStatus::kFailed)
          << toString(reply.status) << " in round " << round;
      if (reply.status == SessionStatus::kFailed) {
        ++failed;
        EXPECT_EQ(reply.error.find("contract violated"), std::string::npos)
            << reply.error;
      }
    } catch (const std::exception& error) {
      FAIL() << "replInstall threw in round " << round << ": "
             << error.what();
    }
  }
  EXPECT_GT(failed, 200);
}

// --- Replicator transport (no standby listening) --------------------------

ReplicatorOptions unreachableOptions(ReplAck ack) {
  ReplicatorOptions options;
  options.replicas.push_back(
      ipc::parseEndpoint("/tmp/rfsm-repl-nobody-home.sock"));
  options.ack = ack;
  options.retryFor = 200ms;
  options.readTimeout = 500ms;
  options.maxQueue = 2;
  return options;
}

TEST(ReplicatorTransport, SyncShipSurfacesAnUnreachableStandby) {
  Replicator replicator(
      unreachableOptions(ReplAck::kQuorum),
      [](const std::string&, const std::string&) {
        return std::optional<Replicator::ResyncBundle>{};
      },
      [](const std::string&, const std::string&, std::uint64_t) {});
  const auto result =
      replicator.shipSync(replRequestFor(smallConfig(), 1, mut(1)));
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.staleEpoch);
  EXPECT_NE(result.error.find("unreachable"), std::string::npos)
      << result.error;
}

TEST(ReplicatorTransport, AsyncLagIsVisibleAndQueuesAreBounded) {
  Replicator replicator(
      unreachableOptions(ReplAck::kAsync),
      [](const std::string&, const std::string&) {
        return std::optional<Replicator::ResyncBundle>{};
      },
      [](const std::string&, const std::string&, std::uint64_t) {});
  const SessionConfig config = smallConfig();
  int accepted = 0;
  int refused = 0;
  for (std::uint64_t k = 1; k <= 6; ++k) {
    if (replicator.shipAsync(replRequestFor(config, 1, mut(k))))
      ++accepted;
    else
      ++refused;
  }
  // maxQueue = 2 bounds the loss window: most of the burst is refused.
  EXPECT_GE(accepted, 1);
  EXPECT_GE(refused, 1);
  // The un-shipped backlog is visible as lag, and ages.
  EXPECT_GE(replicator.lagRecords(), 1u);
  std::this_thread::sleep_for(60ms);
  EXPECT_GT(replicator.lagMs(), 0);
  replicator.refreshGauges();
  EXPECT_GE(metrics::gauge(metrics::kServiceReplLagRecords).value(), 1);
}

TEST(ReplicatorTransport, ShutdownInterruptsTheRetryLadder) {
  // An async worker stuck in the retry ladder against a dead standby must
  // not hold ~Replicator for the whole retryFor budget: the stop flag
  // interrupts both the backoff sleep and the next loop iteration.
  ReplicatorOptions options = unreachableOptions(ReplAck::kAsync);
  options.retryFor = 5000ms;
  const auto started = std::chrono::steady_clock::now();
  {
    Replicator replicator(
        options,
        [](const std::string&, const std::string&) {
          return std::optional<Replicator::ResyncBundle>{};
        },
        [](const std::string&, const std::string&, std::uint64_t) {});
    ASSERT_TRUE(replicator.shipAsync(replRequestFor(smallConfig(), 1, mut(1))));
    std::this_thread::sleep_for(50ms);  // let the worker enter the ladder
  }
  const auto elapsed = std::chrono::steady_clock::now() - started;
  EXPECT_LT(elapsed, 2000ms)
      << "destructor stalled "
      << std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count()
      << "ms against a 5000ms retry budget";
}

// --- The shared link: a doubled reply forces a reconnect ------------------

/// A peer that answers every request twice: the right reply, then a stale
/// one, in one write so the stale frame is already queued when the client
/// sends its next request.  Serves one connection at a time.
class DoubleAnsweringPeer {
 public:
  /// Maps a request payload to its (reply, stale reply) payloads.
  using Answer =
      std::function<std::pair<std::string, std::string>(const std::string&)>;

  DoubleAnsweringPeer(std::string path, Answer answer)
      : path_(std::move(path)),
        answer_(std::move(answer)),
        listen_(ipc::listenUnix(path_)),
        thread_([this] { serve(); }) {}

  ~DoubleAnsweringPeer() {
    stop_.cancel();
    thread_.join();
    ::unlink(path_.c_str());
  }

  const std::string& path() const { return path_; }
  int connections() const { return connections_.load(); }

 private:
  void serve() {
    while (!stop_.expired()) {
      CancelToken slice(200ms);
      auto connection = ipc::acceptUnix(listen_.get(), &slice);
      if (!connection.has_value()) continue;
      ++connections_;
      try {
        std::string request;
        while (ipc::readFrame(connection->get(), request, &stop_) ==
               ipc::ReadStatus::kOk) {
          const auto [reply, stale] = answer_(request);
          if (!writeRaw(connection->get(),
                        frameBytes(reply) + frameBytes(stale)))
            break;
        }
      } catch (const Error&) {
        // The client dropped the connection: serve the next one.
      }
    }
  }

  std::string path_;
  Answer answer_;
  ipc::Fd listen_;
  CancelToken stop_;
  std::atomic<int> connections_{0};
  std::thread thread_;
};

TEST(SessionStreamLink, DoubledRepliesForceAReconnectNotAMispairing) {
  DoubleAnsweringPeer peer(freshSocketPath("double-stream"),
                           [](const std::string& payload) {
    const auto request = service::decodeSessionMutateRequest(payload);
    service::SessionMutateResponse reply;
    reply.status = SessionStatus::kOk;
    reply.seq = request.seq;
    reply.program = "program " + std::to_string(request.seq);
    service::SessionMutateResponse stale = reply;
    stale.status = SessionStatus::kFailed;
    stale.error = "stale duplicate";
    return std::pair{service::encodeSessionMutateResponse(reply),
                     service::encodeSessionMutateResponse(stale)};
  });
  service::SessionStream::Options options;
  options.endpoint = ipc::parseEndpoint(peer.path());
  options.retryFor = 2000ms;
  options.readTimeout = 2000ms;
  service::SessionStream stream(options);
  const SessionConfig config = smallConfig();
  for (std::uint64_t k = 1; k <= 4; ++k) {
    const auto response = stream.mutate(mutateRequestFor(config, mut(k)));
    EXPECT_EQ(response.status, SessionStatus::kOk) << response.error;
    EXPECT_EQ(response.seq, k);
    EXPECT_EQ(response.program, "program " + std::to_string(k));
  }
  // One connection per request; a stale frame is not a transport failure.
  EXPECT_EQ(peer.connections(), 4);
  EXPECT_EQ(stream.reconnects(), 0u);
}

TEST(ReplicatorTransport, DoubledRepliesForceAReconnectNotAMispairing) {
  DoubleAnsweringPeer peer(freshSocketPath("double-repl"),
                           [](const std::string& payload) {
    const auto request = service::decodeSessionReplAppendRequest(payload);
    service::SessionReplAppendResponse reply;
    reply.status = SessionStatus::kOk;
    reply.epoch = request.epoch;
    reply.lastAccepted = request.seq;
    service::SessionReplAppendResponse stale = reply;
    stale.status = SessionStatus::kStaleEpoch;
    stale.epoch = request.epoch + 1;
    return std::pair{service::encodeSessionReplAppendResponse(reply),
                     service::encodeSessionReplAppendResponse(stale)};
  });
  ReplicatorOptions options;
  options.replicas.push_back(ipc::parseEndpoint(peer.path()));
  options.retryFor = 2000ms;
  options.readTimeout = 2000ms;
  int fences = 0;
  Replicator replicator(
      options,
      [](const std::string&, const std::string&) {
        return std::optional<Replicator::ResyncBundle>{};
      },
      [&fences](const std::string&, const std::string&, std::uint64_t) {
        ++fences;
      });
  const SessionConfig config = smallConfig();
  for (std::uint64_t k = 1; k <= 4; ++k) {
    const auto result = replicator.shipSync(replRequestFor(config, 1, mut(k)));
    EXPECT_TRUE(result.ok) << result.error;
    EXPECT_FALSE(result.staleEpoch);
  }
  EXPECT_EQ(fences, 0);
  EXPECT_EQ(peer.connections(), 4);
}

// --- Volatile sessions ----------------------------------------------------

TEST(SessionService, VolatileSessionDropsAppliedRecordsFromItsTail) {
  const SessionConfig config = smallConfig();
  {
    SessionService store(SessionServiceOptions{});  // no state dir or replica
    ASSERT_EQ(store.open(openRequestFor(config)).status, SessionStatus::kOk);
    for (std::uint64_t k = 1; k <= 200; ++k)
      ASSERT_EQ(store.mutate(mutateRequestFor(config, mut(k))).status,
                SessionStatus::kOk);
    EXPECT_EQ(SessionServiceTestAccess::tailSize(store, "t", "s"), 0u);
  }
  // With a replica, a volatile primary resyncs a standby from its whole
  // tail, so the tail stays.
  SessionServiceOptions options;
  options.replicas.push_back(
      ipc::parseEndpoint(freshSocketPath("nobody-home")));
  options.replAck = ReplAck::kAsync;
  SessionService store(options);
  ASSERT_EQ(store.open(openRequestFor(config)).status, SessionStatus::kOk);
  for (std::uint64_t k = 1; k <= 5; ++k)
    ASSERT_EQ(store.mutate(mutateRequestFor(config, mut(k))).status,
              SessionStatus::kOk);
  EXPECT_EQ(SessionServiceTestAccess::tailSize(store, "t", "s"), 5u);
}

// --- Session lifecycle races ----------------------------------------------

using service::Gate;

/// Waits (bounded) until `depth` items are queued in the store's scheduler.
/// Only progress evidence: the tests below assert outcomes that hold in
/// every interleaving.
void awaitQueued(SessionService& store, std::size_t depth,
                 std::chrono::milliseconds bound = 250ms) {
  const auto deadline = std::chrono::steady_clock::now() + bound;
  for (;;) {
    service::StatsResponse stats;
    store.fillStats(stats);
    if (stats.schedulerDepth >= depth ||
        std::chrono::steady_clock::now() >= deadline)
      return;
    std::this_thread::sleep_for(1ms);
  }
}

/// Re-opens `config` (no resume) from several threads until one succeeds.
struct Reopener {
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;

  Reopener(SessionService& store, const SessionConfig& config) {
    for (int k = 0; k < 4; ++k)
      threads.emplace_back([this, &store, config] {
        service::SessionOpenRequest request = openRequestFor(config);
        request.resume = false;
        const auto deadline = std::chrono::steady_clock::now() + 10s;
        while (!done && std::chrono::steady_clock::now() < deadline)
          if (store.open(request).status == SessionStatus::kOk) done = true;
      });
  }
  bool join() {
    for (std::thread& t : threads) t.join();
    return done;
  }
};

bool walExists(const std::string& dir, const SessionConfig& config) {
  return fsio::readFileIfExists(dir + "/" + config.tenant + "@" +
                                config.name + ".wal")
      .has_value();
}

TEST(SessionService, DuplicateCloseRacingAReopenKeepsTheReopenedSession) {
  // A duplicate close (SessionStream resends after a reply timeout) that
  // races a reopen must neither delete the reopened session's journal nor
  // drop it from the map.  A standby with a backlog of shipped records has
  // its flow held while both closes arrive; the reopen spins until the
  // first close lands.
  const SessionConfig config = smallConfig();
  for (int round = 0; round < 8; ++round) {
    TempDir dir;
    SessionServiceOptions options;
    options.stateDir = dir.path;
    options.executors = 1;
    SessionService store(options);
    for (std::uint64_t k = 1; k <= 30; ++k)
      ASSERT_EQ(
          store.replAppend(replRequestFor(config, 1, mut(k, false, 40)))
              .status,
          SessionStatus::kOk);
    const std::shared_ptr<Gate> gate =
        SessionServiceTestAccess::hold(store, "t@s");
    service::SessionCloseResponse closes[2];
    std::thread closerA([&] { closes[0] = store.close({"t", "s"}); });
    std::thread closerB([&] { closes[1] = store.close({"t", "s"}); });
    awaitQueued(store, 2);
    Reopener reopen(store, config);
    gate->release();
    closerA.join();
    closerB.join();
    ASSERT_TRUE(reopen.join()) << "round " << round;
    EXPECT_TRUE(closes[0].status == SessionStatus::kOk ||
                closes[1].status == SessionStatus::kOk);
    const auto status = store.status({"t", "s"});
    EXPECT_EQ(status.status, SessionStatus::kOk)
        << "round " << round << ": the reopened session was dropped";
    EXPECT_EQ(status.lastAccepted, 0u);
    EXPECT_TRUE(walExists(dir.path, config))
        << "round " << round << ": the reopened session's journal is gone";
  }
}

/// A standby endpoint that journals nothing: it acks every append, but
/// holds its first reply until released.
struct HeldStandby {
  std::string path;
  ipc::Fd listener;
  Gate firstFrame;    ///< entered when the first append arrives
  Gate firstReply;    ///< opened by the test to let the reply go
  std::atomic<bool> stop{false};
  std::thread thread;

  explicit HeldStandby(std::string socketPath)
      : path(std::move(socketPath)), listener(ipc::listenUnix(path)) {
    thread = std::thread([this] { serve(); });
  }
  ~HeldStandby() {
    firstReply.release();
    stop = true;
    thread.join();
    ::unlink(path.c_str());
  }
  void serve() {
    bool first = true;
    while (!stop) {
      CancelToken slice(50ms);
      std::optional<ipc::Fd> conn = ipc::acceptUnix(listener.get(), &slice);
      if (!conn.has_value()) continue;
      for (;;) {
        CancelToken readSlice(5000ms);
        std::string payload;
        if (ipc::readFrame(conn->get(), payload, &readSlice) !=
            ipc::ReadStatus::kOk)
          break;
        const auto request = service::decodeSessionReplAppendRequest(payload);
        if (first) {
          first = false;
          firstFrame.arrive();
          firstReply.wait();
        }
        service::SessionReplAppendResponse reply;
        reply.status = SessionStatus::kOk;
        reply.epoch = request.epoch;
        reply.lastAccepted = request.seq;
        ipc::writeFrame(conn->get(),
                        service::encodeSessionReplAppendResponse(reply));
      }
    }
  }
};

enum class CloseDuring { kPromotionWait, kQuorumShip };

class SessionServiceCloseRace : public ::testing::TestWithParam<CloseDuring> {
};

TEST_P(SessionServiceCloseRace, CloseAndReopenLeaveOnlyTheFreshSession) {
  // The two lifecycle races the replication plane used to guard with
  // re-checks after releasing the store mutex: a close while a standby's
  // promotion waits for its tail, and a close + reopen while a quorum ship
  // is in flight.  Whatever the interleaving, the closed session's work
  // must not leak into the reopened one.
  const SessionConfig config = smallConfig();
  TempDir dir;
  SessionServiceOptions options;
  options.stateDir = dir.path;
  options.executors = 1;
  std::unique_ptr<HeldStandby> standby;
  if (GetParam() == CloseDuring::kQuorumShip) {
    standby = std::make_unique<HeldStandby>(freshSocketPath("held"));
    options.replicas.push_back(ipc::parseEndpoint(standby->path));
    options.replAck = ReplAck::kQuorum;
  }
  SessionService store(options);

  std::vector<std::thread> threads;
  service::SessionOpenResponse resumed;
  service::SessionMutateResponse mutated;
  service::SessionCloseResponse closed;
  std::shared_ptr<Gate> gate;
  if (GetParam() == CloseDuring::kPromotionWait) {
    ASSERT_EQ(store.replAppend(replRequestFor(config, 1, mut(1))).status,
              SessionStatus::kOk);
    awaitCaughtUp(store, config);
    gate = SessionServiceTestAccess::hold(store, "t@s");
    threads.emplace_back(
        [&] { store.replAppend(replRequestFor(config, 1, mut(2))); });
    awaitQueued(store, 1);
    // The client's resume promotes the standby, which first applies seq 2.
    threads.emplace_back([&] { resumed = store.open(openRequestFor(config)); });
    awaitQueued(store, 2);
  } else {
    ASSERT_EQ(store.open(openRequestFor(config)).status, SessionStatus::kOk);
    threads.emplace_back(
        [&] { mutated = store.mutate(mutateRequestFor(config, mut(1))); });
    standby->firstFrame.awaitEntered();  // the ship is on the wire
  }
  threads.emplace_back([&] { closed = store.close({"t", "s"}); });
  awaitQueued(store, GetParam() == CloseDuring::kPromotionWait ? 3 : 1);
  Reopener reopen(store, config);
  if (gate) gate->release();
  if (standby) standby->firstReply.release();
  for (std::thread& t : threads) t.join();
  ASSERT_TRUE(reopen.join());

  EXPECT_EQ(closed.status, SessionStatus::kOk) << closed.error;
  if (GetParam() == CloseDuring::kPromotionWait)
    EXPECT_TRUE(resumed.status == SessionStatus::kOk ||
                resumed.status == SessionStatus::kNotFound)
        << resumed.error;
  else
    EXPECT_TRUE(mutated.status == SessionStatus::kOk ||
                mutated.status == SessionStatus::kNotFound)
        << mutated.error;
  // The reopened session is fresh: a primary at epoch 1 that received
  // nothing of its predecessor, in memory or in its journal.
  const auto status = awaitCaughtUp(store, config);
  ASSERT_EQ(status.status, SessionStatus::kOk);
  EXPECT_EQ(status.role, "primary");
  EXPECT_EQ(status.epoch, 1u);
  EXPECT_EQ(status.lastAccepted, 0u);
  const auto wal = fsio::readFileIfExists(dir.path + "/t@s.wal");
  ASSERT_TRUE(wal.has_value());
  EXPECT_EQ(wal->find("mut "), std::string::npos) << *wal;
}

INSTANTIATE_TEST_SUITE_P(
    Races, SessionServiceCloseRace,
    ::testing::Values(CloseDuring::kPromotionWait, CloseDuring::kQuorumShip),
    [](const ::testing::TestParamInfo<CloseDuring>& info) {
      return info.param == CloseDuring::kPromotionWait ? "PromotionWait"
                                                        : "QuorumShip";
    });

// --- Failover against a real standby daemon -------------------------------

struct Daemon {
  pid_t pid = -1;

  void start(const std::string& socketPath, const std::string& stateDir) {
    pid = fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
      const std::string binary = rfsmdPath();
      ::execl(binary.c_str(), binary.c_str(), "--socket", socketPath.c_str(),
              "--state-dir", stateDir.c_str(), "--workers", "1",
              "--snapshot-every", "2", static_cast<char*>(nullptr));
      _exit(127);
    }
    for (int spin = 0; spin < 200; ++spin) {
      if (::access(socketPath.c_str(), F_OK) == 0) return;
      std::this_thread::sleep_for(25ms);
    }
    FAIL() << "rfsmd did not come up on " << socketPath;
  }

  ~Daemon() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }
};

TEST(ReplFailover, QuorumShipsToADaemonStandbyWhichPromotesByteIdentical) {
  const SessionConfig config = smallConfig("ha", "stream");
  const std::string socketPath = freshSocketPath("standby");
  TempDir standbyDir;
  Daemon standby;
  standby.start(socketPath, standbyDir.path);

  // An in-process primary quorum-replicating to the daemon.
  TempDir primaryDir;
  SessionServiceOptions primaryOptions;
  primaryOptions.stateDir = primaryDir.path;
  primaryOptions.replicas.push_back(ipc::parseEndpoint(socketPath));
  primaryOptions.replAck = ReplAck::kQuorum;
  SessionService primary(primaryOptions);
  ASSERT_EQ(primary.open(openRequestFor(config)).status, SessionStatus::kOk);

  SessionEngine reference(config);
  std::vector<std::pair<std::uint64_t, std::string>> expected, transcript;
  for (std::uint64_t k = 1; k <= 4; ++k) {
    const auto response = primary.mutate(mutateRequestFor(config, mut(k)));
    ASSERT_EQ(response.status, SessionStatus::kOk) << response.error;
    transcript.emplace_back(k, response.program);
  }

  // Quorum means the standby journaled every acked record *before* the
  // ack — its high-water mark cannot trail the primary's.
  service::SessionStream::Options streamOptions;
  streamOptions.endpoint = ipc::parseEndpoint(socketPath);
  streamOptions.retryFor = 10s;
  service::SessionStream stream(streamOptions);
  service::SessionStatusResponse status;
  for (int spin = 0; spin < 400; ++spin) {
    status = stream.status({config.tenant, config.name});
    if (status.status == SessionStatus::kOk && status.applied == 4u) break;
    std::this_thread::sleep_for(10ms);
  }
  ASSERT_EQ(status.status, SessionStatus::kOk) << status.error;
  EXPECT_EQ(status.role, "standby");
  EXPECT_EQ(status.lastAccepted, 4u);
  EXPECT_EQ(status.applied, 4u);

  // Failover: the client re-opens against the standby, which promotes and
  // serves the rest of the stream.
  const auto resumed = stream.open(openRequestFor(config));
  ASSERT_EQ(resumed.status, SessionStatus::kOk);
  ASSERT_EQ(resumed.lastApplied, 4u);
  for (std::uint64_t k = 5; k <= 6; ++k) {
    const auto response = stream.mutate(mutateRequestFor(config, mut(k)));
    ASSERT_EQ(response.status, SessionStatus::kOk) << response.error;
    transcript.emplace_back(k, response.program);
  }
  const auto promoted = stream.status({config.tenant, config.name});
  EXPECT_EQ(promoted.role, "primary");
  EXPECT_EQ(promoted.epoch, 2u);

  // The failed-over transcript equals the uninterrupted reference.
  for (std::uint64_t k = 1; k <= 6; ++k) {
    const PlanOutcome outcome = reference.apply(mut(k));
    ASSERT_TRUE(outcome.planned);
    expected.emplace_back(k, outcome.program);
  }
  ASSERT_EQ(transcript.size(), expected.size());
  for (std::size_t k = 0; k < expected.size(); ++k)
    EXPECT_EQ(transcript[k].second, expected[k].second)
        << "plan at seq " << expected[k].first << " diverged after failover";

  // The deposed primary's next quorum ship hits the promoted standby's
  // higher epoch: the client is refused (kStaleEpoch), nothing is acked,
  // and the session stays fenced.
  const auto fencedResponse = primary.mutate(mutateRequestFor(config, mut(5)));
  EXPECT_EQ(fencedResponse.status, SessionStatus::kStaleEpoch)
      << fencedResponse.error;
  EXPECT_EQ(primary.mutate(mutateRequestFor(config, mut(5))).status,
            SessionStatus::kStaleEpoch);  // fence is sticky
  ::unlink(socketPath.c_str());
}

}  // namespace
}  // namespace rfsm
