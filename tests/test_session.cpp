// The multi-tenant session layer, bottom to top: RecordLog framing, the
// durable-IO helpers, admission/fairness primitives, the session wire
// frames, SessionEngine determinism and snapshots, SessionService
// journaling + recovery (including torn tails and corrupt snapshots), and
// — the headline contract — a real rfsmd SIGKILLed at *every* kill point
// between mutations, restarted, and resumed, with the stitched transcript
// byte-identical to an uninterrupted reference run.
//
// The rfsmd binary path comes from RFSM_RFSMD_BUILD_PATH (a CMake
// target-file definition) or the RFSM_RFSMD environment override.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/journal.hpp"
#include "fsm/serialize.hpp"
#include "service/protocol.hpp"
#include "service/session.hpp"
#include "util/fair.hpp"
#include "util/fsio.hpp"
#include "util/ipc.hpp"
#include "rfsmd_harness.hpp"

namespace rfsm {
namespace {

using namespace std::chrono_literals;
using service::MutationRecord;
using service::PlanOutcome;
using service::SessionConfig;
using service::SessionEngine;
using service::SessionService;
using service::SessionServiceOptions;
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

// --- RecordLog ------------------------------------------------------------

TEST(RecordLog, RoundTripsRecords) {
  RecordLog log("test-log v1");
  std::string text = log.headerLine();
  text += log.appendLine("alpha 1");
  text += log.appendLine("beta 2");
  text += log.appendLine("gamma 3");
  const RecordLog::Parsed parsed = RecordLog::parse("test-log v1", text);
  EXPECT_FALSE(parsed.truncated);
  ASSERT_EQ(parsed.records.size(), 3u);
  EXPECT_EQ(parsed.records[0], "alpha 1");
  EXPECT_EQ(parsed.records[2], "gamma 3");
}

TEST(RecordLog, ToleratesTornFinalRecord) {
  RecordLog log("test-log v1");
  std::string text = log.headerLine();
  text += log.appendLine("alpha 1");
  std::string torn = log.appendLine("beta 2");
  torn.resize(torn.size() / 2);  // the power cut hit mid-write
  const RecordLog::Parsed parsed =
      RecordLog::parse("test-log v1", text + torn);
  EXPECT_TRUE(parsed.truncated);
  ASSERT_EQ(parsed.records.size(), 1u);
  EXPECT_EQ(parsed.records[0], "alpha 1");
}

TEST(RecordLog, RejectsMidLogDamage) {
  RecordLog log("test-log v1");
  std::string first = log.appendLine("alpha 1");
  const std::string rest = log.appendLine("beta 2");
  first[0] = 'X';  // damage a non-final record
  EXPECT_THROW(
      RecordLog::parse("test-log v1", log.headerLine() + first + rest),
      JournalError);
}

TEST(RecordLog, RejectsReorderedRecords) {
  RecordLog log("test-log v1");
  const std::string header = log.headerLine();
  const std::string a = log.appendLine("alpha 1");
  const std::string b = log.appendLine("beta 2");
  const std::string c = log.appendLine("gamma 3");
  // Chained checksums are order-sensitive: swapping intact records breaks
  // the chain even though each line's own bytes are untouched.
  EXPECT_THROW(RecordLog::parse("test-log v1", header + b + a + c),
               JournalError);
}

TEST(RecordLog, RejectsWrongHeader) {
  RecordLog log("test-log v1");
  EXPECT_THROW(RecordLog::parse("other-log v1",
                                log.headerLine() + log.appendLine("a 1")),
               JournalError);
}

// --- fsio -----------------------------------------------------------------

TEST(Fsio, WriteFileDurableReplacesAtomically) {
  TempDir dir;
  const std::string path = dir.path + "/file";
  fsio::writeFileDurable(path, "first");
  fsio::writeFileDurable(path, "second");
  const auto read = fsio::readFileIfExists(path);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(*read, "second");
  // No temp files left behind.
  EXPECT_EQ(fsio::listDir(dir.path).size(), 1u);
}

TEST(Fsio, ReadFileIfExistsReturnsNulloptWhenAbsent) {
  TempDir dir;
  EXPECT_FALSE(fsio::readFileIfExists(dir.path + "/missing").has_value());
}

TEST(Fsio, AppendDurableAccumulates) {
  TempDir dir;
  const std::string path = dir.path + "/wal";
  {
    ipc::Fd fd = fsio::openAppend(path);
    fsio::appendDurable(fd.get(), path, "one\n");
    fsio::appendDurable(fd.get(), path, "two\n");
  }
  {
    ipc::Fd fd = fsio::openAppend(path);  // reopen appends, not truncates
    fsio::appendDurable(fd.get(), path, "three\n");
  }
  EXPECT_EQ(fsio::readFileIfExists(path).value_or(""), "one\ntwo\nthree\n");
}

TEST(Fsio, RemoveAndRenameDurable) {
  TempDir dir;
  const std::string path = dir.path + "/file";
  fsio::writeFileDurable(path, "x");
  fsio::renameDurable(path, path + ".corrupt");
  EXPECT_FALSE(fsio::readFileIfExists(path).has_value());
  EXPECT_TRUE(fsio::readFileIfExists(path + ".corrupt").has_value());
  fsio::removeFileDurable(path + ".corrupt");
  fsio::removeFileDurable(path + ".corrupt");  // idempotent when absent
  EXPECT_TRUE(fsio::listDir(dir.path).empty());
}

// --- TokenBucket / FairScheduler -----------------------------------------

TEST(TokenBucket, UnlimitedRateAlwaysAdmits) {
  TokenBucket bucket(0.0, 1.0);
  const auto now = TokenBucket::Clock::now();
  for (int k = 0; k < 100; ++k) EXPECT_TRUE(bucket.tryTake(1.0, now));
  EXPECT_EQ(bucket.msUntil(1.0, now), 0);
}

TEST(TokenBucket, RejectsBeyondBurstAndHintsRetry) {
  TokenBucket bucket(10.0, 2.0);  // 10/s, burst 2
  const auto now = TokenBucket::Clock::now();
  EXPECT_TRUE(bucket.tryTake(1.0, now));
  EXPECT_TRUE(bucket.tryTake(1.0, now));
  EXPECT_FALSE(bucket.tryTake(1.0, now));
  // One token refills in 100 ms at 10/s.
  const std::int64_t hint = bucket.msUntil(1.0, now);
  EXPECT_GT(hint, 0);
  EXPECT_LE(hint, 100);
  // After the hinted wait the take succeeds.
  EXPECT_TRUE(bucket.tryTake(1.0, now + std::chrono::milliseconds(hint)));
}

TEST(FairScheduler, StrictPriorityClassesFirst) {
  FairScheduler scheduler;
  std::vector<std::string> order;
  const auto item = [&order](const std::string& tag) {
    return FairScheduler::Item{[&order, tag] { order.push_back(tag); }, 1.0};
  };
  scheduler.enqueue("batch", 2, 1.0, item("batch1"));
  scheduler.enqueue("interactive", 0, 1.0, item("int1"));
  while (auto next = scheduler.next()) {
    next->item.run();
    scheduler.done(next->flow);
  }
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "int1");
  EXPECT_EQ(order[1], "batch1");
}

TEST(FairScheduler, WeightsShareProportionally) {
  FairScheduler scheduler;
  std::vector<std::string> order;
  const auto item = [&order](const std::string& tag) {
    return FairScheduler::Item{[&order, tag] { order.push_back(tag); }, 1.0};
  };
  for (int k = 0; k < 8; ++k) {
    scheduler.enqueue("heavy", 1, 3.0, item("heavy"));
    scheduler.enqueue("light", 1, 1.0, item("light"));
  }
  // Drain serially; a 3:1 weight ratio must give "heavy" three slots per
  // "light" slot in every window once both are backlogged.
  while (auto next = scheduler.next()) {
    next->item.run();
    scheduler.done(next->flow);
  }
  ASSERT_EQ(order.size(), 16u);
  int heavyInFirst8 = 0;
  for (int k = 0; k < 8; ++k) heavyInFirst8 += order[k] == "heavy" ? 1 : 0;
  EXPECT_EQ(heavyInFirst8, 6);  // 3:1 split of the first two windows
}

TEST(FairScheduler, OneInFlightPerFlowAndFifoWithin) {
  FairScheduler scheduler;
  std::vector<int> ran;
  for (int k = 0; k < 3; ++k)
    scheduler.enqueue("flow", 1, 1.0,
                      {[&ran, k] { ran.push_back(k); }, 1.0});
  auto first = scheduler.next();
  ASSERT_TRUE(first.has_value());
  // The flow is in flight: nothing else is runnable until done().
  EXPECT_FALSE(scheduler.next().has_value());
  first->item.run();
  scheduler.done("flow");
  auto second = scheduler.next();
  ASSERT_TRUE(second.has_value());
  second->item.run();
  scheduler.done("flow");
  ASSERT_EQ(ran.size(), 2u);
  EXPECT_EQ(ran[0], 0);
  EXPECT_EQ(ran[1], 1);
  EXPECT_FALSE(scheduler.idle());
}

TEST(FairScheduler, IdleFlowBanksNoCredit) {
  FairScheduler scheduler;
  const auto item = [] { return FairScheduler::Item{[] {}, 1.0}; };
  // "worker" accumulates virtual time alone while "sleeper" idles.
  scheduler.enqueue("worker", 1, 1.0, item());
  for (int k = 0; k < 6; ++k) {
    auto next = scheduler.next();
    ASSERT_TRUE(next.has_value());
    scheduler.done(next->flow);
    scheduler.enqueue("worker", 1, 1.0, item());
  }
  // Drain the loose worker item so both flows start backlogged together.
  scheduler.done(scheduler.next()->flow);
  for (int k = 0; k < 4; ++k) {
    scheduler.enqueue("sleeper", 1, 1.0, item());
    scheduler.enqueue("worker", 1, 1.0, item());
  }
  // The sleeper's vtime is bumped to the scheduler's current virtual time
  // on re-arrival.  With banked credit it would owe ~7 units of catch-up
  // and monopolize the first 4 slots; bumped, the worker appears early.
  std::vector<std::string> head;
  for (int k = 0; k < 4; ++k) {
    auto next = scheduler.next();
    ASSERT_TRUE(next.has_value());
    head.push_back(next->flow);
    scheduler.done(next->flow);
  }
  EXPECT_NE(std::count(head.begin(), head.end(), std::string("worker")), 0);
}

// --- Session wire frames --------------------------------------------------

TEST(SessionProtocol, MutateRoundTrip) {
  service::SessionMutateRequest request;
  request.tenant = "acme";
  request.name = "pipeline";
  request.seq = 42;
  request.deltaCount = 7;
  request.newStateCount = 1;
  request.mutationSeed = 987654321;
  request.defer = true;
  request.ackSeq = 40;
  const auto decoded = service::decodeSessionMutateRequest(
      service::encodeSessionMutateRequest(request));
  EXPECT_EQ(decoded.tenant, "acme");
  EXPECT_EQ(decoded.seq, 42u);
  EXPECT_EQ(decoded.deltaCount, 7u);
  EXPECT_EQ(decoded.newStateCount, 1u);
  EXPECT_EQ(decoded.mutationSeed, 987654321u);
  EXPECT_TRUE(decoded.defer);
  EXPECT_EQ(decoded.ackSeq, 40u);

  service::SessionMutateResponse response;
  response.status = SessionStatus::kResourceExhausted;
  response.error = "over rate";
  response.seq = 42;
  response.retryAfterMs = 125;
  const auto back = service::decodeSessionMutateResponse(
      service::encodeSessionMutateResponse(response));
  EXPECT_EQ(back.status, SessionStatus::kResourceExhausted);
  EXPECT_EQ(back.error, "over rate");
  EXPECT_EQ(back.retryAfterMs, 125);
}

TEST(SessionProtocol, OpenReplayCloseRoundTrip) {
  service::SessionOpenRequest open;
  open.tenant = "acme";
  open.name = "pipeline";
  open.priority = 0;
  open.weight = 3;
  open.planner = "greedy";
  open.stateCount = 5;
  open.seed = 99;
  open.resume = false;
  const auto openBack = service::decodeSessionOpenRequest(
      service::encodeSessionOpenRequest(open));
  EXPECT_EQ(openBack.planner, "greedy");
  EXPECT_EQ(openBack.priority, 0u);
  EXPECT_EQ(openBack.weight, 3u);
  EXPECT_FALSE(openBack.resume);

  service::SessionReplayResponse replay;
  replay.status = SessionStatus::kOk;
  replay.entries.push_back({3, "prog-three"});
  replay.entries.push_back({5, "prog-five"});
  const auto replayBack = service::decodeSessionReplayResponse(
      service::encodeSessionReplayResponse(replay));
  ASSERT_EQ(replayBack.entries.size(), 2u);
  EXPECT_EQ(replayBack.entries[1].seq, 5u);
  EXPECT_EQ(replayBack.entries[1].program, "prog-five");

  service::SessionCloseResponse close;
  close.status = SessionStatus::kOk;
  close.mutationsApplied = 17;
  close.plans = 9;
  const auto closeBack = service::decodeSessionCloseResponse(
      service::encodeSessionCloseResponse(close));
  EXPECT_EQ(closeBack.mutationsApplied, 17u);
  EXPECT_EQ(closeBack.plans, 9u);
}

TEST(SessionProtocol, ValidatesNames) {
  EXPECT_TRUE(service::validSessionName("tenant-1.main_A"));
  EXPECT_FALSE(service::validSessionName(""));
  EXPECT_FALSE(service::validSessionName("has space"));
  EXPECT_FALSE(service::validSessionName("at@sign"));
  EXPECT_FALSE(service::validSessionName(std::string(65, 'a')));
}

// --- SessionEngine --------------------------------------------------------

TEST(SessionEngine, TranscriptIsDeterministic) {
  SessionEngine a(smallConfig());
  SessionEngine b(smallConfig());
  for (std::uint64_t k = 1; k <= 6; ++k) {
    const PlanOutcome oa = a.apply(mut(k, k % 3 != 0));
    const PlanOutcome ob = b.apply(mut(k, k % 3 != 0));
    EXPECT_EQ(oa.planned, ob.planned);
    EXPECT_EQ(oa.program, ob.program) << "seq " << k;
  }
  EXPECT_EQ(toJson(a.machine()), toJson(b.machine()));
}

TEST(SessionEngine, CompactsDeferredRuns) {
  SessionEngine engine(smallConfig());
  EXPECT_FALSE(engine.apply(mut(1, true)).planned);
  EXPECT_FALSE(engine.apply(mut(2, true)).planned);
  EXPECT_EQ(engine.pendingCount(), 2u);
  const PlanOutcome flushed = engine.apply(mut(3, false));
  ASSERT_TRUE(flushed.planned);
  EXPECT_EQ(flushed.compactedFrom, 3u);
  EXPECT_EQ(flushed.deltasRaw, 9);  // 3 mutations x 3 requested deltas
  // The net delta set can only shrink under composition.
  EXPECT_LE(flushed.deltasPlanned, flushed.deltasRaw);
  EXPECT_EQ(engine.pendingCount(), 0u);
}

TEST(SessionEngine, FailedMutationConsumesSeqButKeepsState) {
  SessionConfig config = smallConfig();
  SessionEngine engine(config);
  ASSERT_TRUE(engine.apply(mut(1)).planned);
  const std::string machineAfter1 = toJson(engine.machine());
  // An infeasible spec: more new states than deltas can wire up.
  MutationRecord bad = mut(2);
  bad.newStateCount = 50;
  bad.deltaCount = 1;
  const PlanOutcome outcome = engine.apply(bad);
  EXPECT_TRUE(outcome.failed);
  EXPECT_FALSE(outcome.planned);
  EXPECT_FALSE(outcome.error.empty());
  EXPECT_EQ(engine.lastApplied(), 2u);
  EXPECT_EQ(toJson(engine.machine()), machineAfter1);
  // And the session continues past it.
  EXPECT_TRUE(engine.apply(mut(3)).planned);
}

TEST(SessionEngine, SnapshotRestoreContinuesIdentically) {
  SessionEngine reference(smallConfig());
  SessionEngine live(smallConfig());
  for (std::uint64_t k = 1; k <= 3; ++k) {
    reference.apply(mut(k, k == 2));
    live.apply(mut(k, k == 2));
  }
  ipc::MessageWriter writer;
  live.encodeSnapshot(writer);
  const std::string bytes = writer.take();
  ipc::MessageReader reader(bytes);
  SessionEngine restored = SessionEngine::decodeSnapshot(reader);
  EXPECT_EQ(restored.lastApplied(), 3u);
  EXPECT_EQ(restored.config(), reference.config());
  for (std::uint64_t k = 4; k <= 7; ++k) {
    const PlanOutcome a = reference.apply(mut(k, k == 5));
    const PlanOutcome b = restored.apply(mut(k, k == 5));
    EXPECT_EQ(a.program, b.program) << "seq " << k;
  }
}

TEST(SessionEngine, RejectsOutOfOrderSeq) {
  SessionEngine engine(smallConfig());
  engine.apply(mut(1));
  EXPECT_THROW(engine.apply(mut(3)), Error);
}

// --- SessionService (in-process) -----------------------------------------

TEST(SessionService, StreamsMatchTheEngineReference) {
  SessionServiceOptions options;  // volatile: no stateDir
  SessionService serviceStore(options);
  const SessionConfig config = smallConfig();
  ASSERT_EQ(serviceStore.open(openRequestFor(config)).status,
            SessionStatus::kOk);
  SessionEngine reference(config);
  for (std::uint64_t k = 1; k <= 5; ++k) {
    const MutationRecord rec = mut(k, k == 2);
    const auto response =
        serviceStore.mutate(mutateRequestFor(config, rec));
    const PlanOutcome expected = reference.apply(rec);
    if (expected.planned) {
      EXPECT_EQ(response.status, SessionStatus::kOk);
      EXPECT_EQ(response.program, expected.program) << "seq " << k;
    } else {
      EXPECT_EQ(response.status, SessionStatus::kAccepted);
    }
  }
  const auto closed = serviceStore.close({config.tenant, config.name});
  EXPECT_EQ(closed.status, SessionStatus::kOk);
  EXPECT_EQ(closed.mutationsApplied, 5u);
}

TEST(SessionService, DuplicateSeqIsAnsweredFromTranscript) {
  SessionService serviceStore(SessionServiceOptions{});
  const SessionConfig config = smallConfig();
  ASSERT_EQ(serviceStore.open(openRequestFor(config)).status,
            SessionStatus::kOk);
  const MutationRecord rec = mut(1);
  const auto first = serviceStore.mutate(mutateRequestFor(config, rec));
  ASSERT_EQ(first.status, SessionStatus::kOk);
  // A client that lost the reply resends the same seq: identical answer,
  // no re-planning (the plan counter is unchanged).
  const auto again = serviceStore.mutate(mutateRequestFor(config, rec));
  EXPECT_EQ(again.status, SessionStatus::kOk);
  EXPECT_EQ(again.program, first.program);
  const auto closed = serviceStore.close({config.tenant, config.name});
  EXPECT_EQ(closed.plans, 1u);
}

TEST(SessionService, RejectsGapsAndUnknownSessions) {
  SessionService serviceStore(SessionServiceOptions{});
  const SessionConfig config = smallConfig();
  EXPECT_EQ(serviceStore.mutate(mutateRequestFor(config, mut(1))).status,
            SessionStatus::kNotFound);
  ASSERT_EQ(serviceStore.open(openRequestFor(config)).status,
            SessionStatus::kOk);
  const auto gap = serviceStore.mutate(mutateRequestFor(config, mut(3)));
  EXPECT_EQ(gap.status, SessionStatus::kBadSequence);
}

TEST(SessionService, AdmissionControlRejectsWithRetryHint) {
  SessionServiceOptions options;
  options.tenantRate = 0.5;  // one mutation per 2 s...
  options.tenantBurst = 2.0;  // ...after a burst of 2
  SessionService serviceStore(options);
  const SessionConfig aggressor = smallConfig("aggr", "s");
  const SessionConfig victim = smallConfig("victim", "s");
  ASSERT_EQ(serviceStore.open(openRequestFor(aggressor)).status,
            SessionStatus::kOk);
  ASSERT_EQ(serviceStore.open(openRequestFor(victim)).status,
            SessionStatus::kOk);
  int rejected = 0;
  std::int64_t hint = 0;
  for (std::uint64_t k = 1; k <= 6; ++k) {
    const auto response =
        serviceStore.mutate(mutateRequestFor(aggressor, mut(k)));
    if (response.status == SessionStatus::kResourceExhausted) {
      ++rejected;
      hint = response.retryAfterMs;
      break;  // seq was not accepted; further seqs would be kBadSequence
    }
  }
  EXPECT_GE(rejected, 1);
  EXPECT_GT(hint, 0);
  // The aggressor's exhaustion is per-tenant: the victim is untouched.
  EXPECT_EQ(serviceStore.mutate(mutateRequestFor(victim, mut(1))).status,
            SessionStatus::kOk);
}

TEST(SessionService, DrainingRejectsNewWorkButAnswersDuplicates) {
  SessionService serviceStore(SessionServiceOptions{});
  const SessionConfig config = smallConfig();
  ASSERT_EQ(serviceStore.open(openRequestFor(config)).status,
            SessionStatus::kOk);
  const auto first = serviceStore.mutate(mutateRequestFor(config, mut(1)));
  ASSERT_EQ(first.status, SessionStatus::kOk);
  serviceStore.beginDrain();
  EXPECT_EQ(serviceStore.mutate(mutateRequestFor(config, mut(2))).status,
            SessionStatus::kDraining);
  EXPECT_EQ(serviceStore.open(openRequestFor(smallConfig("t2", "s2"))).status,
            SessionStatus::kDraining);
  // Duplicates still answer — a drain must not strand a client that lost
  // its reply.
  EXPECT_EQ(serviceStore.mutate(mutateRequestFor(config, mut(1))).program,
            first.program);
}

TEST(SessionService, RecoversFromJournalAfterUncleanStop) {
  TempDir dir;
  const SessionConfig config = smallConfig();
  SessionEngine reference(config);
  std::vector<std::string> firstHalf;
  {
    SessionServiceOptions options;
    options.stateDir = dir.path;
    options.snapshotEvery = 2;
    SessionService first(options);
    ASSERT_EQ(first.open(openRequestFor(config)).status, SessionStatus::kOk);
    for (std::uint64_t k = 1; k <= 3; ++k) {
      const auto response = first.mutate(
          mutateRequestFor(config, mut(k, k == 2)));
      firstHalf.push_back(response.program);
      reference.apply(mut(k, k == 2));
    }
    // No drain(): the destructor stops executors without persisting a
    // final snapshot — recovery must come from the journal.
  }
  SessionServiceOptions options;
  options.stateDir = dir.path;
  SessionService second(options);
  EXPECT_EQ(second.recoveredSessions(), 1u);
  EXPECT_EQ(second.quarantined(), 0u);
  const auto resumed = second.open(openRequestFor(config));
  EXPECT_EQ(resumed.status, SessionStatus::kOk);
  EXPECT_EQ(resumed.lastApplied, 3u);
  // The recovered session continues exactly where the reference is.
  for (std::uint64_t k = 4; k <= 6; ++k) {
    const auto response =
        second.mutate(mutateRequestFor(config, mut(k, k == 5)));
    const PlanOutcome expected = reference.apply(mut(k, k == 5));
    EXPECT_EQ(response.program, expected.program) << "seq " << k;
  }
  // And the recovered transcript prefix is intact for replay.
  service::SessionReplayRequest replayRequest;
  replayRequest.tenant = config.tenant;
  replayRequest.name = config.name;
  const auto replayed = second.replay(replayRequest);
  ASSERT_EQ(replayed.status, SessionStatus::kOk);
  // Planned entries only — 1 and 3 from before the crash (2 deferred into
  // 3's flush), 4 and 6 from after (5 deferred into 6's flush).
  ASSERT_EQ(replayed.entries.size(), 4u);
  EXPECT_EQ(replayed.entries[0].seq, 1u);
  EXPECT_EQ(replayed.entries[0].program, firstHalf[0]);
  EXPECT_EQ(replayed.entries[1].seq, 3u);
  EXPECT_EQ(replayed.entries[1].program, firstHalf[2]);
}

TEST(SessionService, TornJournalTailRecoversThePrefix) {
  TempDir dir;
  const SessionConfig config = smallConfig();
  {
    SessionServiceOptions options;
    options.stateDir = dir.path;
    options.snapshotEvery = 0;  // journal only
    SessionService first(options);
    ASSERT_EQ(first.open(openRequestFor(config)).status, SessionStatus::kOk);
    for (std::uint64_t k = 1; k <= 3; ++k)
      first.mutate(mutateRequestFor(config, mut(k)));
  }
  // Tear the final record, as a power cut mid-append would.
  const std::string wal = dir.path + "/t@s.wal";
  auto bytes = fsio::readFileIfExists(wal);
  ASSERT_TRUE(bytes.has_value());
  bytes->resize(bytes->size() - 5);
  fsio::writeFileDurable(wal, *bytes);

  SessionServiceOptions options;
  options.stateDir = dir.path;
  SessionService second(options);
  EXPECT_EQ(second.recoveredSessions(), 1u);
  const auto resumed = second.open(openRequestFor(config));
  EXPECT_EQ(resumed.status, SessionStatus::kOk);
  EXPECT_EQ(resumed.lastApplied, 2u);  // the torn seq-3 record dropped
}

TEST(SessionService, CorruptSnapshotIsQuarantinedAndJournalWins) {
  TempDir dir;
  const SessionConfig config = smallConfig();
  SessionEngine reference(config);
  {
    SessionServiceOptions options;
    options.stateDir = dir.path;
    options.snapshotEvery = 2;
    SessionService first(options);
    ASSERT_EQ(first.open(openRequestFor(config)).status, SessionStatus::kOk);
    for (std::uint64_t k = 1; k <= 2; ++k) {
      first.mutate(mutateRequestFor(config, mut(k)));
      reference.apply(mut(k));
    }
  }
  // Flip a byte in the snapshot body: the checksum must catch it.
  const std::string snap = dir.path + "/t@s.snap";
  auto bytes = fsio::readFileIfExists(snap);
  ASSERT_TRUE(bytes.has_value());
  (*bytes)[bytes->size() / 2] ^= 0x40;
  fsio::writeFileDurable(snap, *bytes);

  SessionServiceOptions options;
  options.stateDir = dir.path;
  SessionService second(options);
  EXPECT_EQ(second.quarantined(), 1u);
  EXPECT_TRUE(
      fsio::readFileIfExists(snap + ".corrupt").has_value());  // evidence
  // The journal alone still rebuilds the session (it was rotated at the
  // snapshot, but the snapshot covered seqs survive in... the rotated
  // journal only holds post-snapshot records, so recovery here must
  // rebuild from the open record) — lastApplied depends on what the
  // journal retains; the invariant is: no crash, and the session exists.
  const auto resumed = second.open(openRequestFor(config));
  EXPECT_EQ(resumed.status, SessionStatus::kOk);
}

TEST(SessionService, DrainPersistsEverySession) {
  TempDir dir;
  const SessionConfig config = smallConfig();
  {
    SessionServiceOptions options;
    options.stateDir = dir.path;
    options.snapshotEvery = 0;
    SessionService store(options);
    ASSERT_EQ(store.open(openRequestFor(config)).status, SessionStatus::kOk);
    for (std::uint64_t k = 1; k <= 3; ++k)
      store.mutate(mutateRequestFor(config, mut(k)));
    EXPECT_EQ(store.drain(), 1u);
  }
  // The drained state restarts cleanly (snapshot + rotated journal).
  SessionServiceOptions options;
  options.stateDir = dir.path;
  SessionService second(options);
  EXPECT_EQ(second.recoveredSessions(), 1u);
  const auto resumed = second.open(openRequestFor(config));
  EXPECT_EQ(resumed.lastApplied, 3u);
}

// --- Kill points against a real daemon ------------------------------------

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

  void sigkill() {
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    pid = -1;
  }

  int sigtermAndWait() {
    ::kill(pid, SIGTERM);
    int status = 0;
    ::waitpid(pid, &status, 0);
    pid = -1;
    return status;
  }

  ~Daemon() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
  }
};

/// The global mutation schedule shared by daemon runs and the local
/// reference engine: odd seqs defer (and compact into the next even
/// flush), except the final mutation, which always flushes.  The flag
/// depends only on (k, total) — never on where a kill split the stream —
/// so every resumed segment replays the same schedule.
MutationRecord scheduledMut(std::uint64_t k, std::uint64_t total) {
  return mut(k, k % 2 == 1 && k != total);
}

/// Streams mutations [from, to] of the `total`-long schedule into the
/// daemon and appends each planned program to `transcript` (resends after
/// reconnects are handled by SessionStream + the server's duplicate
/// answering).
void streamRange(service::SessionStream& stream, const SessionConfig& config,
                 std::uint64_t from, std::uint64_t to, std::uint64_t total,
                 std::vector<std::pair<std::uint64_t, std::string>>*
                     transcript) {
  for (std::uint64_t k = from; k <= to; ++k) {
    const auto response =
        stream.mutate(mutateRequestFor(config, scheduledMut(k, total)));
    ASSERT_TRUE(response.status == SessionStatus::kOk ||
                response.status == SessionStatus::kAccepted)
        << "seq " << k << ": " << toString(response.status) << " "
        << response.error;
    if (response.status == SessionStatus::kOk)
      transcript->emplace_back(k, response.program);
  }
}

TEST(SessionKillPoints, EveryKillPointResumesByteIdentical) {
  const std::uint64_t kMutations = 4;
  // The uninterrupted reference: the same engine the daemon runs.
  const SessionConfig config = smallConfig("kp", "stream");
  std::vector<std::pair<std::uint64_t, std::string>> reference;
  {
    SessionEngine engine(config);
    for (std::uint64_t k = 1; k <= kMutations; ++k) {
      const PlanOutcome outcome = engine.apply(scheduledMut(k, kMutations));
      if (outcome.planned) reference.emplace_back(k, outcome.program);
    }
  }

  // Kill after k mutations for every k in [0, kMutations), restart,
  // resume, finish — the stitched transcript must equal the reference.
  for (std::uint64_t killAfter = 0; killAfter < kMutations; ++killAfter) {
    SCOPED_TRACE("kill point " + std::to_string(killAfter));
    TempDir dir;
    const std::string socketPath =
        freshSocketPath(("kp" + std::to_string(killAfter)).c_str());
    std::vector<std::pair<std::uint64_t, std::string>> transcript;

    Daemon daemon;
    daemon.start(socketPath, dir.path);
    service::SessionStream::Options streamOptions;
    streamOptions.endpoint = ipc::parseEndpoint(socketPath);
    streamOptions.retryFor = 10s;
    {
      service::SessionStream stream(streamOptions);
      service::SessionOpenRequest open = openRequestFor(config);
      ASSERT_EQ(stream.open(open).status, SessionStatus::kOk);
      streamRange(stream, config, 1, killAfter, kMutations, &transcript);
    }
    daemon.sigkill();

    Daemon restarted;
    restarted.start(socketPath, dir.path);
    service::SessionStream stream(streamOptions);
    const auto resumed = stream.open(openRequestFor(config));
    ASSERT_EQ(resumed.status, SessionStatus::kOk);
    ASSERT_EQ(resumed.lastApplied, killAfter);
    streamRange(stream, config, killAfter + 1, kMutations, kMutations,
                &transcript);

    ASSERT_EQ(transcript.size(), reference.size());
    for (std::size_t k = 0; k < reference.size(); ++k) {
      EXPECT_EQ(transcript[k].first, reference[k].first);
      EXPECT_EQ(transcript[k].second, reference[k].second)
          << "plan at seq " << reference[k].first << " diverged";
    }
    const int status = restarted.sigtermAndWait();
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    ::unlink(socketPath.c_str());
  }
}

TEST(SessionKillPoints, KillMidStreamThenClientRetriesThroughRestart) {
  // The client keeps one SessionStream across the kill: the resend after
  // reconnect is answered from the recovered transcript.
  const SessionConfig config = smallConfig("kp2", "retry");
  TempDir dir;
  const std::string socketPath = freshSocketPath("retry");
  Daemon daemon;
  daemon.start(socketPath, dir.path);

  service::SessionStream::Options streamOptions;
  streamOptions.endpoint = ipc::parseEndpoint(socketPath);
  streamOptions.retryFor = 15s;
  service::SessionStream stream(streamOptions);
  ASSERT_EQ(stream.open(openRequestFor(config)).status, SessionStatus::kOk);
  std::vector<std::pair<std::uint64_t, std::string>> transcript;
  streamRange(stream, config, 1, 2, 4, &transcript);

  daemon.sigkill();
  // Restart concurrently with the client's next mutate: the client's
  // reconnect loop rides over the gap.
  std::thread restarter([&] {
    std::this_thread::sleep_for(300ms);
    daemon.start(socketPath, dir.path);
  });
  streamRange(stream, config, 3, 4, 4, &transcript);
  restarter.join();
  EXPECT_GE(stream.reconnects(), 1u);

  SessionEngine engine(config);
  std::vector<std::pair<std::uint64_t, std::string>> reference;
  for (std::uint64_t k = 1; k <= 4; ++k) {
    const PlanOutcome outcome = engine.apply(scheduledMut(k, 4));
    if (outcome.planned) reference.emplace_back(k, outcome.program);
  }
  ASSERT_EQ(transcript.size(), reference.size());
  for (std::size_t k = 0; k < reference.size(); ++k)
    EXPECT_EQ(transcript[k].second, reference[k].second);
  ::unlink(socketPath.c_str());
}

// --- Fairness under an aggressive tenant ---------------------------------

TEST(SessionFairness, StarvedTenantStillMakesBoundedProgress) {
  // One executor, an aggressor with a deep backlog of expensive items, a
  // victim streaming sequentially: weighted-fair scheduling must bound the
  // victim's completion to the same order of wall time as the aggressor's,
  // instead of letting the backlog starve it out.
  SessionServiceOptions options;
  options.executors = 1;
  SessionService store(options);
  const int kAggressorSessions = 3;
  std::vector<SessionConfig> aggressors;
  for (int a = 0; a < kAggressorSessions; ++a) {
    SessionConfig config =
        smallConfig("aggr", "s" + std::to_string(a));
    config.priority = 1;
    aggressors.push_back(config);
    ASSERT_EQ(store.open(openRequestFor(config)).status, SessionStatus::kOk);
  }
  SessionConfig victim = smallConfig("victim", "v");
  victim.priority = 1;
  ASSERT_EQ(store.open(openRequestFor(victim)).status, SessionStatus::kOk);

  const std::uint64_t kPerAggressor = 10;  // 10x the victim's rate
  std::vector<std::thread> threads;
  threads.reserve(aggressors.size());
  for (const SessionConfig& config : aggressors)
    threads.emplace_back([&store, config, kPerAggressor] {
      for (std::uint64_t k = 1; k <= kPerAggressor; ++k)
        store.mutate(mutateRequestFor(config, mut(k)));
    });

  // The victim streams 3 mutations while the aggressors flood.
  const auto victimStart = std::chrono::steady_clock::now();
  for (std::uint64_t k = 1; k <= 3; ++k) {
    const auto response = store.mutate(mutateRequestFor(victim, mut(k)));
    EXPECT_EQ(response.status, SessionStatus::kOk);
  }
  const auto victimTotal = std::chrono::steady_clock::now() - victimStart;
  for (std::thread& t : threads) t.join();

  // Bound: with fair scheduling the victim waits for at most a handful of
  // aggressor items per slot, never the whole 30-item backlog.  The bound
  // is deliberately loose (10x one victim stream) to stay robust on slow
  // CI machines while still failing a strict-FIFO regression, which would
  // cost the full backlog (~10x more).
  SessionEngine probe(victim);
  const auto probeStart = std::chrono::steady_clock::now();
  for (std::uint64_t k = 1; k <= 3; ++k) probe.apply(mut(k));
  const auto probeCost = std::chrono::steady_clock::now() - probeStart;
  EXPECT_LT(victimTotal, probeCost * 40 + std::chrono::seconds(2))
      << "victim total " << victimTotal.count() << "ns vs probe "
      << probeCost.count() << "ns";
}

}  // namespace
}  // namespace rfsm
