// util/chaos: deterministic disk/network fault injection.
//
// The tests pin down the three contracts everything else builds on:
//  * replayability — the same <seed>:<profile> produces the identical
//    injection schedule (journal digest) over the same operation sequence;
//  * typed failures — injected faults surface as FsError/IpcError with
//    path+offset/errno detail, never as silent corruption;
//  * permanence of a failed fsync — the descriptor stays poisoned after
//    the plane is disarmed, until a fresh fsio open recycles it.
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdlib>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "util/chaos.hpp"
#include "util/fsio.hpp"
#include "util/ipc.hpp"
#include "rfsmd_harness.hpp"

namespace rfsm {
namespace {

/// Every test leaves the process-global plane disarmed (other suites in
/// this binary — and the fixture-less tests — must never see stray chaos).
struct PlaneGuard {
  ~PlaneGuard() { chaos::plane().disarm(); }
};

TEST(ChaosProfiles, EveryNameResolvesAndRoundTripsItsName) {
  for (const std::string& name : chaos::profileNames()) {
    const auto profile = chaos::profileByName(name);
    ASSERT_TRUE(profile.has_value()) << name;
    EXPECT_EQ(profile->name, name);
  }
  EXPECT_FALSE(chaos::profileByName("definitely-not-a-profile").has_value());
}

TEST(ChaosProfiles, OffProfileInjectsNothing) {
  const auto off = chaos::profileByName("off");
  ASSERT_TRUE(off.has_value());
  EXPECT_EQ(off->diskErrorProbability, 0.0);
  EXPECT_EQ(off->corruptProbability, 0.0);
}

TEST(ChaosSpec, MalformedSpecsThrowWithProfileList) {
  PlaneGuard guard;
  EXPECT_THROW(chaos::plane().armFromSpec("no-colon"), Error);
  EXPECT_THROW(chaos::plane().armFromSpec(":net-light"), Error);
  EXPECT_THROW(chaos::plane().armFromSpec("7:"), Error);
  EXPECT_THROW(chaos::plane().armFromSpec("abc:net-light"), Error);
  try {
    chaos::plane().armFromSpec("7:bogus");
    FAIL() << "unknown profile must throw";
  } catch (const Error& error) {
    // The message lists the valid names, matching rfsmd --fault.
    EXPECT_NE(std::string(error.what()).find("net-light"), std::string::npos);
  }
  EXPECT_FALSE(chaos::plane().enabled());
}

TEST(ChaosSpec, ValidSpecArmsSeedAndProfile) {
  PlaneGuard guard;
  chaos::plane().armFromSpec("42:net-storm");
  EXPECT_TRUE(chaos::plane().enabled());
  EXPECT_EQ(chaos::plane().seed(), 42u);
  EXPECT_EQ(chaos::plane().profile().name, "net-storm");
  chaos::plane().disarm();
  EXPECT_FALSE(chaos::plane().enabled());
}

TEST(ChaosSpec, ArmFromEnvReadsRfsmChaos) {
  PlaneGuard guard;
  ::unsetenv("RFSM_CHAOS");
  EXPECT_FALSE(chaos::plane().armFromEnv());
  ::setenv("RFSM_CHAOS", "9:disk-light", 1);
  EXPECT_TRUE(chaos::plane().armFromEnv());
  EXPECT_EQ(chaos::plane().seed(), 9u);
  EXPECT_EQ(chaos::plane().profile().name, "disk-light");
  ::unsetenv("RFSM_CHAOS");
}

TEST(ChaosDeterminism, SameSeedSameWorkloadSameSchedule) {
  PlaneGuard guard;
  const auto run = [] {
    chaos::plane().armFromSpec("1234:full");
    // A fixed mixed drive across every decision site.
    for (int k = 0; k < 300; ++k) {
      (void)chaos::plane().onDiskWrite();
      (void)chaos::plane().onFsync();
      (void)chaos::plane().onRename();
      (void)chaos::plane().onAppend();
      (void)chaos::plane().onNetWrite();
      (void)chaos::plane().onNetRead();
      (void)chaos::plane().onConnect();
    }
    return std::tuple(chaos::plane().journalDigest(),
                      chaos::plane().injectedDisk(),
                      chaos::plane().injectedNet());
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first, second);
  EXPECT_GT(std::get<1>(first) + std::get<2>(first), 0u)
      << "the 'full' profile over 2100 draws should inject something";
}

TEST(ChaosDeterminism, DifferentSeedsDiverge) {
  PlaneGuard guard;
  const auto digestFor = [](const char* spec) {
    chaos::plane().armFromSpec(spec);
    for (int k = 0; k < 300; ++k) (void)chaos::plane().onNetWrite();
    return chaos::plane().journalDigest();
  };
  EXPECT_NE(digestFor("1:net-storm"), digestFor("2:net-storm"));
}

TEST(ChaosDeterminism, BudgetSuppressesInjectionNotDraws) {
  PlaneGuard guard;
  chaos::Profile profile = *chaos::profileByName("net-storm");
  profile.maxFaults = 3;
  chaos::plane().arm(77, profile);
  for (int k = 0; k < 500; ++k) (void)chaos::plane().onNetWrite();
  EXPECT_EQ(chaos::plane().injectedNet(), 3u);
  // The journal records exactly the injections that fired.
  EXPECT_EQ(chaos::plane().journal().size(), 3u);
}

TEST(ChaosDisk, InjectedWriteFailureNamesPathOffsetAndErrno) {
  PlaneGuard guard;
  TempDir dir;
  const std::string path = dir.path + "/victim";
  chaos::Profile always;
  always.name = "always-write-error";
  always.diskErrorProbability = 1.0;
  chaos::plane().arm(5, always);
  try {
    fsio::writeFileDurable(path, "payload");
    FAIL() << "injected write error must throw";
  } catch (const fsio::FsError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("offset"), std::string::npos) << what;
  }
}

TEST(ChaosDisk, FailedFsyncIsPermanentForTheFdUntilReopen) {
  PlaneGuard guard;
  TempDir dir;
  const std::string path = dir.path + "/wal";
  chaos::Profile fsyncStorm;
  fsyncStorm.name = "always-fsync-fail";
  fsyncStorm.fsyncFailProbability = 1.0;

  ipc::Fd fd = fsio::openAppend(path);
  chaos::plane().arm(11, fsyncStorm);
  EXPECT_THROW(fsio::appendDurable(fd.get(), path, "record\n"),
               fsio::FsError);
  // Disarming does NOT clean the descriptor: the kernel may have dropped
  // the dirty pages, so "retry and assume clean" stays impossible.
  chaos::plane().disarm();
  try {
    fsio::appendDurable(fd.get(), path, "record\n");
    FAIL() << "a latched-dirty fd must keep failing after disarm";
  } catch (const fsio::FsError& error) {
    EXPECT_NE(std::string(error.what()).find("earlier fsync"),
              std::string::npos)
        << error.what();
  }
  // A fresh open recycles the latch; appends work again.
  fd.reset();
  fd = fsio::openAppend(path);
  fsio::appendDurable(fd.get(), path, "clean\n");
}

TEST(ChaosDisk, PowerLossTruncationLeavesAPrefixAndLatchesTheFd) {
  PlaneGuard guard;
  TempDir dir;
  const std::string path = dir.path + "/wal";
  ipc::Fd fd = fsio::openAppend(path);
  fsio::appendDurable(fd.get(), path, "intact-record\n");

  chaos::Profile cut;
  cut.name = "always-truncate";
  cut.truncateProbability = 1.0;
  chaos::plane().arm(3, cut);
  const std::string record = "abcdefghijklmnopqrstuvwxyz\n";
  try {
    fsio::appendDurable(fd.get(), path, record);
    FAIL() << "injected truncation must throw";
  } catch (const fsio::FsError& error) {
    EXPECT_NE(std::string(error.what()).find("power-loss"), std::string::npos)
        << error.what();
  }
  chaos::plane().disarm();
  // The file holds the intact record plus at most a strict prefix of the
  // torn one — exactly the shape WAL recovery drops as a torn tail.
  const std::string bytes = fsio::readFileIfExists(path).value_or("");
  EXPECT_EQ(bytes.rfind("intact-record\n", 0), 0u);
  EXPECT_LT(bytes.size(), std::string("intact-record\n").size() + record.size());
  // And the fd is latched: nothing may land after a torn tail.
  EXPECT_THROW(fsio::appendDurable(fd.get(), path, "after\n"), fsio::FsError);
}

TEST(ChaosDisk, TornRenameKeepsOldBytesAndLeavesNoTemp) {
  PlaneGuard guard;
  TempDir dir;
  const std::string path = dir.path + "/snap";
  fsio::writeFileDurable(path, "old");
  chaos::Profile torn;
  torn.name = "always-torn-rename";
  torn.tornRenameProbability = 1.0;
  chaos::plane().arm(6, torn);
  EXPECT_THROW(fsio::writeFileDurable(path, "new"), fsio::FsError);
  chaos::plane().disarm();
  EXPECT_EQ(fsio::readFileIfExists(path).value_or(""), "old");
  EXPECT_EQ(fsio::listDir(dir.path).size(), 1u) << "no temp litter";
}

TEST(ChaosNet, DisabledPlaneIsInertForIpc) {
  PlaneGuard guard;
  chaos::plane().disarm();
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ipc::Fd a(sv[0]), b(sv[1]);
  ipc::writeFrame(a.get(), "hello");
  std::string payload;
  EXPECT_EQ(ipc::readFrame(b.get(), payload), ipc::ReadStatus::kOk);
  EXPECT_EQ(payload, "hello");
  EXPECT_EQ(chaos::plane().injectedNet(), 0u);
}

TEST(ChaosNet, CorruptionIsAlwaysCaughtByTheCrcTrailer) {
  PlaneGuard guard;
  chaos::Profile corrupt;
  corrupt.name = "always-corrupt";
  corrupt.corruptProbability = 1.0;
  chaos::plane().arm(21, corrupt);
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ipc::Fd a(sv[0]), b(sv[1]);
  // Every frame is corrupted by one flipped bit; every read must reject it
  // as a typed FrameError — never a successful read of wrong bytes.
  for (int k = 0; k < 20; ++k) {
    ipc::writeFrame(a.get(), "payload-" + std::to_string(k));
    std::string payload;
    EXPECT_THROW(ipc::readFrame(b.get(), payload), ipc::FrameError) << k;
  }
  EXPECT_GE(chaos::plane().injectedNet(), 20u);
}

TEST(ChaosNet, InjectedResetSurfacesAsIpcErrorNotFrameError) {
  PlaneGuard guard;
  chaos::Profile reset;
  reset.name = "always-reset";
  reset.resetProbability = 1.0;
  chaos::plane().arm(8, reset);
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ipc::Fd a(sv[0]), b(sv[1]);
  try {
    ipc::writeFrame(a.get(), "payload");
    FAIL() << "injected reset must throw";
  } catch (const ipc::FrameError&) {
    FAIL() << "a reset is a transport failure, not a malformed frame";
  } catch (const ipc::IpcError& error) {
    EXPECT_NE(std::string(error.what()).find("reset"), std::string::npos);
  }
}

TEST(ChaosNet, DuplicateFrameIsVisibleAsPendingInput) {
  PlaneGuard guard;
  chaos::Profile dup;
  dup.name = "always-duplicate";
  dup.duplicateProbability = 1.0;
  chaos::plane().arm(13, dup);
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ipc::Fd a(sv[0]), b(sv[1]);
  ipc::writeFrame(a.get(), "ping");
  chaos::plane().disarm();
  std::string payload;
  ASSERT_EQ(ipc::readFrame(b.get(), payload), ipc::ReadStatus::kOk);
  EXPECT_EQ(payload, "ping");
  // The duplicate is still queued: exactly what the desync checks in the
  // supervisor and SessionStream look for before pairing request/reply.
  EXPECT_TRUE(ipc::pendingInput(b.get()));
  ASSERT_EQ(ipc::readFrame(b.get(), payload), ipc::ReadStatus::kOk);
  EXPECT_EQ(payload, "ping");
  EXPECT_FALSE(ipc::pendingInput(b.get()));
}

}  // namespace
}  // namespace rfsm
