// Multi-tenant streaming sessions over resident machines.
//
// A session is a long-lived machine a tenant mutates continuously: each
// mutate frame derives a new target from the *current* machine
// (deltaCount/newStateCount/mutationSeed, gen/mutator.hpp), plans a
// reconfiguration program migrating the resident machine onto it, and
// returns the program text.  Deferred mutations batch up and are
// *compacted* when flushed: the run of pending targets is composed first,
// so only the net-changed cells are planned (a cell rewritten twice costs
// one delta; a reverted cell costs zero).
//
// Crash consistency is determinism-by-construction.  The whole transcript
// — every planned program, byte for byte — is a pure function of the open
// config and the accepted mutation sequence, because:
//
//   * targets are derived from Rng(mutationSeed), never from wall clocks;
//   * plans draw from Rng(seed).substream(kSessionPlanStreamBase + plan#);
//   * compaction boundaries are request-driven (the explicit defer flag),
//     never timing-driven.
//
// SessionEngine is that pure function, and it is the *only* implementation:
// the live daemon, journal replay after a SIGKILL, and the `rfsmc session
// stream --local` reference all run the same code, so a resumed session
// cannot diverge from an uninterrupted one.
//
// SessionService wraps engines with the robustness machinery: a per-session
// write-ahead journal (core/journal.hpp RecordLog framing; append + fsync
// *before* any work is scheduled) with periodic snapshots (whole-file
// atomic replace, util/fsio.hpp), hot-restart recovery, token-bucket
// admission control, and priority-classed weighted-fair scheduling
// (util/fair.hpp) across sessions.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "fsm/machine.hpp"
#include "service/protocol.hpp"
#include "service/repl.hpp"
#include "util/breaker.hpp"
#include "util/fair.hpp"
#include "util/ipc.hpp"

namespace rfsm::service {

/// Offset separating session planning streams from the batch substream
/// spaces (protocol.hpp kGenStreamBase) in the seed's substream space.
inline constexpr std::uint64_t kSessionPlanStreamBase = 1u << 21;

/// Immutable per-session configuration, fixed at open.
struct SessionConfig {
  std::string tenant;
  std::string name;
  int priority = 1;
  double weight = 1.0;
  std::string planner = "jsr";
  int stateCount = 8;
  int inputCount = 2;
  int outputCount = 2;
  std::uint64_t seed = 1;

  bool operator==(const SessionConfig&) const = default;
};

/// One accepted mutation — the unit of the write-ahead journal.
struct MutationRecord {
  std::uint64_t seq = 0;
  std::uint32_t deltaCount = 4;
  std::uint32_t newStateCount = 0;
  std::uint64_t mutationSeed = 0;
  bool defer = false;
};

// --- Session frames <-> config and records --------------------------------
//
// The one place a session frame is filled from a SessionConfig and a
// MutationRecord (or read back into them) field by field: the daemon, the
// replicator, `rfsmc session stream`, tests and benches all build frames
// here, so no copy can drift from the wire.

/// A session config from an open or replAppend frame (the same fields).
template <class Request>
SessionConfig configOf(const Request& request) {
  SessionConfig config;
  config.tenant = request.tenant;
  config.name = request.name;
  config.priority = static_cast<int>(request.priority);
  config.weight =
      static_cast<double>(std::max<std::uint32_t>(1, request.weight));
  config.planner = request.planner;
  config.stateCount = request.stateCount;
  config.inputCount = request.inputCount;
  config.outputCount = request.outputCount;
  config.seed = request.seed;
  return config;
}

/// The journaled record of a mutate or replAppend frame.
template <class Request>
MutationRecord recordOf(const Request& request) {
  MutationRecord rec;
  rec.seq = request.seq;
  rec.deltaCount = request.deltaCount;
  rec.newStateCount = request.newStateCount;
  rec.mutationSeed = request.mutationSeed;
  rec.defer = request.defer;
  return rec;
}

/// The open frame for `config` (`resume` keeps its default, true).
SessionOpenRequest openRequestFor(const SessionConfig& config);

/// The mutate frame carrying `rec` to the session `config` names.
SessionMutateRequest mutateRequestFor(const SessionConfig& config,
                                      const MutationRecord& rec);

/// The wire form of one journaled record for the replication plane:
/// config (so the standby can self-create), fencing epoch, and the
/// MutationRecord field for field.
SessionReplAppendRequest replRequestFor(const SessionConfig& config,
                                        std::uint64_t epoch,
                                        const MutationRecord& rec);

/// What applying one mutation produced.  Failures are deterministic too
/// (an infeasible spec fails identically on replay); a failed mutation
/// consumes its sequence number but leaves the machine and the pending
/// batch untouched.
struct PlanOutcome {
  bool planned = false;  ///< a program was produced (non-deferred flush)
  bool failed = false;
  std::string error;
  std::string program;  ///< rfsm-program text (planned only)
  std::uint64_t compactedFrom = 0;  ///< mutations folded into this plan
  int deltasPlanned = 0;
  int deltasRaw = 0;
};

/// The deterministic session core: resident machine + pending deferred
/// batch + plan counter.  Everything observable is a pure function of
/// (config, accepted mutation sequence); see the file comment.
class SessionEngine {
 public:
  explicit SessionEngine(SessionConfig config);

  const SessionConfig& config() const { return config_; }
  const Machine& machine() const { return machine_; }
  std::uint64_t lastApplied() const { return lastApplied_; }
  std::uint64_t planCount() const { return planCount_; }
  std::size_t pendingCount() const { return pending_.size(); }

  /// Applies the next mutation (rec.seq must be lastApplied() + 1;
  /// anything else is a caller bug and throws).  Deferred records just
  /// join the pending batch; a non-deferred record composes pending + self
  /// into one target, plans the compacted delta set, applies the program
  /// to the resident machine, and advances it.
  PlanOutcome apply(const MutationRecord& rec);

  /// Snapshot encode/decode (binary, ipc::MessageWriter fields + trailing
  /// checksum).  decodeSnapshot throws ipc::IpcError / Error on damage.
  void encodeSnapshot(ipc::MessageWriter& writer) const;
  static SessionEngine decodeSnapshot(ipc::MessageReader& reader);

 private:
  SessionEngine(SessionConfig config, Machine machine);

  SessionConfig config_;
  Machine machine_;
  std::vector<MutationRecord> pending_;
  std::uint64_t lastApplied_ = 0;
  std::uint64_t planCount_ = 0;
};

/// Validates tenant/session names: 1-64 chars of [A-Za-z0-9._-] (they are
/// embedded in journal record lines and file names).
bool validSessionName(const std::string& name);

struct SessionServiceOptions {
  /// Directory for journals and snapshots; "" = volatile sessions (no
  /// crash recovery, still drainable).
  std::string stateDir;
  /// Planning executor threads pulling from the fair scheduler.
  int executors = 2;
  /// Accepted mutations between snapshots (journal rotations); 0 = never
  /// snapshot (the journal grows unboundedly but recovery still works).
  std::uint64_t snapshotEvery = 8;
  /// Per-tenant token-bucket admission: sustained mutations/second and
  /// burst capacity; rate 0 = unlimited.
  double tenantRate = 0.0;
  double tenantBurst = 16.0;
  std::size_t maxSessions = 256;
  /// Standby endpoints to replicate every accepted mutation to (rfsmd
  /// --replica, repeatable).  Empty = replication off.
  std::vector<ipc::Endpoint> replicas;
  /// Ack durability when replicas is non-empty (rfsmd --repl-ack).
  ReplAck replAck = ReplAck::kQuorum;
  /// Promotion gate (rfsmd --standby-grace): a standby refuses
  /// client-triggered promotion while it heard from its primary within
  /// this window, so a transient transport blip between client and primary
  /// cannot depose a healthy primary mid-ship.  0 (default) = promote on
  /// first client contact — the client's arrival is the election, which is
  /// correct when standby endpoints are listed after the primary.
  std::chrono::milliseconds standbyGrace{0};
};

/// The robust session store.  Thread-safe; every public call may be made
/// from any connection-handler thread.
class SessionService {
 public:
  /// Starts the executor pool and, when stateDir is set, recovers every
  /// session found there (journal replay on top of the latest snapshot).
  explicit SessionService(SessionServiceOptions options);

  /// Finishes queued (journaled) work, then stops the executors.  Call
  /// drain() first for the graceful-persist path.
  ~SessionService();

  SessionService(const SessionService&) = delete;
  SessionService& operator=(const SessionService&) = delete;

  SessionOpenResponse open(const SessionOpenRequest& request);
  SessionMutateResponse mutate(const SessionMutateRequest& request);
  SessionReplayResponse replay(const SessionReplayRequest& request);
  SessionCloseResponse close(const SessionCloseRequest& request);

  /// Standby side of the replication plane: journals a record shipped by a
  /// primary (creating the session on first contact) and schedules a warm
  /// replay, without waiting for the apply.  Fenced by epoch: a request
  /// older than the local epoch answers kStaleEpoch and is counted.
  SessionReplAppendResponse replAppend(const SessionReplAppendRequest& request);
  /// Standby side of resync: installs a whole snapshot (exact primary
  /// .snap bytes), replacing local state when it is ahead of ours.
  SessionReplSnapshotResponse replInstall(
      const SessionReplSnapshotRequest& request);
  /// Role/epoch/progress probe (rfsmc session status, failover smoke).
  SessionStatusResponse status(const SessionStatusRequest& request);

  /// Stops admitting new sessions and mutations (kDraining replies).
  void beginDrain();

  /// Graceful drain: beginDrain, finish every queued mutation, persist
  /// every session (snapshot + rotated journal), stop the executors.
  /// Returns the number of sessions persisted.
  std::size_t drain();

  /// Sessions rebuilt from disk at construction.
  std::uint64_t recoveredSessions() const { return recovered_; }
  /// Corrupt files quarantined (renamed aside) during recovery.
  std::uint64_t quarantined() const { return quarantined_; }
  std::size_t sessionCount() const;

  /// Fills the session section of a live stats scrape: one SessionStats
  /// row per open session (queue depth, WAL/snapshot age, admission tokens,
  /// scheduler vtime) plus the scheduler-wide depth and vtime frontier.
  void fillStats(StatsResponse& stats) const;

 private:
  /// Lets tests occupy a session's flow to hold its work in flight.
  friend struct SessionServiceTestAccess;
  struct Session;
  using SessionPtr = std::shared_ptr<Session>;

  static std::string key(const std::string& tenant, const std::string& name);
  void executorLoop();
  /// Queues `task` on the session's flow (false once the executors have
  /// stopped).  Only such tasks touch a session's state.
  bool post(const SessionPtr& session, double cost,
            std::function<void(Session&)> task);
  /// Runs `fn` as a task on the session's flow and returns its result;
  /// nullopt when the session was closed first or the service stopped.
  template <class Fn>
  auto onStrand(const SessionPtr& session, double cost, Fn fn)
      -> std::optional<std::invoke_result_t<Fn&, Session&>>;
  /// onStrand on the session listed under tenant/name; inline when called
  /// from that session's own task (a quorum ship's resync/fence callback).
  template <class Fn>
  auto onSession(const std::string& tenant, const std::string& name,
                 double cost, Fn fn)
      -> std::optional<std::invoke_result_t<Fn&, Session&>>;
  void publish(Session& session);
  /// Admits (draining, maxSessions), journals (with `snapshot`, if any)
  /// and lists a new session, or fills `refusal` and returns null.
  template <class Response>
  SessionPtr createLocked(const std::string& key, SessionEngine engine,
                          std::uint64_t epoch, bool standby,
                          std::string_view snapshot, Response& refusal);
  void applyOne(Session& session, MutationRecord rec);
  void catchUp(Session& session);
  void persist(Session& session);
  void rewriteWal(Session& session);
  void startFiles(Session& session, std::string_view snapshot);
  void appendWal(Session& session, const MutationRecord& rec);
  bool recoverOne(const std::string& base);
  SessionMutateResponse mutateOn(Session& session,
                                 const SessionMutateRequest& request);
  SessionMutateResponse answerFromHistory(const Session& session,
                                          std::uint64_t seq) const;
  void promote(Session& session);
  /// Whether a client-triggered promotion of this standby is admissible
  /// under options_.standbyGrace (see SessionServiceOptions).
  bool promotionDue(const Session& session) const;
  /// Builds the resync bundle the Replicator ships to a gapped standby.
  std::optional<Replicator::ResyncBundle> resyncBundle(
      const std::string& tenant, const std::string& name);
  /// Marks a session fenced after a standby reported a newer epoch.
  void fenceSession(const std::string& tenant, const std::string& name,
                    std::uint64_t standbyEpoch);

  SessionServiceOptions options_;
  /// Guards routing (map, buckets, scheduler, flags) and a new session's
  /// creation, never a listed session's state.
  mutable std::mutex mutex_;
  std::condition_variable work_;  ///< executors: queue state changed
  FairScheduler scheduler_;
  std::map<std::string, SessionPtr> sessions_;
  std::map<std::string, TokenBucket> buckets_;
  bool draining_ = false;
  bool stopping_ = false;
  bool stopped_ = false;  ///< the executors exited; nothing more runs
  std::uint64_t recovered_ = 0;
  std::uint64_t quarantined_ = 0;
  std::vector<std::thread> executors_;
  /// Declared last: its async workers call back into the store (resync,
  /// fencing), so it must be destroyed before the mutex and maps above.
  std::unique_ptr<Replicator> replicator_;
};

/// Client side of a streaming session: one connection, many frames, with
/// transparent reconnect + resend on transport failure (a SIGKILL'd and
/// restarted daemon answers resent duplicates from its recovered
/// transcript, so retrying is always safe).  Admission rejections are NOT
/// retried here — they surface to the caller, which owns the backoff.
///
/// Failover: when `endpoints` lists more than one daemon (primary first,
/// standbys after), a transport failure rotates to the next endpoint — so
/// a killed primary is transparently replaced by its promoted standby.
/// Per-endpoint circuit breakers keep rotation away from endpoints that
/// just failed; reconnect delays follow backoffDelay (capped ladder +
/// deterministic per-client jitter, no thundering herd).
class SessionStream {
 public:
  struct Options {
    ipc::Endpoint endpoint;
    /// Failover set; when non-empty it *replaces* `endpoint` (which is
    /// kept for single-daemon callers).  Order = preference.
    std::vector<ipc::Endpoint> endpoints;
    /// Transport retry budget per call (reconnect + resend until this
    /// elapses, then the last IpcError propagates).
    std::chrono::milliseconds retryFor{15000};
    /// Silence bound per reply read.
    std::chrono::milliseconds readTimeout{30000};
  };

  explicit SessionStream(Options options);

  SessionOpenResponse open(const SessionOpenRequest& request);
  SessionMutateResponse mutate(const SessionMutateRequest& request);
  SessionReplayResponse replay(const SessionReplayRequest& request);
  SessionCloseResponse close(const SessionCloseRequest& request);
  SessionStatusResponse status(const SessionStatusRequest& request);

  /// Transport-level reconnects performed so far (visible retry evidence
  /// for the CI smoke and the kill/restart bench cell).
  std::uint64_t reconnects() const { return reconnects_; }
  /// Endpoint rotations performed so far (0 while the first choice holds).
  std::uint64_t failovers() const { return failovers_; }
  /// The endpoint the next frame will be sent to.
  const ipc::Endpoint& currentEndpoint() const { return endpoints_[current_]; }

 private:
  std::string exchange(const std::string& payload);
  /// Rotates to the next endpoint whose breaker admits a request (falls
  /// back to plain round-robin when every breaker is open).
  void rotate();

  Options options_;
  std::vector<ipc::Endpoint> endpoints_;
  std::vector<std::unique_ptr<CircuitBreaker>> breakers_;
  std::size_t current_ = 0;
  ipc::Fd conn_;
  std::uint64_t reconnects_ = 0;
  std::uint64_t failovers_ = 0;
};

}  // namespace rfsm::service
