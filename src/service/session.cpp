#include "service/session.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <set>
#include <sstream>
#include <utility>

#include "core/journal.hpp"
#include "core/migration.hpp"
#include "core/mutable_machine.hpp"
#include "core/program.hpp"
#include "fsm/serialize.hpp"
#include "gen/generator.hpp"
#include "gen/mutator.hpp"
#include "service/wire_fields.hpp"
#include "util/fsio.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/trace.hpp"

namespace rfsm::service {
namespace {

constexpr const char* kWalHeader = "rfsm-session-journal v1";
constexpr const char* kSnapshotMagic = "rfsm-session-snapshot v1";

std::uint64_t fnv64(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string openPayload(const SessionConfig& config, std::uint64_t epoch = 1,
                        bool standby = false) {
  std::ostringstream os;
  os << "open " << config.tenant << " " << config.name << " "
     << config.priority << " " << static_cast<int>(config.weight) << " "
     << config.planner << " " << config.stateCount << " "
     << config.inputCount << " " << config.outputCount << " " << config.seed
     << " " << epoch << " " << (standby ? 1 : 0);
  return os.str();
}

bool parseOpenPayload(const std::string& payload, SessionConfig& config,
                      std::uint64_t* epoch = nullptr,
                      bool* standby = nullptr) {
  const auto tokens = splitWhitespace(payload);
  // 10 tokens = the pre-replication journal format (epoch 1, primary);
  // 12 tokens append the fencing epoch and the standby role.
  if ((tokens.size() != 10 && tokens.size() != 12) || tokens[0] != "open")
    return false;
  try {
    config.tenant = tokens[1];
    config.name = tokens[2];
    config.priority = std::stoi(tokens[3]);
    config.weight = std::max(1, std::stoi(tokens[4]));
    config.planner = tokens[5];
    config.stateCount = std::stoi(tokens[6]);
    config.inputCount = std::stoi(tokens[7]);
    config.outputCount = std::stoi(tokens[8]);
    config.seed = std::stoull(tokens[9]);
    if (epoch != nullptr) *epoch = 1;
    if (standby != nullptr) *standby = false;
    if (tokens.size() == 12) {
      if (epoch != nullptr) *epoch = std::max<std::uint64_t>(1, std::stoull(tokens[10]));
      if (standby != nullptr) *standby = tokens[11] == "1";
    }
  } catch (const std::exception&) {
    return false;
  }
  return validSessionName(config.tenant) && validSessionName(config.name);
}

std::string mutPayload(const MutationRecord& rec) {
  std::ostringstream os;
  os << "mut " << rec.seq << " " << rec.deltaCount << " "
     << rec.newStateCount << " " << rec.mutationSeed << " "
     << (rec.defer ? 1 : 0);
  return os.str();
}

bool parseMutPayload(const std::string& payload, MutationRecord& rec) {
  const auto tokens = splitWhitespace(payload);
  if (tokens.size() != 6 || tokens[0] != "mut") return false;
  try {
    rec.seq = std::stoull(tokens[1]);
    rec.deltaCount = static_cast<std::uint32_t>(std::stoul(tokens[2]));
    rec.newStateCount = static_cast<std::uint32_t>(std::stoul(tokens[3]));
    rec.mutationSeed = std::stoull(tokens[4]);
    rec.defer = tokens[5] == "1";
  } catch (const std::exception&) {
    return false;
  }
  return rec.seq > 0;
}

}  // namespace

// Snapshot records, described once for wire_fields.hpp's adaptors.
namespace wire {

template <class Io>
void fields(Io& io, SessionConfig& m) {
  // weight is a double in memory and an integral share on disk.
  io(m.tenant, m.name, m.priority, carriedAs<std::uint32_t>(m.weight),
     m.planner, m.stateCount, m.inputCount, m.outputCount, m.seed);
}

template <class Io>
void fields(Io& io, MutationRecord& m) {
  io(m.seq, m.deltaCount, m.newStateCount, m.mutationSeed, m.defer);
}

template <class Io>
void fields(Io& io, PlanOutcome& m) {
  io(m.planned, m.failed, m.error, m.program, m.compactedFrom,
     m.deltasPlanned, m.deltasRaw);
}

/// A SessionEngine as its snapshot holds it (the machine as JSON).
struct EngineImage {
  std::string magic;
  SessionConfig config;
  std::uint64_t lastApplied = 0;
  std::uint64_t planCount = 0;
  std::string machine;
  std::vector<MutationRecord> pending;
};

template <class Io>
void fields(Io& io, EngineImage& m) {
  io(m.magic, m.config, m.lastApplied, m.planCount, m.machine, m.pending);
}

}  // namespace wire

SessionOpenRequest openRequestFor(const SessionConfig& config) {
  SessionOpenRequest request;
  request.tenant = config.tenant;
  request.name = config.name;
  request.priority = static_cast<std::uint32_t>(config.priority);
  request.weight = static_cast<std::uint32_t>(config.weight);
  request.planner = config.planner;
  request.stateCount = config.stateCount;
  request.inputCount = config.inputCount;
  request.outputCount = config.outputCount;
  request.seed = config.seed;
  return request;
}

SessionMutateRequest mutateRequestFor(const SessionConfig& config,
                                      const MutationRecord& rec) {
  SessionMutateRequest request;
  request.tenant = config.tenant;
  request.name = config.name;
  request.seq = rec.seq;
  request.deltaCount = rec.deltaCount;
  request.newStateCount = rec.newStateCount;
  request.mutationSeed = rec.mutationSeed;
  request.defer = rec.defer;
  return request;
}

SessionReplAppendRequest replRequestFor(const SessionConfig& config,
                                        std::uint64_t epoch,
                                        const MutationRecord& rec) {
  SessionReplAppendRequest request;
  request.tenant = config.tenant;
  request.name = config.name;
  request.priority = static_cast<std::uint32_t>(config.priority);
  request.weight =
      static_cast<std::uint32_t>(std::max(1, static_cast<int>(config.weight)));
  request.planner = config.planner;
  request.stateCount = config.stateCount;
  request.inputCount = config.inputCount;
  request.outputCount = config.outputCount;
  request.seed = config.seed;
  request.epoch = epoch;
  request.seq = rec.seq;
  request.deltaCount = rec.deltaCount;
  request.newStateCount = rec.newStateCount;
  request.mutationSeed = rec.mutationSeed;
  request.defer = rec.defer;
  return request;
}

bool validSessionName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                    c == '-';
    if (!ok) return false;
  }
  return true;
}

// --- SessionEngine --------------------------------------------------------

namespace {

Machine initialMachine(const SessionConfig& config) {
  RandomMachineSpec spec;
  spec.stateCount = config.stateCount;
  spec.inputCount = config.inputCount;
  spec.outputCount = config.outputCount;
  spec.name = config.name;
  Rng rng(config.seed);
  return randomMachine(spec, rng);
}

}  // namespace

SessionEngine::SessionEngine(SessionConfig config)
    : config_(std::move(config)), machine_(initialMachine(config_)) {}

SessionEngine::SessionEngine(SessionConfig config, Machine machine)
    : config_(std::move(config)), machine_(std::move(machine)) {}

PlanOutcome SessionEngine::apply(const MutationRecord& rec) {
  RFSM_CHECK(rec.seq == lastApplied_ + 1,
             "session mutations must apply in sequence order");
  lastApplied_ = rec.seq;
  PlanOutcome outcome;
  if (rec.defer) {
    pending_.push_back(rec);
    return outcome;
  }
  // Compose the deferred run plus this record into one target, then plan
  // the *net* delta set between the resident machine and that target:
  // superseded and reverted cells drop out (that is the compaction).  Work
  // on copies so a failure consumes only this record's sequence number.
  try {
    Machine target = machine_;
    int raw = 0;
    std::vector<MutationRecord> run = pending_;
    run.push_back(rec);
    for (const MutationRecord& r : run) {
      MutationSpec spec;
      spec.deltaCount = static_cast<int>(r.deltaCount);
      spec.newStateCount = static_cast<int>(r.newStateCount);
      spec.name = config_.name + "#" + std::to_string(r.seq);
      Rng rng(r.mutationSeed);
      target = mutateMachine(target, spec, rng);
      raw += spec.deltaCount;
    }
    const MigrationContext context(machine_, target);
    Rng planRng =
        Rng(config_.seed).substream(kSessionPlanStreamBase + planCount_);
    const ReconfigurationProgram program =
        plannerFn(config_.planner)(context, planRng);
    // Advance the resident machine by executing the program, exactly as
    // the Fig. 5 datapath would — and verify it landed on the target.
    MutableMachine resident(context);
    resident.applyProgram(program);
    std::string reason;
    if (!resident.matchesTarget(&reason))
      throw Error("planned program misses the target: " + reason);
    outcome.planned = true;
    outcome.program = programToText(context, program);
    outcome.compactedFrom = run.size();
    outcome.deltasPlanned = context.deltaCount();
    outcome.deltasRaw = raw;
    machine_ = std::move(target);
    pending_.clear();
    ++planCount_;
  } catch (const Error& error) {
    outcome = PlanOutcome{};
    outcome.failed = true;
    outcome.error = error.what();
  }
  return outcome;
}

void SessionEngine::encodeSnapshot(ipc::MessageWriter& writer) const {
  wire::FieldWriter{writer}(wire::EngineImage{kSnapshotMagic, config_,
                                              lastApplied_, planCount_,
                                              toJson(machine_), pending_});
}

SessionEngine SessionEngine::decodeSnapshot(ipc::MessageReader& reader) {
  wire::EngineImage image;
  wire::FieldReader{reader}(image);
  if (image.magic != kSnapshotMagic)
    throw ipc::IpcError("bad session snapshot magic '" + image.magic + "'");
  SessionEngine engine(std::move(image.config),
                       machineFromJson(image.machine));
  engine.lastApplied_ = image.lastApplied;
  engine.planCount_ = image.planCount;
  engine.pending_ = std::move(image.pending);
  return engine;
}

namespace {

/// A session snapshot file: the engine, the client's ack point and the
/// retained outcomes, then the replication trailer (fencing epoch, role).
struct SnapshotFile {
  SessionEngine engine;
  std::uint64_t ackSeq = 0;
  std::map<std::uint64_t, PlanOutcome> outcomes{};
  std::uint64_t epoch = 1;
  bool standby = false;
};

/// Verifies the fnv64 trailer of a snapshot file and decodes it.
/// Snapshots from before replication end after the outcomes and read as
/// epoch 1 primary.  Throws ipc::IpcError / Error on damage.
SnapshotFile readSnapshotFile(std::string_view bytes) {
  if (bytes.size() < 8) throw ipc::IpcError("snapshot too short");
  const std::string_view body = bytes.substr(0, bytes.size() - 8);
  ipc::MessageReader trailer(bytes.substr(body.size()));
  if (trailer.u64() != fnv64(body))
    throw ipc::IpcError("snapshot checksum mismatch");
  ipc::MessageReader reader(body);
  SnapshotFile file{SessionEngine::decodeSnapshot(reader)};
  wire::FieldReader io{reader};
  io(file.ackSeq, file.outcomes);
  if (!reader.atEnd()) io(file.epoch, file.standby);
  reader.expectEnd();
  return file;
}

}  // namespace

// --- SessionService -------------------------------------------------------

namespace {

/// The session whose task the calling thread is running (null off the
/// executors).  A replicator callback fired by a quorum ship inside that
/// session's own task must run inline: queueing it would wait on itself.
thread_local const void* runningSession = nullptr;

template <class Response>
Response unknownSession(const std::string& tenant, const std::string& name) {
  Response response;
  response.status = SessionStatus::kNotFound;
  response.error = "unknown session " + tenant + "/" + name;
  return response;
}

template <class Response>
Response failed(std::string error) {
  Response response;
  response.status = SessionStatus::kFailed;
  response.error = std::move(error);
  return response;
}

constexpr const char* kBadNames =
    "tenant/session names must be 1-64 chars of [A-Za-z0-9._-]";

/// The epoch fence (replAppend, replInstall): a frame from an older epoch
/// — or from a twin primary at the receiver's own epoch — comes from a
/// deposed primary still streaming.  Fills the counted and logged
/// kStaleEpoch reply and returns true when `epoch` is fenced out.
template <class SessionT, class Response>
bool refuseStaleEpoch(const SessionT& session, std::uint64_t epoch,
                      const char* frame, Response& response) {
  static metrics::Counter& staleRejected =
      metrics::counter(metrics::kServiceStaleEpochRejected);
  response.epoch = session.epoch;
  response.lastAccepted = session.lastAccepted;
  if (epoch > session.epoch || (epoch == session.epoch && session.standby))
    return false;
  staleRejected.add();
  response.status = SessionStatus::kStaleEpoch;
  response.error = "stale epoch " + std::to_string(epoch) + " (current " +
                   std::to_string(session.epoch) + ")";
  log(LogLevel::kWarn) << "session " << session.key
                       << " refused stale-epoch " << frame << " (epoch "
                       << epoch << ", current " << session.epoch << ")";
  return true;
}

}  // namespace

/// One session.  Every field but `mirror` belongs to the session's
/// scheduler flow: only the task holding the flow's in-flight slot reads or
/// writes it, so none of it is guarded by the store mutex.
struct SessionService::Session {
  Session(std::string k, SessionEngine e)
      : key(std::move(k)), config(e.config()), engine(std::move(e)),
        wal(kWalHeader) {}

  const std::string key;       ///< "tenant@name": map key and flow name
  const SessionConfig config;  ///< the engine's config, readable anywhere
  SessionEngine engine;
  /// Set by this session's close task: every later task of this object
  /// answers kNotFound.
  bool closed = false;
  /// Journal high-water mark: highest seq accepted.  Records past
  /// engine.lastApplied() wait in `tail` for catchUp().
  std::uint64_t lastAccepted = 0;
  std::uint64_t ackSeq = 0;
  std::uint64_t sinceSnapshot = 0;
  /// Per-seq results, seq > ackSeq (duplicate replies + replay source).
  std::map<std::uint64_t, PlanOutcome> outcomes;
  /// Accepted records newer than the last snapshot — re-journaled when the
  /// WAL rotates, so rotation never loses accepted-but-unplanned work.
  std::map<std::uint64_t, MutationRecord> tail;
  RecordLog wal;
  ipc::Fd walFd;
  std::string walPath;   ///< "" = volatile session
  std::string snapPath;
  /// Fencing epoch: bumped on promotion, shipped with every replicated
  /// record, persisted in the journal's open record and the snapshot.
  std::uint64_t epoch = 1;
  /// Standby replica (fed by replAppend, promoted on first client write).
  bool standby = false;
  /// A standby reported a newer epoch: this primary is deposed and must
  /// refuse client mutations (kStaleEpoch) instead of acking them.
  bool fenced = false;
  /// Live-telemetry freshness stamps ({} = never): last durable WAL
  /// append and last snapshot replace, reported as ages by fillStats().
  std::chrono::steady_clock::time_point lastWalAppend{};
  std::chrono::steady_clock::time_point lastSnapshot{};
  /// Last accepted replication frame from the current-or-newer epoch
  /// primary ({} = never) — the liveness evidence the --standby-grace
  /// promotion gate checks before a client contact may depose it.
  std::chrono::steady_clock::time_point lastReplContact{};

  /// What status() and fillStats() report, copied from the fields above
  /// at the end of every task.  Guarded by the store mutex.
  struct Mirror {
    std::uint64_t lastAccepted = 0;
    std::uint64_t applied = 0;
    std::uint64_t epoch = 1;
    bool standby = false;
    std::chrono::steady_clock::time_point lastWalAppend{};
    std::chrono::steady_clock::time_point lastSnapshot{};
  } mirror;
};

std::string SessionService::key(const std::string& tenant,
                                const std::string& name) {
  return tenant + "@" + name;
}

SessionService::SessionService(SessionServiceOptions options)
    : options_(std::move(options)) {
  if (!options_.stateDir.empty()) {
    fsio::makeDirs(options_.stateDir);
    std::set<std::string> bases;
    for (const std::string& file : fsio::listDir(options_.stateDir)) {
      for (const char* suffix : {".wal", ".snap"}) {
        if (file.size() > std::strlen(suffix) &&
            file.rfind(suffix) == file.size() - std::strlen(suffix))
          bases.insert(file.substr(0, file.size() - std::strlen(suffix)));
      }
    }
    for (const std::string& base : bases)
      if (recoverOne(base)) ++recovered_;
    if (recovered_ > 0)
      metrics::counter(metrics::kSessionsRecovered).add(recovered_);
  }
  const int executors = std::max(1, options_.executors);
  executors_.reserve(static_cast<std::size_t>(executors));
  for (int k = 0; k < executors; ++k)
    executors_.emplace_back([this] { executorLoop(); });
  if (!options_.replicas.empty()) {
    ReplicatorOptions repl;
    repl.replicas = options_.replicas;
    repl.ack = options_.replAck;
    replicator_ = std::make_unique<Replicator>(
        std::move(repl),
        [this](const std::string& tenant, const std::string& name) {
          return resyncBundle(tenant, name);
        },
        [this](const std::string& tenant, const std::string& name,
               std::uint64_t standbyEpoch) {
          fenceSession(tenant, name, standbyEpoch);
        });
  }
}

SessionService::~SessionService() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
    work_.notify_all();
  }
  for (std::thread& t : executors_) t.join();
  executors_.clear();
}

void SessionService::executorLoop() {
  std::unique_lock lock(mutex_);
  for (;;) {
    std::optional<FairScheduler::Next> next = scheduler_.next();
    if (!next.has_value()) {
      if (stopping_ && scheduler_.idle()) {
        stopped_ = true;  // post() refuses from here on
        return;
      }
      work_.wait(lock);
      continue;
    }
    lock.unlock();
    next->item.run();
    lock.lock();
    scheduler_.done(next->flow);
    // Finishing an item may make this flow's next item runnable, and the
    // exit condition may now hold for idle twins.
    work_.notify_all();
  }
}

bool SessionService::post(const SessionPtr& session, double cost,
                          std::function<void(Session&)> task) {
  std::lock_guard lock(mutex_);
  if (stopped_) return false;
  // The task inherits the poster's trace context, so a mutate's apply span
  // parents under the remote caller's request span.
  scheduler_.enqueue(
      session->key, session->config.priority, session->config.weight,
      {[session, task = std::move(task), context = trace::currentContext()] {
         trace::ContextScope scope(context);
         runningSession = session.get();
         task(*session);
         runningSession = nullptr;
       },
       cost});
  work_.notify_one();
  return true;
}

template <class Fn>
auto SessionService::onStrand(const SessionPtr& session, double cost, Fn fn)
    -> std::optional<std::invoke_result_t<Fn&, Session&>> {
  using Result = std::optional<std::invoke_result_t<Fn&, Session&>>;
  auto promise = std::make_shared<std::promise<Result>>();
  std::future<Result> result = promise->get_future();
  if (!post(session, cost, [this, fn, promise](Session& s) mutable {
        try {
          Result value;
          if (!s.closed) value.emplace(fn(s));
          publish(s);  // before the caller can observe the result
          promise->set_value(std::move(value));
        } catch (...) {
          promise->set_exception(std::current_exception());
        }
      }))
    return std::nullopt;
  return result.get();
}

template <class Fn>
auto SessionService::onSession(const std::string& tenant,
                               const std::string& name, double cost, Fn fn)
    -> std::optional<std::invoke_result_t<Fn&, Session&>> {
  SessionPtr session;
  {
    std::lock_guard lock(mutex_);
    const auto it = sessions_.find(key(tenant, name));
    if (it == sessions_.end()) return std::nullopt;
    session = it->second;
  }
  // A quorum ship runs inside the session's own task and fires the
  // replicator callbacks on that same thread: the strand is already ours.
  if (session.get() == runningSession) return fn(*session);
  return onStrand(session, cost, std::move(fn));
}

void SessionService::publish(Session& session) {
  std::lock_guard lock(mutex_);
  session.mirror = {session.lastAccepted, session.engine.lastApplied(),
                    session.epoch,        session.standby,
                    session.lastWalAppend, session.lastSnapshot};
}

template <class Response>
SessionService::SessionPtr SessionService::createLocked(
    const std::string& k, SessionEngine engine, std::uint64_t epoch,
    bool standby, std::string_view snapshot, Response& refusal) {
  if (draining_) {
    refusal.status = SessionStatus::kDraining;
    refusal.error = "daemon is draining";
    return nullptr;
  }
  if (sessions_.size() >= options_.maxSessions) {
    refusal.status = SessionStatus::kResourceExhausted;
    refusal.error = "session limit (" + std::to_string(options_.maxSessions) +
                    ") reached";
    if constexpr (requires { refusal.retryAfterMs; })
      refusal.retryAfterMs = 1000;
    return nullptr;
  }
  // Journaled before it is listed, under the store mutex: a racing
  // creation of the same name cannot write over these files, and tasks of
  // a closed predecessor never touch files.
  auto session = std::make_shared<Session>(k, std::move(engine));
  session->lastAccepted = session->engine.lastApplied();
  session->epoch = epoch;
  session->standby = standby;
  if (!options_.stateDir.empty()) {
    session->walPath = options_.stateDir + "/" + k + ".wal";
    session->snapPath = options_.stateDir + "/" + k + ".snap";
  }
  try {
    startFiles(*session, snapshot);
  } catch (const Error& error) {
    if (snapshot.empty()) {
      refusal.status = SessionStatus::kFailed;
      refusal.error = error.what();
      return nullptr;
    }
    // An installed snapshot is kept in memory: appendWal rewrites the
    // journal before the next record is acknowledged.
    log(LogLevel::kWarn) << "cannot persist installed snapshot for " << k
                         << ": " << error.what();
    session->walFd.reset();
  }
  session->mirror = {session->lastAccepted, session->lastAccepted, epoch,
                     standby, {}, session->lastSnapshot};
  sessions_.emplace(k, session);
  return session;
}

void SessionService::applyOne(Session& session, const MutationRecord rec) {
  static metrics::Histogram& planLatency =
      metrics::histogram(metrics::kSessionPlanLatency);
  static metrics::Counter& plans = metrics::counter(metrics::kSessionPlans);
  static metrics::Counter& compacted =
      metrics::counter(metrics::kSessionDeltasCompacted);
  PlanOutcome outcome;
  {
    metrics::ScopedLatency latency(planLatency);
    trace::ScopedSpan span("session.apply", "session",
                           {trace::Arg::num("seq", rec.seq),
                            trace::Arg::boolean("defer", rec.defer)});
    outcome = session.engine.apply(rec);
  }
  if (outcome.planned) {
    plans.add();
    if (outcome.deltasRaw > outcome.deltasPlanned)
      compacted.add(
          static_cast<std::uint64_t>(outcome.deltasRaw - outcome.deltasPlanned));
  }
  session.outcomes[rec.seq] = std::move(outcome);
  // The tail feeds WAL rewrites and standby resyncs; with neither, an
  // applied record is dead weight for the rest of the session's life.
  if (session.walPath.empty() && !replicator_) session.tail.erase(rec.seq);
  ++session.sinceSnapshot;
  if (options_.snapshotEvery > 0 &&
      session.sinceSnapshot >= options_.snapshotEvery) {
    try {
      persist(session);
    } catch (const Error& error) {
      // Snapshot failure is degradable: the journal keeps growing and
      // recovery still works, just from further back.
      log(LogLevel::kWarn) << "session snapshot failed: " << error.what();
    }
  }
}

void SessionService::catchUp(Session& session) {
  // By value: a snapshot inside applyOne trims the tail it came from.
  while (session.engine.lastApplied() < session.lastAccepted)
    applyOne(session, session.tail.at(session.engine.lastApplied() + 1));
}

void SessionService::rewriteWal(Session& session) {
  // Rebuilds the journal from trusted in-memory state (header + open record
  // + every accepted record newer than the last snapshot) via atomic
  // replace, and reopens a clean append descriptor.  Used after rotation
  // and as self-heal whenever the append fd has been lost or latched dirty
  // (failed fsync, injected power loss): the WAL's content is exactly
  // header+open+tail, so a full rewrite is always equivalent to the log the
  // torn tail was dropped from.
  RecordLog fresh(kWalHeader);
  std::string walBytes = fresh.headerLine();
  walBytes += fresh.appendLine(
      openPayload(session.engine.config(), session.epoch, session.standby));
  for (const auto& [seq, rec] : session.tail)
    walBytes += fresh.appendLine(mutPayload(rec));
  session.walFd.reset();
  fsio::writeFileDurable(session.walPath, walBytes);
  session.walFd = fsio::openAppend(session.walPath);
  session.wal = std::move(fresh);
}

void SessionService::startFiles(Session& session, std::string_view snapshot) {
  if (session.walPath.empty()) return;
  // No snapshot: clear any stale one under this name (crash mid-close, or
  // a suffix this replica just discarded) so a later recovery cannot mix
  // it with the fresh journal.
  if (snapshot.empty()) {
    fsio::removeFileDurable(session.snapPath);
  } else {
    fsio::writeFileDurable(session.snapPath, snapshot);
    session.lastSnapshot = std::chrono::steady_clock::now();
  }
  rewriteWal(session);
}

void SessionService::appendWal(Session& session, const MutationRecord& rec) {
  // WAL rule: the record is on disk before it is applied and before any
  // reply — a crash after this point must replay it.
  //
  // A session with a journal path but no usable descriptor (a previous
  // rotation or append failed mid-way) must NOT silently skip the disk
  // write — that would acknowledge the mutation with no durability.
  // Rewrite the journal from trusted state first; if that fails too, the
  // error propagates and the mutation is refused un-acked.
  if (!session.walPath.empty() && !session.walFd.valid()) rewriteWal(session);
  if (session.walFd.valid()) {
    const std::string line = session.wal.appendLine(mutPayload(rec));
    try {
      fsio::appendDurable(session.walFd.get(), session.walPath, line);
    } catch (...) {
      // The on-disk tail may be torn and the fd may be latched dirty:
      // drop the descriptor so the next append rewrites the whole journal
      // from memory instead of appending past a tear.
      session.walFd.reset();
      throw;
    }
  }
  session.lastWalAppend = std::chrono::steady_clock::now();
}

void SessionService::persist(Session& session) {
  if (session.snapPath.empty()) return;
  static metrics::Counter& snapshots =
      metrics::counter(metrics::kSessionSnapshots);
  ipc::MessageWriter writer;
  session.engine.encodeSnapshot(writer);
  // The replication trailer goes last, so snapshots written before it
  // existed (ending after the outcomes) still decode: epoch 1, primary.
  wire::FieldWriter{writer}(session.ackSeq, session.outcomes, session.epoch,
                            session.standby);
  std::string body = writer.take();
  ipc::MessageWriter checksum;
  checksum.u64(fnv64(body));
  body += checksum.take();
  // Snapshot first (atomic replace), journal rotation second: a crash
  // between the two leaves a snapshot plus a journal whose early records
  // it already covers — replay skips them by sequence number.
  fsio::writeFileDurable(session.snapPath, body);
  snapshots.add();
  session.lastSnapshot = std::chrono::steady_clock::now();

  const std::uint64_t covered = session.engine.lastApplied();
  session.tail.erase(session.tail.begin(),
                     session.tail.upper_bound(covered));
  // If the rotation fails mid-way the descriptor stays invalid and the
  // next appendWal rewrites the journal before acking anything — a failed
  // rotation must never silently disable durability.
  rewriteWal(session);
  session.sinceSnapshot = 0;
}

bool SessionService::recoverOne(const std::string& base) {
  const std::string walPath = options_.stateDir + "/" + base + ".wal";
  const std::string snapPath = options_.stateDir + "/" + base + ".snap";
  static metrics::Counter& quarantinedCounter =
      metrics::counter(metrics::kSessionsQuarantined);
  auto quarantine = [&](const std::string& path) {
    try {
      fsio::renameDurable(path, path + ".corrupt");
    } catch (const Error& error) {
      log(LogLevel::kWarn) << "cannot quarantine '" << path
                           << "': " << error.what();
    }
    ++quarantined_;
    quarantinedCounter.add();
  };

  // Snapshot (if any): full engine state + unacked outcomes.
  std::optional<SnapshotFile> snap;
  if (const auto bytes = fsio::readFileIfExists(snapPath)) {
    try {
      snap.emplace(readSnapshotFile(*bytes));
    } catch (const Error& error) {
      log(LogLevel::kWarn) << "corrupt session snapshot '" << snapPath
                           << "': " << error.what();
      quarantine(snapPath);
    }
  }

  // Journal: open record + accepted mutations since the last rotation.
  std::vector<std::string> records;
  bool walValid = false;
  if (const auto bytes = fsio::readFileIfExists(walPath)) {
    try {
      RecordLog::Parsed parsed = RecordLog::parse(kWalHeader, *bytes);
      records = std::move(parsed.records);
      walValid = true;  // a torn tail was dropped, the prefix is trusted
    } catch (const Error& error) {
      log(LogLevel::kWarn) << "corrupt session journal '" << walPath
                           << "': " << error.what();
      quarantine(walPath);
    }
  }
  SessionConfig walConfig;
  std::uint64_t walEpoch = 1;
  bool walStandby = false;
  if (walValid &&
      (records.empty() ||
       !parseOpenPayload(records[0], walConfig, &walEpoch, &walStandby))) {
    log(LogLevel::kWarn) << "session journal '" << walPath
                         << "' has no valid open record";
    quarantine(walPath);
    walValid = false;
    records.clear();
  }
  if (!snap.has_value() && !walValid) return false;
  if (snap.has_value() && walValid && snap->engine.config() != walConfig) {
    // A snapshot that does not belong to this journal (stale leftover):
    // the journal is the source of truth from birth, the snapshot is not.
    log(LogLevel::kWarn) << "session snapshot '" << snapPath
                         << "' does not match its journal; rebuilding from "
                            "the journal";
    quarantine(snapPath);
    snap.reset();
  }
  SessionEngine engine =
      snap ? std::move(snap->engine) : SessionEngine(walConfig);
  const std::string sessionKey =
      key(engine.config().tenant, engine.config().name);
  auto session = std::make_shared<Session>(sessionKey, std::move(engine));
  const std::uint64_t snapEpoch =
      snap ? std::max<std::uint64_t>(1, snap->epoch) : 1;
  if (snap) {
    session->ackSeq = snap->ackSeq;
    session->outcomes = std::move(snap->outcomes);
  }
  // The journal's open record is rewritten on every epoch change, the
  // snapshot only every snapshotEvery records — take the newer of the two
  // (max is safe: epochs only ever grow) and the role that came with it.
  session->epoch = std::max(walValid ? walEpoch : 1, snapEpoch);
  session->standby = walValid && walEpoch >= snapEpoch ? walStandby
                     : snap                            ? snap->standby
                                                       : walStandby;
  for (std::size_t k = walValid ? 1 : records.size(); k < records.size();
       ++k) {
    MutationRecord rec;
    if (!parseMutPayload(records[k], rec)) {
      log(LogLevel::kWarn) << "session journal '" << walPath
                           << "': unparseable record " << k;
      break;
    }
    if (rec.seq <= session->engine.lastApplied()) continue;  // in snapshot
    if (rec.seq != session->engine.lastApplied() + 1) break;  // hole
    session->outcomes[rec.seq] = session->engine.apply(rec);
    session->tail.emplace(rec.seq, rec);
  }
  session->lastAccepted = session->engine.lastApplied();
  session->outcomes.erase(session->outcomes.begin(),
                          session->outcomes.upper_bound(session->ackSeq));

  // Rewrite the journal fresh (drops torn tails and snapshot-covered
  // records) and reopen it for appending.  A rewrite failure must NOT drop
  // the recovered session: the old journal is still intact on disk
  // (durable replace is atomic), so the session is kept with an invalid
  // descriptor and appendWal rewrites the journal before acking the next
  // mutation.  Dropping it here would let a later open() create a fresh
  // session over the old journal — destroying acknowledged history on
  // nothing more than a transient write failure.
  session->walPath = walPath;
  session->snapPath = snapPath;
  try {
    rewriteWal(*session);
  } catch (const Error& error) {
    log(LogLevel::kWarn) << "cannot rewrite session journal '" << walPath
                         << "' (recovered state kept, rewrite deferred): "
                         << error.what();
    session->walFd.reset();
  }
  publish(*session);
  sessions_.emplace(sessionKey, std::move(session));
  return true;
}

SessionOpenResponse SessionService::open(const SessionOpenRequest& request) {
  static metrics::Counter& opened = metrics::counter(metrics::kSessionOpened);
  static metrics::Counter& resumed =
      metrics::counter(metrics::kSessionResumed);
  if (!validSessionName(request.tenant) || !validSessionName(request.name))
    return failed<SessionOpenResponse>(kBadNames);
  const SessionConfig config = configOf(request);
  const std::string k = key(request.tenant, request.name);
  SessionOpenResponse response;
  SessionPtr session;
  {
    std::lock_guard lock(mutex_);
    if (const auto it = sessions_.find(k); it != sessions_.end()) {
      session = it->second;
    } else {
      try {
        plannerFn(config.planner);  // validate the name before committing
      } catch (const Error& error) {
        return failed<SessionOpenResponse>(error.what());
      }
      if (createLocked(k, SessionEngine(config), 1, false, {}, response)) {
        opened.add();
        response.status = SessionStatus::kOk;
        response.lastApplied = 0;
      }
      return response;
    }
  }
  if (!request.resume)
    return failed<SessionOpenResponse>("session already exists (use resume)");
  if (session->config != config)
    return failed<SessionOpenResponse>("session config mismatch on resume");
  const auto answer = onStrand(session, 1.0, [&](Session& s) {
    SessionOpenResponse reply;
    if (s.standby) {
      // A client resuming against a standby IS the failover signal: the
      // primary is gone and the stream re-resolved here.  Promote before
      // reporting the high-water mark the client will resume from —
      // unless the standby heard from its primary inside the grace window
      // (a healthy primary must not be deposed by a client-side blip).
      if (!promotionDue(s))
        return failed<SessionOpenResponse>(
            "session is a standby still replicating from a live primary "
            "(within --standby-grace); resume against the primary");
      promote(s);
    }
    resumed.add();
    reply.status = SessionStatus::kOk;
    reply.lastApplied = s.lastAccepted;
    return reply;
  });
  return answer.value_or(
      unknownSession<SessionOpenResponse>(request.tenant, request.name));
}

SessionMutateResponse SessionService::answerFromHistory(
    const Session& session, std::uint64_t seq) const {
  SessionMutateResponse response;
  response.seq = seq;
  const auto it = session.outcomes.find(seq);
  if (it == session.outcomes.end()) {
    response.status = SessionStatus::kFailed;
    response.error = "transcript entry already acknowledged and trimmed";
    return response;
  }
  const PlanOutcome& outcome = it->second;
  if (outcome.failed) {
    response.status = SessionStatus::kFailed;
    response.error = outcome.error;
  } else if (outcome.planned) {
    response.status = SessionStatus::kOk;
    response.program = outcome.program;
    response.compactedFrom = outcome.compactedFrom;
    response.deltasPlanned =
        static_cast<std::uint32_t>(outcome.deltasPlanned);
    response.deltasRaw = static_cast<std::uint32_t>(outcome.deltasRaw);
  } else {
    response.status = SessionStatus::kAccepted;
  }
  return response;
}

SessionMutateResponse SessionService::mutate(
    const SessionMutateRequest& request) {
  static metrics::Histogram& mutateLatency =
      metrics::histogram(metrics::kSessionMutateLatency);
  static metrics::RollingHistogram& mutateWindow =
      metrics::rolling(metrics::kSessionMutateWindow);
  metrics::ScopedLatency latency(mutateLatency);
  metrics::ScopedWindowLatency windowLatency(mutateWindow);
  // Adopt the frame's trace context so the executor-side apply span chains
  // back to the remote caller.  The context never enters the journal:
  // replay after recovery owes nobody a trace.
  trace::ContextScope contextScope(request.context);
  trace::ScopedSpan mutateSpan(
      "session.mutate_request", "session",
      {trace::Arg::str("tenant", request.tenant),
       trace::Arg::num("seq", request.seq)});

  auto unknown =
      unknownSession<SessionMutateResponse>(request.tenant, request.name);
  unknown.seq = request.seq;
  return onSession(request.tenant, request.name,
                   1.0 + static_cast<double>(request.deltaCount),
                   [&](Session& s) { return mutateOn(s, request); })
      .value_or(unknown);
}

SessionMutateResponse SessionService::mutateOn(
    Session& session, const SessionMutateRequest& request) {
  static metrics::Counter& accepted =
      metrics::counter(metrics::kSessionMutationsAccepted);
  static metrics::Counter& rejected =
      metrics::counter(metrics::kSessionMutationsRejected);
  SessionMutateResponse response;
  response.seq = request.seq;
  const auto refuse = [&](SessionStatus status, std::string error) {
    response.status = status;
    response.error = std::move(error);
    return response;
  };
  // A client write reaching a standby is client-transparent failover in
  // action: the stream re-resolved here because the primary died — unless
  // the standby heard from its primary inside the grace window.
  if (session.standby) {
    if (!promotionDue(session))
      return refuse(SessionStatus::kFailed,
                    "session is a standby still replicating from a live "
                    "primary (within --standby-grace); mutate against the "
                    "primary");
    promote(session);
  }
  const std::string fencedError =
      "session fenced: a standby holds a newer epoch (deposed primary)";
  if (session.fenced) return refuse(SessionStatus::kStaleEpoch, fencedError);
  if (request.ackSeq > session.ackSeq) {
    session.ackSeq = std::min(request.ackSeq, session.engine.lastApplied());
    session.outcomes.erase(session.outcomes.begin(),
                           session.outcomes.upper_bound(session.ackSeq));
  }
  if (request.seq == 0 || request.seq > session.lastAccepted + 1)
    return refuse(SessionStatus::kBadSequence,
                  "expected seq " + std::to_string(session.lastAccepted + 1) +
                      ", got " + std::to_string(request.seq));
  if (request.seq <= session.lastAccepted) {
    // A resent duplicate (retry after a lost reply): answer from the
    // transcript — never re-journal, never re-plan.
    catchUp(session);
    return answerFromHistory(session, request.seq);
  }
  {
    std::lock_guard lock(mutex_);
    if (draining_)
      return refuse(SessionStatus::kDraining, "daemon is draining");
    auto bucket = buckets_.find(request.tenant);
    if (bucket == buckets_.end())
      bucket = buckets_
                   .emplace(request.tenant,
                            TokenBucket(options_.tenantRate,
                                        options_.tenantBurst))
                   .first;
    const auto now = TokenBucket::Clock::now();
    if (!bucket->second.tryTake(1.0, now)) {
      rejected.add();
      response.retryAfterMs =
          std::max<std::int64_t>(1, bucket->second.msUntil(1.0, now));
      return refuse(SessionStatus::kResourceExhausted,
                    "tenant '" + request.tenant +
                        "' is over its mutation rate");
    }
  }
  const MutationRecord rec = recordOf(request);
  if (replicator_ && replicator_->ackMode() == ReplAck::kQuorum) {
    // Quorum rule: every standby journals the record durably BEFORE the
    // local append and long before the client ack.  A refusal here leaves
    // nothing local — the client retries and no acked mutation can exist
    // that the standbys lack.  The ship runs inside this task, so the
    // session cannot change under it.
    const ShipResult shipped = replicator_->shipSync(
        replRequestFor(session.engine.config(), session.epoch, rec));
    if (shipped.staleEpoch || session.fenced) {
      session.fenced = true;
      rejected.add();
      return refuse(SessionStatus::kStaleEpoch, fencedError);
    }
    if (!shipped.ok) {
      rejected.add();
      return refuse(SessionStatus::kFailed,
                    "replication failed: " + shipped.error);
    }
  }
  try {
    appendWal(session, rec);
  } catch (const Error& error) {
    return refuse(SessionStatus::kFailed,
                  std::string("journal append failed: ") + error.what());
  }
  session.lastAccepted = rec.seq;
  session.tail.emplace(rec.seq, rec);
  accepted.add();
  if (replicator_ && replicator_->ackMode() == ReplAck::kAsync) {
    // Async rule: local durability first, ack immediately, ship from the
    // bounded per-replica queue.  A refused enqueue (queue full) becomes a
    // standby-side sequence gap the next successful ship resyncs.
    replicator_->shipAsync(
        replRequestFor(session.engine.config(), session.epoch, rec));
  }
  catchUp(session);
  return answerFromHistory(session, rec.seq);
}

SessionReplayResponse SessionService::replay(
    const SessionReplayRequest& request) {
  const auto answer = onSession(request.tenant, request.name, 1.0,
                                [&](Session& s) {
    SessionReplayResponse response;
    catchUp(s);
    const std::uint64_t hi = request.toSeq == 0
                                 ? s.lastAccepted
                                 : std::min(request.toSeq, s.lastAccepted);
    if (request.fromSeq <= s.ackSeq && s.ackSeq > 0) {
      response.status = SessionStatus::kFailed;
      response.error = "entries up to seq " + std::to_string(s.ackSeq) +
                       " were acknowledged and trimmed";
      return response;
    }
    for (auto entry = s.outcomes.lower_bound(request.fromSeq);
         entry != s.outcomes.end() && entry->first <= hi; ++entry) {
      if (!entry->second.planned) continue;
      SessionReplayResponse::Entry e;
      e.seq = entry->first;
      e.program = entry->second.program;
      response.entries.push_back(std::move(e));
    }
    response.status = SessionStatus::kOk;
    return response;
  });
  return answer.value_or(
      unknownSession<SessionReplayResponse>(request.tenant, request.name));
}

SessionCloseResponse SessionService::close(const SessionCloseRequest& request) {
  const auto answer = onSession(request.tenant, request.name, 1.0,
                                [&](Session& s) {
    SessionCloseResponse response;
    catchUp(s);
    response.mutationsApplied = s.engine.lastApplied();
    response.plans = s.engine.planCount();
    s.walFd.reset();
    if (!s.walPath.empty()) {
      try {
        fsio::removeFileDurable(s.walPath);
        fsio::removeFileDurable(s.snapPath);
      } catch (const Error& error) {
        log(LogLevel::kWarn) << "cannot remove session files: "
                             << error.what();
      }
    }
    // Only this task closes `s`, once, so the key still maps to it; a
    // reopen lists a fresh session whose tasks queue behind this one's.
    s.closed = true;
    std::lock_guard lock(mutex_);
    sessions_.erase(s.key);
    response.status = SessionStatus::kOk;
    return response;
  });
  return answer.value_or(
      unknownSession<SessionCloseResponse>(request.tenant, request.name));
}

// --- Replication plane ----------------------------------------------------

SessionReplAppendResponse SessionService::replAppend(
    const SessionReplAppendRequest& request) {
  const SessionConfig config = configOf(request);
  if (!validSessionName(config.tenant) || !validSessionName(config.name))
    return failed<SessionReplAppendResponse>(kBadNames);
  const std::string k = key(request.tenant, request.name);
  SessionReplAppendResponse response;
  SessionPtr session;
  {
    std::lock_guard lock(mutex_);
    if (const auto it = sessions_.find(k); it != sessions_.end()) {
      session = it->second;
    } else {
      // First contact from a primary: materialize the standby session from
      // the config the frame carries (no separate open exchange).
      try {
        plannerFn(config.planner);
      } catch (const Error& error) {
        return failed<SessionReplAppendResponse>(error.what());
      }
      session = createLocked(k, SessionEngine(config),
                             std::max<std::uint64_t>(1, request.epoch), true,
                             {}, response);
      if (!session) return response;
    }
  }
  const auto answer = onStrand(session, 1.0, [&](Session& s) {
    SessionReplAppendResponse reply;
    if (refuseStaleEpoch(s, request.epoch, "append", reply)) return reply;
    if (s.config != config)
      return failed<SessionReplAppendResponse>("replication config mismatch");
    if (request.epoch > s.epoch) {
      // A newer primary exists.  Adopt its epoch; a session that thought
      // it was primary is demoted back to standby (the old-primary-rejoins-
      // as-standby leg of the failover matrix).  The accepted suffix is NOT
      // kept: records past the new primary's promotion point share sequence
      // numbers with genuinely different records (a deposed primary's
      // async-acked-but-unshipped run, or a quorum ship that reached us for
      // a mutation the lost primary never acked), and nothing on the wire
      // proves record identity by seq alone — absorbing the new primary's
      // ships as "duplicates" would let phantom records survive into a
      // later promotion.  Discard the replay state and report a gap so the
      // new primary resyncs us from its snapshot + tail.
      if (!s.standby)
        log(LogLevel::kWarn) << "session " << s.key
                             << " demoted to standby (epoch " << s.epoch
                             << " -> " << request.epoch << ")";
      s.engine = SessionEngine(s.config);
      s.outcomes.clear();
      s.tail.clear();
      s.lastAccepted = 0;
      s.ackSeq = 0;
      s.sinceSnapshot = 0;
      s.epoch = request.epoch;
      s.standby = true;
      s.fenced = false;
      try {
        // The on-disk snapshot still holds the discarded suffix; a crash
        // before the resync install must not resurrect it on recovery.
        startFiles(s, {});
      } catch (const Error& error) {
        log(LogLevel::kWarn) << "cannot persist epoch adoption for "
                             << s.key << ": " << error.what();
      }
    }
    reply.epoch = s.epoch;
    reply.lastAccepted = s.lastAccepted;
    s.lastReplContact = std::chrono::steady_clock::now();
    if (request.seq <= s.lastAccepted) {
      reply.status = SessionStatus::kOk;  // duplicate ship: idempotent
      return reply;
    }
    if (request.seq != s.lastAccepted + 1) {
      reply.status = SessionStatus::kBadSequence;  // gap: primary resyncs
      reply.error = "expected seq " + std::to_string(s.lastAccepted + 1) +
                    ", got " + std::to_string(request.seq);
      return reply;
    }
    const MutationRecord rec = recordOf(request);
    try {
      appendWal(s, rec);
    } catch (const Error& error) {
      return failed<SessionReplAppendResponse>(
          std::string("journal append failed: ") + error.what());
    }
    s.lastAccepted = rec.seq;
    s.tail.emplace(rec.seq, rec);
    // Warm replay: apply in a task of its own, after this reply — the
    // primary's quorum needs the fsync, not the plan.  The continuously
    // applied engine is what makes promotion O(tail).
    post(session, 1.0 + static_cast<double>(rec.deltaCount),
         [this](Session& t) {
           if (t.closed) return;
           catchUp(t);
           publish(t);
         });
    reply.lastAccepted = s.lastAccepted;
    reply.status = SessionStatus::kOk;
    return reply;
  });
  return answer.value_or(
      unknownSession<SessionReplAppendResponse>(request.tenant, request.name));
}

SessionReplSnapshotResponse SessionService::replInstall(
    const SessionReplSnapshotRequest& request) {
  // Verify and decode before touching the store: the bytes are the
  // primary's .snap file verbatim, checksum trailer included.  Its epoch
  // and role are not adopted: the frame's epoch governs, and we stay
  // standby.  The names become file names: validate them first.
  if (!validSessionName(request.tenant) || !validSessionName(request.name))
    return failed<SessionReplSnapshotResponse>(kBadNames);
  std::optional<SnapshotFile> snap;
  try {
    snap.emplace(readSnapshotFile(request.snapshot));
  } catch (const Error& error) {
    return failed<SessionReplSnapshotResponse>(std::string("bad snapshot: ") +
                                               error.what());
  }
  if (snap->engine.config().tenant != request.tenant ||
      snap->engine.config().name != request.name)
    return failed<SessionReplSnapshotResponse>(
        "snapshot belongs to session " + snap->engine.config().tenant + "/" +
        snap->engine.config().name);
  const std::string k = key(request.tenant, request.name);
  SessionReplSnapshotResponse response;
  SessionPtr session;
  {
    std::lock_guard lock(mutex_);
    if (const auto it = sessions_.find(k); it != sessions_.end()) {
      session = it->second;
    } else {
      session = createLocked(k, std::move(snap->engine),
                             std::max<std::uint64_t>(1, request.epoch), true,
                             request.snapshot, response);
      if (!session) return response;
      // Listed, but no task of it can run before the lock is released.
      session->outcomes = std::move(snap->outcomes);
      session->ackSeq = snap->ackSeq;
      session->lastReplContact = std::chrono::steady_clock::now();
      response.status = SessionStatus::kOk;
      response.epoch = session->epoch;
      response.lastAccepted = session->lastAccepted;
      return response;
    }
  }
  const auto answer = onStrand(session, 1.0, [&](Session& s) {
    SessionReplSnapshotResponse reply;
    if (refuseStaleEpoch(s, request.epoch, "install", reply)) return reply;
    if (snap->engine.lastApplied() <= s.lastAccepted &&
        request.epoch == s.epoch) {
      // We already hold everything this snapshot covers: no-op.
      reply.status = SessionStatus::kOk;
      return reply;
    }
    if (snap->engine.config() != s.config)
      return failed<SessionReplSnapshotResponse>("replication config mismatch");
    s.engine = std::move(snap->engine);
    s.outcomes = std::move(snap->outcomes);
    s.ackSeq = snap->ackSeq;
    s.lastAccepted = s.engine.lastApplied();
    s.tail.clear();
    s.sinceSnapshot = 0;
    s.epoch = std::max(s.epoch, request.epoch);
    s.standby = true;
    s.fenced = false;
    s.lastReplContact = std::chrono::steady_clock::now();
    try {
      startFiles(s, request.snapshot);
    } catch (const Error& error) {
      log(LogLevel::kWarn) << "cannot persist installed snapshot for " << k
                           << ": " << error.what();
      s.walFd.reset();
    }
    reply.status = SessionStatus::kOk;
    reply.epoch = s.epoch;
    reply.lastAccepted = s.lastAccepted;
    return reply;
  });
  return answer.value_or(unknownSession<SessionReplSnapshotResponse>(
      request.tenant, request.name));
}

SessionStatusResponse SessionService::status(
    const SessionStatusRequest& request) {
  std::lock_guard lock(mutex_);
  const auto it = sessions_.find(key(request.tenant, request.name));
  if (it == sessions_.end())
    return unknownSession<SessionStatusResponse>(request.tenant, request.name);
  const Session::Mirror& mirror = it->second->mirror;
  SessionStatusResponse response;
  response.status = SessionStatus::kOk;
  response.role = mirror.standby ? "standby" : "primary";
  response.epoch = mirror.epoch;
  response.lastAccepted = mirror.lastAccepted;
  response.applied = mirror.applied;
  return response;
}

void SessionService::promote(Session& session) {
  // O(tail) by construction: the standby has been warm-replaying every
  // shipped record continuously, so only the records whose apply tasks
  // are still queued behind this one remain to apply.
  catchUp(session);
  session.standby = false;
  session.fenced = false;
  session.epoch += 1;
  metrics::counter(metrics::kServiceFailovers).add();
  log(LogLevel::kWarn) << "session " << session.key
                       << " promoted to primary (epoch " << session.epoch
                       << ")";
  // Persist the new epoch immediately: a crash right after promotion must
  // not recover into the deposed epoch and un-fence the old primary.
  try {
    if (!session.walPath.empty()) rewriteWal(session);
  } catch (const Error& error) {
    log(LogLevel::kWarn) << "cannot persist promotion of " << session.key
                         << ": " << error.what();
  }
}

bool SessionService::promotionDue(const Session& session) const {
  if (options_.standbyGrace.count() <= 0) return true;   // gate disabled
  if (session.lastReplContact == std::chrono::steady_clock::time_point{})
    return true;  // never replicated to: nothing to protect
  return std::chrono::steady_clock::now() - session.lastReplContact >=
         options_.standbyGrace;
}

std::optional<Replicator::ResyncBundle> SessionService::resyncBundle(
    const std::string& tenant, const std::string& name) {
  return onSession(tenant, name, 1.0, [&](Session& s) {
           Replicator::ResyncBundle bundle;
           bundle.snapshot.tenant = tenant;
           bundle.snapshot.name = name;
           bundle.snapshot.epoch = s.epoch;
           if (!s.snapPath.empty())
             if (const auto bytes = fsio::readFileIfExists(s.snapPath))
               bundle.snapshot.snapshot = *bytes;
           for (const auto& [seq, rec] : s.tail)
             bundle.tail.push_back(
                 replRequestFor(s.engine.config(), s.epoch, rec));
           return bundle;
         });
}

void SessionService::fenceSession(const std::string& tenant,
                                  const std::string& name,
                                  std::uint64_t standbyEpoch) {
  onSession(tenant, name, 1.0, [&](Session& s) {
    s.fenced = true;
    log(LogLevel::kWarn) << "session " << s.key
                         << " fenced: a standby holds epoch " << standbyEpoch
                         << " (local epoch " << s.epoch << ")";
    return true;
  });
}

void SessionService::beginDrain() {
  std::lock_guard lock(mutex_);
  draining_ = true;
}

std::size_t SessionService::drain() {
  static metrics::Counter& drained =
      metrics::counter(metrics::kSessionsDrained);
  std::vector<SessionPtr> sessions;
  {
    std::lock_guard lock(mutex_);
    draining_ = true;
    for (const auto& [k, session] : sessions_) sessions.push_back(session);
  }
  // Persist each session on its own flow, behind the work it has queued;
  // the executors exit only once every flow is idle.
  std::atomic<std::size_t> persisted{0};
  for (const SessionPtr& session : sessions) {
    post(session, 1.0, [this, &persisted](Session& s) {
      if (s.closed) return;
      try {
        catchUp(s);
        persist(s);
        s.walFd.reset();
        ++persisted;
        drained.add();
      } catch (const Error& error) {
        log(LogLevel::kWarn) << "cannot persist session " << s.key
                             << " on drain: " << error.what();
      }
      publish(s);
    });
  }
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
    work_.notify_all();
  }
  for (std::thread& t : executors_) t.join();
  executors_.clear();
  return persisted;
}

std::size_t SessionService::sessionCount() const {
  std::lock_guard lock(mutex_);
  return sessions_.size();
}

void SessionService::fillStats(StatsResponse& stats) const {
  // Publish replication lag before the metrics snapshot the caller takes
  // right after this (the gauges are only as fresh as the last scrape).
  if (replicator_) replicator_->refreshGauges();
  std::lock_guard lock(mutex_);
  std::map<std::string, double> vtimes;
  for (const FairScheduler::FlowStats& flow : scheduler_.flowStats())
    vtimes.emplace(flow.flow, flow.vtime);
  const auto steadyNow = std::chrono::steady_clock::now();
  const auto bucketNow = TokenBucket::Clock::now();
  const auto ageMs = [&](std::chrono::steady_clock::time_point t) {
    if (t == std::chrono::steady_clock::time_point{})
      return static_cast<std::int64_t>(-1);
    return static_cast<std::int64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(steadyNow - t)
            .count());
  };
  for (const auto& [flowKey, session] : sessions_) {
    const SessionConfig& config = session->config;
    const Session::Mirror& mirror = session->mirror;
    StatsResponse::SessionStats row;
    row.tenant = config.tenant;
    row.name = config.name;
    row.priority = static_cast<std::uint32_t>(config.priority);
    row.weight = config.weight;
    if (const auto vt = vtimes.find(flowKey); vt != vtimes.end())
      row.vtime = vt->second;
    // A tenant that has never mutated has no bucket yet — it would start
    // with a full burst.
    const auto bucket = buckets_.find(config.tenant);
    row.tokensRemaining = bucket != buckets_.end()
                              ? bucket->second.tokensAt(bucketNow)
                              : options_.tenantBurst;
    row.queued = mirror.lastAccepted - mirror.applied;
    row.applied = mirror.applied;
    row.walAgeMs = ageMs(mirror.lastWalAppend);
    row.snapshotAgeMs = ageMs(mirror.lastSnapshot);
    row.role = mirror.standby ? "standby" : "primary";
    row.epoch = mirror.epoch;
    stats.sessions.push_back(std::move(row));
  }
  stats.openSessions = sessions_.size();
  stats.schedulerDepth = scheduler_.depth();
  stats.schedulerVirtualNow = scheduler_.virtualNow();
}

// --- SessionStream --------------------------------------------------------

SessionStream::SessionStream(Options options) : options_(std::move(options)) {
  ipc::ignoreSigpipe();
  endpoints_ = options_.endpoints.empty()
                   ? std::vector<ipc::Endpoint>{options_.endpoint}
                   : options_.endpoints;
  breakers_.reserve(endpoints_.size());
  for (std::size_t k = 0; k < endpoints_.size(); ++k)
    breakers_.push_back(std::make_unique<CircuitBreaker>());
}

void SessionStream::rotate() {
  if (endpoints_.size() < 2) return;
  // Prefer the next endpoint whose breaker is not OPEN — an endpoint that
  // just timed out repeatedly should not be the first thing re-tried mid-
  // failover.  With every breaker open, plain round-robin (something has
  // to be probed).
  const std::size_t start = current_;
  std::size_t candidate = (start + 1) % endpoints_.size();
  for (std::size_t step = 1; step <= endpoints_.size(); ++step) {
    const std::size_t probe = (start + step) % endpoints_.size();
    if (breakers_[probe]->state() != CircuitBreaker::State::kOpen) {
      candidate = probe;
      break;
    }
  }
  if (candidate == start) return;
  current_ = candidate;
  ++failovers_;
  conn_.reset();
}

std::string SessionStream::exchange(const std::string& payload) {
  const auto deadline = std::chrono::steady_clock::now() + options_.retryFor;
  std::uint32_t attempt = 0;
  for (;;) {
    const ipc::Endpoint& endpoint = endpoints_[current_];
    CircuitBreaker& breaker = *breakers_[current_];
    std::string error;
    if (auto reply = exchangeOnLink(conn_, endpoint, payload,
                                    options_.readTimeout, error)) {
      breaker.recordSuccess();
      return *std::move(reply);
    }
    // Resending after a reconnect is always safe: the server answers
    // duplicate sequence numbers from its (possibly journal-recovered)
    // transcript instead of re-applying them.  With a failover set, a
    // transport failure also rotates to the next endpoint — which is how a
    // killed primary is transparently replaced by its promoted standby.
    breaker.recordFailure();
    ++reconnects_;
    rotate();
    const auto delay = backoffDelay(attempt++, endpoint.describe());
    if (std::chrono::steady_clock::now() + delay >= deadline)
      throw ipc::IpcError("session endpoint " + endpoint.describe() +
                          " unreachable: " + error);
    std::this_thread::sleep_for(delay);
  }
}

SessionOpenResponse SessionStream::open(const SessionOpenRequest& request) {
  return decodeSessionOpenResponse(
      exchange(encodeSessionOpenRequest(request)));
}

SessionMutateResponse SessionStream::mutate(
    const SessionMutateRequest& request) {
  return decodeSessionMutateResponse(
      exchange(encodeSessionMutateRequest(request)));
}

SessionReplayResponse SessionStream::replay(
    const SessionReplayRequest& request) {
  return decodeSessionReplayResponse(
      exchange(encodeSessionReplayRequest(request)));
}

SessionCloseResponse SessionStream::close(const SessionCloseRequest& request) {
  return decodeSessionCloseResponse(
      exchange(encodeSessionCloseRequest(request)));
}

SessionStatusResponse SessionStream::status(
    const SessionStatusRequest& request) {
  return decodeSessionStatusResponse(
      exchange(encodeSessionStatusRequest(request)));
}

}  // namespace rfsm::service
