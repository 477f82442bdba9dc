#include "service/protocol.hpp"

#include "core/jsr.hpp"
#include "core/program.hpp"
#include "gen/generator.hpp"
#include "gen/mutator.hpp"
#include "service/plan_cache.hpp"
#include "service/wire_fields.hpp"
#include "util/cache.hpp"
#include "util/ipc.hpp"
#include "util/metrics.hpp"
#include "util/thread_pool.hpp"

namespace rfsm::service {
namespace {

// --- Instance cache ------------------------------------------------------
//
// makeInstance is deterministic in (spec, index), so its results are
// cacheable forever.  A long-lived worker serving retried, hedged, or
// quorum-duplicated shards of the same batch regenerates nothing; SLRU +
// ghost admission (util/cache.hpp) at kInstanceCacheCapacity bounds the
// footprint without letting one-shot sweeps flush the hot working set.

SlruCache<MigrationContext>& instanceCache() {
  static auto* cache =  // immortal
      new SlruCache<MigrationContext>(kInstanceCacheCapacity);
  return *cache;
}

std::string instanceKey(const BatchSpec& spec, std::uint64_t index) {
  // instanceCount is deliberately absent: instance k's bytes depend only on
  // the generation dimensions and seed, so shards of differently-sized
  // sweeps over the same spec share entries.  The planner and EA fields are
  // equally absent — and must stay so — because generation draws only from
  // the gen substream; the regression test InstanceCacheKeySeparation pins
  // every field that *does* matter.
  return std::to_string(spec.stateCount) + "," +
         std::to_string(spec.inputCount) + "," +
         std::to_string(spec.outputCount) + "," +
         std::to_string(spec.deltaCount) + "," +
         std::to_string(spec.newStateCount) + "," +
         std::to_string(spec.seed) + "#" + std::to_string(index);
}

MigrationContext cachedInstance(const BatchSpec& spec, std::uint64_t index) {
  static metrics::Counter& hits =
      metrics::counter(metrics::kServiceWorkerCacheHits);
  static metrics::Counter& misses =
      metrics::counter(metrics::kServiceWorkerCacheMisses);
  SlruCache<MigrationContext>& cache = instanceCache();
  const std::string key = instanceKey(spec, index);
  if (auto hit = cache.get(key)) {
    hits.add();
    return *std::move(hit);
  }
  misses.add();
  // Generate outside the cache lock (the expensive part); a racing twin
  // doing the same work inserts an identical value, so last-writer-wins is
  // harmless.
  MigrationContext instance = makeInstance(spec, index);
  cache.put(key, instance);
  return instance;
}

}  // namespace

void clearInstanceCache() { instanceCache().clear(); }

MigrationContext makeInstance(const BatchSpec& spec, std::uint64_t index) {
  Rng gen = Rng(spec.seed).substream(kGenStreamBase + index);
  RandomMachineSpec sourceSpec;
  sourceSpec.stateCount = spec.stateCount;
  sourceSpec.inputCount = spec.inputCount;
  sourceSpec.outputCount = spec.outputCount;
  sourceSpec.name = "batch" + std::to_string(index);
  const Machine source = randomMachine(sourceSpec, gen);
  MutationSpec mutation;
  mutation.deltaCount = spec.deltaCount;
  mutation.newStateCount = spec.newStateCount;
  mutation.name = sourceSpec.name + "'";
  const Machine target = mutateMachine(source, mutation, gen);
  return MigrationContext(source, target);
}

BatchPlanFn plannerFn(const std::string& name) {
  if (name == "jsr") {
    return [](const MigrationContext& context, Rng&) {
      return planJsr(context);
    };
  }
  if (name == "greedy") {
    return [](const MigrationContext& context, Rng&) {
      return planGreedy(context);
    };
  }
  if (name == "ea") {
    return [](const MigrationContext& context, Rng& rng) {
      return planEvolutionary(context, EvolutionConfig{}, rng).program;
    };
  }
  throw Error("unknown batch planner '" + name + "' (jsr|greedy|ea)");
}

BatchPlanFn plannerFn(const BatchSpec& spec) {
  if (spec.planner == "ea") {
    EvolutionConfig config;
    config.populationSize = spec.eaPopulation;
    config.generations = spec.eaGenerations;
    return [config](const MigrationContext& context, Rng& rng) {
      return planEvolutionary(context, config, rng).program;
    };
  }
  return plannerFn(spec.planner);
}

namespace {

/// The pre-split planRange body: always generates and plans, never touches
/// the plan-result cache.  Quorum verification reaches it via kBypass.
std::vector<std::string> planRangeUncached(const BatchSpec& spec,
                                           std::uint64_t lo, std::uint64_t hi,
                                           const CancelToken* cancel,
                                           int jobs) {
  std::vector<MigrationContext> instances;
  instances.reserve(static_cast<std::size_t>(hi - lo));
  for (std::uint64_t k = lo; k < hi; ++k) {
    pollCancel(cancel, "service.generate");
    instances.push_back(cachedInstance(spec, k));
  }

  BatchOptions options;
  options.jobs = jobs;
  options.seed = spec.seed;
  options.substreamBase = lo;  // the bit-identical-shard contract
  options.cancel = cancel;
  const std::vector<ReconfigurationProgram> programs =
      planAll(instances, plannerFn(spec), options);

  std::vector<std::string> texts;
  texts.reserve(programs.size());
  for (std::size_t k = 0; k < programs.size(); ++k)
    texts.push_back(programToText(instances[k], programs[k]));
  return texts;
}

}  // namespace

std::vector<std::string> planRange(const BatchSpec& spec, std::uint64_t lo,
                                   std::uint64_t hi, const CancelToken* cancel,
                                   int jobs, PlanCacheMode mode) {
  RFSM_CHECK(lo <= hi && hi <= spec.instanceCount,
             "shard range out of bounds");
  if (mode == PlanCacheMode::kBypass || !planCacheEnabled())
    return planRangeUncached(spec, lo, hi, cancel, jobs);

  // Serve what the plan cache holds, recompute the gaps as contiguous runs
  // (each run plans with substreamBase = its own absolute lo, so the bytes
  // match the unsharded computation no matter how hits fragment the range).
  const std::size_t count = static_cast<std::size_t>(hi - lo);
  std::vector<std::string> texts(count);
  std::vector<bool> cached(count, false);
  for (std::uint64_t k = lo; k < hi; ++k) {
    pollCancel(cancel, "service.generate");
    if (auto hit = planCacheLookup(planCacheKey(spec, k))) {
      texts[static_cast<std::size_t>(k - lo)] = *std::move(hit);
      cached[static_cast<std::size_t>(k - lo)] = true;
    }
  }
  std::uint64_t runLo = lo;
  while (runLo < hi) {
    if (cached[static_cast<std::size_t>(runLo - lo)]) {
      ++runLo;
      continue;
    }
    std::uint64_t runHi = runLo + 1;
    while (runHi < hi && !cached[static_cast<std::size_t>(runHi - lo)])
      ++runHi;
    std::vector<std::string> fresh =
        planRangeUncached(spec, runLo, runHi, cancel, jobs);
    for (std::uint64_t k = runLo; k < runHi; ++k) {
      planCacheStore(planCacheKey(spec, k),
                     fresh[static_cast<std::size_t>(k - runLo)]);
      texts[static_cast<std::size_t>(k - lo)] =
          std::move(fresh[static_cast<std::size_t>(k - runLo)]);
    }
    runLo = runHi;
  }
  return texts;
}

// --- Frame descriptions ----------------------------------------------------
//
// Each frame and nested record, described once in wire order; the
// adaptors in wire_fields.hpp derive the encoder and the bounded decoder.

namespace wire {

template <class Io>
void fields(Io& io, BatchSpec& m) {
  io(m.stateCount, m.inputCount, m.outputCount, m.deltaCount,
     m.newStateCount, m.instanceCount, m.seed, m.planner, m.eaPopulation,
     m.eaGenerations);
}

template <class Io>
void fields(Io& io, trace::TraceContext& m) {
  io(m.traceIdHi, m.traceIdLo, m.spanId, m.sampled);
}

template <class Io>
void fields(Io& io, PlanRequest& m) {
  io(m.spec, m.deadlineMs, m.requestId, m.lo, m.hi, m.context);
}

template <class Io>
void fields(Io& io, PlanResponse& m) {
  io(m.status, m.error, m.retries, m.crashes, m.cacheHits, m.programs);
}

template <class Io>
void fields(Io& io, ShardRequest& m) {
  io(m.spec, m.lo, m.hi, m.deadlineNs, m.context);
}

template <class Io>
void fields(Io& io, ShardResponse& m) {
  io(m.status, m.error, m.programs);
}

template <class Io>
void fields(Io& io, HealthResponse& m) {
  io(m.healthy, m.workersAlive, m.workersConfigured, m.queueDepth, m.crashes,
     m.retries, m.shed);
}

template <class Io>
void fields(Io& io, metrics::CounterSample& m) {
  io(m.name, m.value);
}

template <class Io>
void fields(Io& io, metrics::GaugeSample& m) {
  io(m.name, m.value);
}

template <class Io>
void fields(Io& io, metrics::TimerSample& m) {
  io(m.name, m.count, m.totalMs);
}

template <class Io>
void fields(Io& io, metrics::HistogramSample& m) {
  io(m.name, m.count, m.p50Ms, m.p90Ms, m.p99Ms, m.maxMs);
}

template <class Io>
void fields(Io& io, metrics::RollingSample& m) {
  io(m.name, m.count, m.p50Ms, m.p90Ms, m.p99Ms, m.maxMs, m.windowMs);
}

template <class Io>
void fields(Io& io, metrics::Snapshot& m) {
  io(m.counters, m.gauges, m.timers, m.histograms, m.rolling);
}

template <class Io>
void fields(Io& io, StatsResponse::PlanCacheStats& m) {
  io(m.enabled, m.size, m.capacity);
}

template <class Io>
void fields(Io& io, StatsResponse::BreakerStats& m) {
  io(m.name, m.state, m.trips);
}

template <class Io>
void fields(Io& io, StatsResponse::SessionStats& m) {
  io(m.tenant, m.name, m.priority, m.weight, m.vtime, m.tokensRemaining,
     m.queued, m.applied, m.walAgeMs, m.snapshotAgeMs, m.role, m.epoch);
}

template <class Io>
void fields(Io& io, StatsResponse& m) {
  io(m.pid, m.uptimeMs, m.draining, m.workers, m.planCache, m.breakers,
     m.sessions, m.openSessions, m.schedulerDepth, m.schedulerVirtualNow,
     m.metrics);
}

template <class Io>
void fields(Io& io, TraceDumpRequest& m) {
  io(m.clientSteadyNs);
}

template <class Io>
void fields(Io& io, TraceDumpResponse& m) {
  io(m.serverSteadyNs, m.clientSteadyNs, m.traceJson);
}

template <class Io>
void fields(Io& io, SessionOpenRequest& m) {
  io(m.tenant, m.name, m.priority, m.weight, m.planner, m.stateCount,
     m.inputCount, m.outputCount, m.seed, m.resume);
}

template <class Io>
void fields(Io& io, SessionOpenResponse& m) {
  io(m.status, m.error, m.lastApplied, m.retryAfterMs);
}

template <class Io>
void fields(Io& io, SessionMutateRequest& m) {
  io(m.tenant, m.name, m.seq, m.deltaCount, m.newStateCount, m.mutationSeed,
     m.defer, m.ackSeq, m.context);
}

template <class Io>
void fields(Io& io, SessionMutateResponse& m) {
  io(m.status, m.error, m.seq, m.program, m.compactedFrom, m.deltasPlanned,
     m.deltasRaw, m.retryAfterMs);
}

template <class Io>
void fields(Io& io, SessionReplayRequest& m) {
  io(m.tenant, m.name, m.fromSeq, m.toSeq);
}

template <class Io>
void fields(Io& io, SessionReplayResponse::Entry& m) {
  io(m.seq, m.program);
}

template <class Io>
void fields(Io& io, SessionReplayResponse& m) {
  io(m.status, m.error, m.entries);
}

template <class Io>
void fields(Io& io, SessionCloseRequest& m) {
  io(m.tenant, m.name);
}

template <class Io>
void fields(Io& io, SessionCloseResponse& m) {
  io(m.status, m.error, m.mutationsApplied, m.plans);
}

template <class Io>
void fields(Io& io, SessionReplAppendRequest& m) {
  io(m.tenant, m.name, m.priority, m.weight, m.planner, m.stateCount,
     m.inputCount, m.outputCount, m.seed, m.epoch, m.seq, m.deltaCount,
     m.newStateCount, m.mutationSeed, m.defer);
}

template <class Io>
void fields(Io& io, SessionReplAppendResponse& m) {
  io(m.status, m.error, m.epoch, m.lastAccepted);
}

template <class Io>
void fields(Io& io, SessionReplSnapshotRequest& m) {
  io(m.tenant, m.name, m.epoch, m.snapshot);
}

template <class Io>
void fields(Io& io, SessionReplSnapshotResponse& m) {
  io(m.status, m.error, m.epoch, m.lastAccepted);
}

template <class Io>
void fields(Io& io, SessionStatusRequest& m) {
  io(m.tenant, m.name);
}

template <class Io>
void fields(Io& io, SessionStatusResponse& m) {
  io(m.status, m.error, m.role, m.epoch, m.lastAccepted, m.applied);
}

template <class Io>
void fields(Io& io, HandshakeRequest& m) {
  io(m.version, m.features);
}

template <class Io>
void fields(Io& io, HandshakeResponse& m) {
  io(m.accepted, m.version, m.features, m.error);
}

/// A frame that is its type tag alone.
template <MessageType kTag>
struct Bodiless {
  static constexpr MessageType kType = kTag;
};

template <class Io, MessageType kTag>
void fields(Io&, Bodiless<kTag>&) {}

}  // namespace wire

using wire::Bodiless;
using wire::decodeFrame;
using wire::encodeFrame;

// --- Frames ----------------------------------------------------------------

std::string encodePlanRequest(const PlanRequest& m) { return encodeFrame(m); }
PlanRequest decodePlanRequest(const std::string& p) {
  return decodeFrame<PlanRequest>(p);
}
std::string encodePlanResponse(const PlanResponse& m) { return encodeFrame(m); }
PlanResponse decodePlanResponse(const std::string& p) {
  return decodeFrame<PlanResponse>(p);
}
std::string encodeShardRequest(const ShardRequest& m) { return encodeFrame(m); }
ShardRequest decodeShardRequest(const std::string& p) {
  return decodeFrame<ShardRequest>(p);
}
std::string encodeShardResponse(const ShardResponse& m) {
  return encodeFrame(m);
}
ShardResponse decodeShardResponse(const std::string& p) {
  return decodeFrame<ShardResponse>(p);
}
std::string encodeHealthRequest() {
  return encodeFrame(Bodiless<MessageType::kHealthRequest>{});
}
std::string encodeHealthResponse(const HealthResponse& m) {
  return encodeFrame(m);
}
HealthResponse decodeHealthResponse(const std::string& p) {
  return decodeFrame<HealthResponse>(p);
}
std::string encodeWarmupRequest() {
  return encodeFrame(Bodiless<MessageType::kWarmupRequest>{});
}
std::string encodeWarmupResponse() {
  return encodeFrame(Bodiless<MessageType::kWarmupResponse>{});
}
void decodeWarmupResponse(const std::string& p) {
  decodeFrame<Bodiless<MessageType::kWarmupResponse>>(p);
}
std::string encodeStatsRequest() {
  return encodeFrame(Bodiless<MessageType::kStatsRequest>{});
}
void decodeStatsRequest(const std::string& p) {
  decodeFrame<Bodiless<MessageType::kStatsRequest>>(p);
}
std::string encodeStatsResponse(const StatsResponse& m) {
  return encodeFrame(m);
}
StatsResponse decodeStatsResponse(const std::string& p) {
  return decodeFrame<StatsResponse>(p);
}
std::string encodeTraceDumpRequest(const TraceDumpRequest& m) {
  return encodeFrame(m);
}
TraceDumpRequest decodeTraceDumpRequest(const std::string& p) {
  return decodeFrame<TraceDumpRequest>(p);
}
std::string encodeTraceDumpResponse(const TraceDumpResponse& m) {
  return encodeFrame(m);
}
TraceDumpResponse decodeTraceDumpResponse(const std::string& p) {
  return decodeFrame<TraceDumpResponse>(p);
}
std::string encodeSessionOpenRequest(const SessionOpenRequest& m) {
  return encodeFrame(m);
}
SessionOpenRequest decodeSessionOpenRequest(const std::string& p) {
  return decodeFrame<SessionOpenRequest>(p);
}
std::string encodeSessionOpenResponse(const SessionOpenResponse& m) {
  return encodeFrame(m);
}
SessionOpenResponse decodeSessionOpenResponse(const std::string& p) {
  return decodeFrame<SessionOpenResponse>(p);
}
std::string encodeSessionMutateRequest(const SessionMutateRequest& m) {
  return encodeFrame(m);
}
SessionMutateRequest decodeSessionMutateRequest(const std::string& p) {
  return decodeFrame<SessionMutateRequest>(p);
}
std::string encodeSessionMutateResponse(const SessionMutateResponse& m) {
  return encodeFrame(m);
}
SessionMutateResponse decodeSessionMutateResponse(const std::string& p) {
  return decodeFrame<SessionMutateResponse>(p);
}
std::string encodeSessionReplayRequest(const SessionReplayRequest& m) {
  return encodeFrame(m);
}
SessionReplayRequest decodeSessionReplayRequest(const std::string& p) {
  return decodeFrame<SessionReplayRequest>(p);
}
std::string encodeSessionReplayResponse(const SessionReplayResponse& m) {
  return encodeFrame(m);
}
SessionReplayResponse decodeSessionReplayResponse(const std::string& p) {
  return decodeFrame<SessionReplayResponse>(p);
}
std::string encodeSessionCloseRequest(const SessionCloseRequest& m) {
  return encodeFrame(m);
}
SessionCloseRequest decodeSessionCloseRequest(const std::string& p) {
  return decodeFrame<SessionCloseRequest>(p);
}
std::string encodeSessionCloseResponse(const SessionCloseResponse& m) {
  return encodeFrame(m);
}
SessionCloseResponse decodeSessionCloseResponse(const std::string& p) {
  return decodeFrame<SessionCloseResponse>(p);
}
std::string encodeSessionReplAppendRequest(const SessionReplAppendRequest& m) {
  return encodeFrame(m);
}
SessionReplAppendRequest decodeSessionReplAppendRequest(const std::string& p) {
  return decodeFrame<SessionReplAppendRequest>(p);
}
std::string encodeSessionReplAppendResponse(
    const SessionReplAppendResponse& m) {
  return encodeFrame(m);
}
SessionReplAppendResponse decodeSessionReplAppendResponse(
    const std::string& p) {
  return decodeFrame<SessionReplAppendResponse>(p);
}
std::string encodeSessionReplSnapshotRequest(
    const SessionReplSnapshotRequest& m) {
  return encodeFrame(m);
}
SessionReplSnapshotRequest decodeSessionReplSnapshotRequest(
    const std::string& p) {
  return decodeFrame<SessionReplSnapshotRequest>(p);
}
std::string encodeSessionReplSnapshotResponse(
    const SessionReplSnapshotResponse& m) {
  return encodeFrame(m);
}
SessionReplSnapshotResponse decodeSessionReplSnapshotResponse(
    const std::string& p) {
  return decodeFrame<SessionReplSnapshotResponse>(p);
}
std::string encodeSessionStatusRequest(const SessionStatusRequest& m) {
  return encodeFrame(m);
}
SessionStatusRequest decodeSessionStatusRequest(const std::string& p) {
  return decodeFrame<SessionStatusRequest>(p);
}
std::string encodeSessionStatusResponse(const SessionStatusResponse& m) {
  return encodeFrame(m);
}
SessionStatusResponse decodeSessionStatusResponse(const std::string& p) {
  return decodeFrame<SessionStatusResponse>(p);
}
std::string encodeHandshakeRequest(const HandshakeRequest& m) {
  return encodeFrame(m);
}
HandshakeRequest decodeHandshakeRequest(const std::string& p) {
  return decodeFrame<HandshakeRequest>(p);
}
std::string encodeHandshakeResponse(const HandshakeResponse& m) {
  return encodeFrame(m);
}
HandshakeResponse decodeHandshakeResponse(const std::string& p) {
  return decodeFrame<HandshakeResponse>(p);
}

MessageType peekType(const std::string& payload) {
  ipc::MessageReader reader(payload);
  const std::uint32_t tag = reader.u32();
  if (tag < static_cast<std::uint32_t>(MessageType::kPlanRequest) ||
      tag > static_cast<std::uint32_t>(MessageType::kSessionStatusResponse))
    throw ipc::IpcError("unknown message type " + std::to_string(tag));
  return static_cast<MessageType>(tag);
}

const char* toString(SessionStatus status) {
  switch (status) {
    case SessionStatus::kOk: return "OK";
    case SessionStatus::kAccepted: return "ACCEPTED";
    case SessionStatus::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case SessionStatus::kDraining: return "DRAINING";
    case SessionStatus::kNotFound: return "NOT_FOUND";
    case SessionStatus::kBadSequence: return "BAD_SEQUENCE";
    case SessionStatus::kFailed: return "FAILED";
    case SessionStatus::kStaleEpoch: return "STALE_EPOCH";
  }
  return "FAILED";
}

HandshakeResponse answerHandshake(const HandshakeRequest& request) {
  HandshakeResponse response;
  response.version = kProtocolVersion;
  if (request.version != kProtocolVersion) {
    // A different generation may frame its messages differently (the CRC
    // trailer itself arrived in generation 1); refuse loudly rather than
    // misparse quietly.
    response.accepted = false;
    response.features = 0;
    response.error = "protocol version mismatch (peer " +
                     std::to_string(request.version) + ", server " +
                     std::to_string(kProtocolVersion) + ")";
    return response;
  }
  response.accepted = true;
  response.features = request.features & kFeatureCrc32c;
  return response;
}

}  // namespace rfsm::service
