// Client side of the planner service, with graceful degradation.
//
// requestPlan is the one place a plan reply is classified: it sends one
// PlanRequest to one endpoint and returns ok, deadline, failed, or a
// transport failure with its stable reason token (no answer, a malformed
// frame or payload, an UNAVAILABLE pool, or a shed request).  planBatch and
// the fabric (src/service/fabric.hpp) both build on it, so the two paths
// cannot drift in what they call a failure or how they name it.
//
// planBatch is what `rfsmc plan --server` calls: it tries the rfsmd at
// `socketPath`, and on a transport failure it *degrades* to in-process
// planning and still returns correct results (logged on stderr, counted in
// service.degraded; stdout stays byte-identical to a healthy server run,
// which is how CI asserts the fallback is lossless).  DEADLINE_EXCEEDED and
// FAILED do not degrade: the former is the caller's budget expiring
// (replanning would blow it further), the latter is a deterministic planner
// defect that would fail identically in-process.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "service/protocol.hpp"
#include "util/ipc.hpp"

namespace rfsm::service {

struct ClientOptions {
  /// Server endpoint in ipc::parseEndpoint syntax (Unix path or
  /// tcp:host:port).
  std::string socketPath;
  /// Latency budget; 0 = none.
  std::int64_t deadlineMs = 0;
  /// Parallelism of a degraded in-process run.
  int jobs = 1;
};

/// One framed request/response exchange with an endpoint — the single
/// connect+frame path under planBatch, probeHealth, and the fabric
/// (src/service/fabric.hpp), so transport behaviour cannot drift between
/// them.  `timeoutMs` bounds the connect; the read is bounded by `cancel`
/// when given (hedged requests cancel losers through it), else by
/// `timeoutMs`.  Throws ipc::IpcError on connect/write/transport failure;
/// nullopt when the server hung up or the wait expired.
std::optional<std::string> exchangeEndpoint(const ipc::Endpoint& endpoint,
                                            const std::string& request,
                                            std::int64_t timeoutMs,
                                            const CancelToken* cancel = nullptr);

/// Stable, human-free degradation reason tokens: stderr notices print these
/// (CI greps them), the underlying detail goes to traces.
inline constexpr const char* kReasonUnreachable = "unreachable";
inline constexpr const char* kReasonUnhealthy = "unhealthy";
inline constexpr const char* kReasonOverloaded = "overloaded";
inline constexpr const char* kReasonMalformed = "malformed response";

/// One plan exchange with one endpoint, classified by requestPlan.
struct PlanReply {
  /// kOk, kDeadlineExceeded or kFailed as the endpoint answered;
  /// kUnavailable for a transport failure, which `reason` names.
  WorkResult::Status status = WorkResult::Status::kUnavailable;
  /// Stable reason token of a transport failure (kReason* above).
  const char* reason = kReasonUnreachable;
  std::vector<std::string> programs;  ///< one text per instance when kOk
  std::string error;  ///< the server's error or the transport detail
  std::uint64_t retries = 0;
  std::uint64_t crashes = 0;
  std::uint64_t cacheHits = 0;
};

/// Sends `request` to `endpoint` (exchangeEndpoint's `timeoutMs` and
/// `cancel`) and classifies the reply: an unanswered, CRC-corrupt or
/// undecodable exchange and an UNAVAILABLE or shed reply come back as
/// kUnavailable with their reason token.  Never throws on transport or
/// decoding failures.
PlanReply requestPlan(const ipc::Endpoint& endpoint, const PlanRequest& request,
                      std::int64_t timeoutMs,
                      const CancelToken* cancel = nullptr);

struct ClientResult {
  WorkResult::Status status = WorkResult::Status::kFailed;
  std::vector<std::string> programs;  ///< one text per instance when kOk
  std::string error;
  bool degraded = false;   ///< planned in-process after a service failure
  std::uint64_t retries = 0;  ///< shard retries the server reported
  std::uint64_t crashes = 0;  ///< worker crashes the server reported
  /// Instances served from a plan-result cache (the server's on the service
  /// path, this process's on the local/degraded path); 0 when disabled.
  std::uint64_t cacheHits = 0;
};

/// Plans `spec` via the server, degrading to in-process planning when the
/// service is unavailable.  Diagnostics (degradation notices, server
/// errors) go to `err`; nothing is written to stdout.
ClientResult planBatch(const BatchSpec& spec, const ClientOptions& options,
                       std::ostream& err);

/// Plans `spec` purely in-process (the local mode of `rfsmc plan`, and the
/// degraded path of planBatch).  Honours `deadlineMs` cooperatively.
ClientResult planLocal(const BatchSpec& spec, std::int64_t deadlineMs,
                       int jobs);

/// Health probe; nullopt when the server cannot be reached or does not
/// answer within `timeoutMs`.
std::optional<HealthResponse> probeHealth(const std::string& socketPath,
                                          std::int64_t timeoutMs = 5000);
std::optional<HealthResponse> probeHealth(const ipc::Endpoint& endpoint,
                                          std::int64_t timeoutMs = 5000);

/// Version/feature handshake probe; nullopt when the server cannot be
/// reached, does not answer, or answers garbage.  A non-accepted response
/// (version mismatch) comes back as a value — the caller decides whether
/// to degrade or refuse.
std::optional<HandshakeResponse> probeHandshake(const ipc::Endpoint& endpoint,
                                                std::int64_t timeoutMs = 5000);

}  // namespace rfsm::service
