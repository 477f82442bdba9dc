#include "service/client.hpp"

#include <chrono>
#include <ostream>

#include "util/ipc.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace rfsm::service {

std::optional<std::string> exchangeEndpoint(const ipc::Endpoint& endpoint,
                                            const std::string& request,
                                            std::int64_t timeoutMs,
                                            const CancelToken* cancel) {
  ipc::ignoreSigpipe();
  ipc::Fd fd = ipc::connectEndpoint(endpoint, timeoutMs);
  ipc::writeFrame(fd.get(), request);
  CancelToken token;
  if (cancel == nullptr && timeoutMs > 0) {
    token.setDeadline(CancelToken::Clock::now() +
                      std::chrono::milliseconds(timeoutMs));
    cancel = &token;
  }
  std::string reply;
  const ipc::ReadStatus status = ipc::readFrame(fd.get(), reply, cancel);
  if (status != ipc::ReadStatus::kOk) return std::nullopt;
  return reply;
}

namespace {

/// Degrades to in-process planning.  The stderr notice carries only the
/// stable `reason` token (kReasonUnreachable & co.) so scripts and CI can
/// assert on it; the raw `detail` (errno text, server error strings —
/// anything environment-dependent) goes to the trace.
ClientResult degrade(const BatchSpec& spec, const ClientOptions& options,
                     std::ostream& err, const std::string& reason,
                     const std::string& detail) {
  static metrics::Counter& degraded =
      metrics::counter(metrics::kServiceDegraded);
  degraded.add();
  trace::instant("service.degraded", "service",
                 {trace::Arg::str("why", reason),
                  trace::Arg::str("detail", detail)});
  // Diagnostics to stderr only: stdout must stay byte-identical to a
  // healthy server run so `diff` proves the degradation lossless.
  err << "rfsmc: planner service unavailable (" << reason
      << "); degrading to in-process planning\n";
  ClientResult result = planLocal(spec, options.deadlineMs, options.jobs);
  result.degraded = true;
  return result;
}

}  // namespace

ClientResult planLocal(const BatchSpec& spec, std::int64_t deadlineMs,
                       int jobs) {
  ClientResult result;
  CancelToken cancel;
  if (deadlineMs > 0) {
    cancel.setDeadline(CancelToken::Clock::now() +
                       std::chrono::milliseconds(deadlineMs));
  }
  // planRange counts its own cache traffic; the delta across this call is
  // what this batch was served from cache.
  const std::uint64_t hitsBefore =
      metrics::counter(metrics::kServicePlanCacheHits).value();
  try {
    result.programs = planRange(spec, 0, spec.instanceCount,
                                deadlineMs > 0 ? &cancel : nullptr, jobs);
    result.status = WorkResult::Status::kOk;
    result.cacheHits =
        metrics::counter(metrics::kServicePlanCacheHits).value() - hitsBefore;
  } catch (const CancelledError& error) {
    result.status = WorkResult::Status::kDeadlineExceeded;
    result.error = error.what();
  } catch (const BatchError& error) {
    // Cancellation inside planAll surfaces as a BatchError whose failures
    // are all marked cancelled; report it as the deadline it is.
    bool allCancelled = !error.failures().empty();
    for (const InstanceFailure& failure : error.failures())
      allCancelled = allCancelled && failure.cancelled;
    result.status = allCancelled ? WorkResult::Status::kDeadlineExceeded
                                 : WorkResult::Status::kFailed;
    result.error = error.what();
  } catch (const Error& error) {
    result.status = WorkResult::Status::kFailed;
    result.error = error.what();
  }
  return result;
}

PlanReply requestPlan(const ipc::Endpoint& endpoint, const PlanRequest& request,
                      std::int64_t timeoutMs, const CancelToken* cancel) {
  PlanReply reply;
  std::optional<std::string> bytes;
  try {
    bytes = exchangeEndpoint(endpoint, encodePlanRequest(request), timeoutMs,
                             cancel);
  } catch (const ipc::FrameError& error) {
    // The endpoint answered, but the bytes failed their CRC or length
    // check: the reply is untrustworthy and never served.  Malformed, not
    // unreachable — the peer is alive and misbehaving.
    reply.reason = kReasonMalformed;
    reply.error = error.what();
    return reply;
  } catch (const ipc::IpcError& error) {
    reply.error = error.what();
    return reply;
  }
  if (!bytes.has_value()) {
    reply.error = "endpoint did not answer";
    return reply;
  }
  PlanResponse response;
  try {
    response = decodePlanResponse(*bytes);
  } catch (const Error& error) {
    reply.reason = kReasonMalformed;
    reply.error = error.what();
    return reply;
  }
  reply.retries = response.retries;
  reply.crashes = response.crashes;
  reply.cacheHits = response.cacheHits;
  reply.error = std::move(response.error);
  switch (response.status) {
    case WorkResult::Status::kUnavailable:
      reply.reason = kReasonUnhealthy;
      break;
    case WorkResult::Status::kShed:
      // A healthy pool said "not now" (queue full): overload, not unhealth.
      reply.reason = kReasonOverloaded;
      break;
    default:
      reply.status = response.status;
      reply.programs = std::move(response.programs);
      break;
  }
  return reply;
}

ClientResult planBatch(const BatchSpec& spec, const ClientOptions& options,
                       std::ostream& err) {
  PlanRequest request;
  request.spec = spec;
  request.deadlineMs = options.deadlineMs;
  request.requestId = spec.seed;  // correlates client logs with the server

  trace::ScopedSpan span("service.plan_batch", "service",
                         {trace::Arg::num("instances", spec.instanceCount)});
  // Read after the span installs itself, so the server parents under it.
  request.context = trace::currentContext();

  ipc::Endpoint endpoint;
  try {
    endpoint = ipc::parseEndpoint(options.socketPath);
  } catch (const ipc::IpcError& error) {
    return degrade(spec, options, err, kReasonUnreachable, error.what());
  }
  // The transport timeout leaves headroom over the request deadline so a
  // cooperative DEADLINE_EXCEEDED reply still arrives.
  PlanReply reply =
      requestPlan(endpoint, request,
                  options.deadlineMs > 0 ? options.deadlineMs + 2000 : 0);
  if (reply.status == WorkResult::Status::kUnavailable) {
    ClientResult fallback =
        degrade(spec, options, err, reply.reason, reply.error);
    fallback.retries = reply.retries;
    fallback.crashes = reply.crashes;
    return fallback;
  }
  ClientResult result;
  result.status = reply.status;
  result.programs = std::move(reply.programs);
  result.error = std::move(reply.error);
  result.retries = reply.retries;
  result.crashes = reply.crashes;
  result.cacheHits = reply.cacheHits;
  return result;
}

std::optional<HandshakeResponse> probeHandshake(const ipc::Endpoint& endpoint,
                                                std::int64_t timeoutMs) {
  try {
    const std::optional<std::string> reply = exchangeEndpoint(
        endpoint, encodeHandshakeRequest(HandshakeRequest{}), timeoutMs);
    if (!reply.has_value()) return std::nullopt;
    return decodeHandshakeResponse(*reply);
  } catch (const Error&) {
    return std::nullopt;
  }
}

std::optional<HealthResponse> probeHealth(const ipc::Endpoint& endpoint,
                                          std::int64_t timeoutMs) {
  try {
    const std::optional<std::string> reply =
        exchangeEndpoint(endpoint, encodeHealthRequest(), timeoutMs);
    if (!reply.has_value()) return std::nullopt;
    return decodeHealthResponse(*reply);
  } catch (const Error&) {
    return std::nullopt;
  }
}

std::optional<HealthResponse> probeHealth(const std::string& socketPath,
                                          std::int64_t timeoutMs) {
  try {
    return probeHealth(ipc::parseEndpoint(socketPath), timeoutMs);
  } catch (const Error&) {
    return std::nullopt;
  }
}

}  // namespace rfsm::service
