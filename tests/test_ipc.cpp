// Transport-layer tests: cancellation tokens, backoff schedule, message
// encoding, frame I/O over real socketpairs, and the named fault scenarios.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <map>
#include <thread>

#include "service/protocol.hpp"
#include "service/session.hpp"
#include "util/deadline.hpp"
#include "util/fault.hpp"
#include "util/fsio.hpp"
#include "util/ipc.hpp"
#include "util/supervisor.hpp"

namespace rfsm {
namespace {

using namespace std::chrono_literals;

// --- CancelToken ---------------------------------------------------------

TEST(CancelToken, FreshTokenIsNotExpired) {
  CancelToken token;
  EXPECT_FALSE(token.expired());
  EXPECT_FALSE(token.deadline().has_value());
  EXPECT_FALSE(token.remaining().has_value());
  EXPECT_NO_THROW(token.throwIfExpired("test"));
}

TEST(CancelToken, CancelIsSticky) {
  CancelToken token;
  token.cancel();
  EXPECT_TRUE(token.expired());
  EXPECT_THROW(token.throwIfExpired("here"), CancelledError);
}

TEST(CancelToken, PastDeadlineExpires) {
  CancelToken token;
  token.setDeadline(CancelToken::Clock::now() - 1ms);
  EXPECT_TRUE(token.expired());
  EXPECT_EQ(token.remaining()->count(), 0);
}

TEST(CancelToken, FutureDeadlineDoesNotExpireYet) {
  CancelToken token(std::chrono::milliseconds(60000));
  EXPECT_FALSE(token.expired());
  EXPECT_GT(token.remaining()->count(), 0);
}

TEST(CancelToken, ThrowNamesThePollSite) {
  CancelToken token;
  token.cancel();
  try {
    pollCancel(&token, "planner.bfs");
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& error) {
    EXPECT_NE(std::string(error.what()).find("planner.bfs"),
              std::string::npos);
  }
}

TEST(CancelToken, PollCancelIgnoresNull) {
  EXPECT_NO_THROW(pollCancel(nullptr, "anywhere"));
}

// --- Backoff schedule ----------------------------------------------------

TEST(Backoff, GrowsExponentiallyAndCaps) {
  const auto base = 25ms, cap = 1000ms;
  EXPECT_EQ(backoffDelay(1, base, cap, 0.0), 25ms);
  EXPECT_EQ(backoffDelay(2, base, cap, 0.0), 50ms);
  EXPECT_EQ(backoffDelay(3, base, cap, 0.0), 100ms);
  EXPECT_EQ(backoffDelay(10, base, cap, 0.0), 1000ms);  // capped
  EXPECT_EQ(backoffDelay(1000, base, cap, 0.0), 1000ms);  // no overflow
}

TEST(Backoff, JitterAddsAtMostOneBase) {
  const auto base = 25ms, cap = 1000ms;
  EXPECT_EQ(backoffDelay(1, base, cap, 1.0), 50ms);
  EXPECT_LE(backoffDelay(30, base, cap, 1.0), cap + base);
}

// --- Message encoding ----------------------------------------------------

TEST(Message, RoundTripsAllFieldTypes) {
  ipc::MessageWriter writer;
  writer.u32(0xdeadbeefu);
  writer.u64(0x0123456789abcdefull);
  writer.i64(-42);
  writer.str("hello \0 world");  // string_view stops at the literal's \0
  writer.str("");
  ipc::MessageReader reader(writer.data());
  EXPECT_EQ(reader.u32(), 0xdeadbeefu);
  EXPECT_EQ(reader.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(reader.i64(), -42);
  EXPECT_EQ(reader.str(), "hello ");
  EXPECT_EQ(reader.str(), "");
  EXPECT_TRUE(reader.atEnd());
  EXPECT_NO_THROW(reader.expectEnd());
}

TEST(Message, EmbeddedNulAndBinaryBytesSurvive) {
  std::string binary("\x00\x01\xff\x7f", 4);
  ipc::MessageWriter writer;
  writer.str(binary);
  ipc::MessageReader reader(writer.data());
  EXPECT_EQ(reader.str(), binary);
}

TEST(Message, TruncationThrowsNotMisparses) {
  ipc::MessageWriter writer;
  writer.u64(7);
  writer.str("payload");
  const std::string full = writer.data();
  // Every proper prefix must fail loudly on some read.
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    const std::string prefix = full.substr(0, cut);
    ipc::MessageReader reader(prefix);
    EXPECT_THROW(
        {
          reader.u64();
          reader.str();
          reader.expectEnd();
        },
        ipc::IpcError)
        << "prefix of " << cut << " bytes parsed silently";
  }
}

TEST(Message, LeftoverBytesAreAnError) {
  ipc::MessageWriter writer;
  writer.u32(1);
  writer.u32(2);
  ipc::MessageReader reader(writer.data());
  reader.u32();
  EXPECT_THROW(reader.expectEnd(), ipc::IpcError);
}

// --- Frames over a socketpair -------------------------------------------

struct SocketPair {
  ipc::Fd a, b;
  SocketPair() {
    int fds[2];
    EXPECT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = ipc::Fd(fds[0]);
    b = ipc::Fd(fds[1]);
  }
};

TEST(Frames, RoundTrip) {
  SocketPair pair;
  ipc::writeFrame(pair.a.get(), "the payload");
  std::string payload;
  EXPECT_EQ(ipc::readFrame(pair.b.get(), payload), ipc::ReadStatus::kOk);
  EXPECT_EQ(payload, "the payload");
}

TEST(Frames, EmptyPayloadIsAValidFrame) {
  SocketPair pair;
  ipc::writeFrame(pair.a.get(), "");
  std::string payload = "stale";
  EXPECT_EQ(ipc::readFrame(pair.b.get(), payload), ipc::ReadStatus::kOk);
  EXPECT_EQ(payload, "");
}

TEST(Frames, PeerCloseReadsAsEof) {
  SocketPair pair;
  pair.a.reset();
  std::string payload;
  EXPECT_EQ(ipc::readFrame(pair.b.get(), payload), ipc::ReadStatus::kEof);
}

TEST(Frames, TornFrameReadsAsEof) {
  SocketPair pair;
  // Length prefix promising 100 bytes, then death after 3.
  const std::uint32_t length = 100;
  ASSERT_EQ(write(pair.a.get(), &length, 4), 4);
  ASSERT_EQ(write(pair.a.get(), "abc", 3), 3);
  pair.a.reset();
  std::string payload;
  EXPECT_EQ(ipc::readFrame(pair.b.get(), payload), ipc::ReadStatus::kEof);
}

TEST(Frames, DeadlineTurnsSilenceIntoTimeout) {
  SocketPair pair;
  CancelToken cancel(std::chrono::milliseconds(50));
  std::string payload;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(ipc::readFrame(pair.b.get(), payload, &cancel),
            ipc::ReadStatus::kTimeout);
  EXPECT_LT(std::chrono::steady_clock::now() - start, 5s);
}

TEST(Frames, OversizedLengthPrefixIsRejected) {
  SocketPair pair;
  const std::uint32_t huge = ipc::kMaxFrameBytes + 1;
  ASSERT_EQ(write(pair.a.get(), &huge, 4), 4);
  std::string payload;
  EXPECT_THROW(ipc::readFrame(pair.b.get(), payload), ipc::IpcError);
}

TEST(Frames, OversizedLengthPrefixIsATypedFrameError) {
  // The malformed-frame error is its own type so callers can report
  // "malformed response" instead of "unreachable".
  SocketPair pair;
  const std::uint32_t huge = 0xffffffffu;  // also: "negative" as a signed read
  ASSERT_EQ(write(pair.a.get(), &huge, 4), 4);
  std::string payload;
  EXPECT_THROW(ipc::readFrame(pair.b.get(), payload), ipc::FrameError);
}

TEST(Frames, Crc32cMatchesTheKnownCheckValue) {
  // The canonical CRC-32C check vector (RFC 3720 appendix B / Castagnoli).
  EXPECT_EQ(ipc::crc32c("123456789"), 0xe3069283u);
  EXPECT_EQ(ipc::crc32c(""), 0u);
}

/// A wire-correct frame for `payload`: length | payload | crc32c(payload).
std::string rawFrame(const std::string& payload) {
  std::string frame;
  const auto le32 = [&frame](std::uint32_t value) {
    for (int k = 0; k < 4; ++k)
      frame.push_back(static_cast<char>(value >> (8 * k)));
  };
  le32(static_cast<std::uint32_t>(payload.size()));
  frame += payload;
  le32(ipc::crc32c(payload));
  return frame;
}

TEST(Frames, SingleBitPayloadCorruptionIsRejectedByTheCrcTrailer) {
  for (std::size_t bit = 0; bit < 8; ++bit) {
    SocketPair pair;
    std::string frame = rawFrame("corrupt-me");
    frame[6] ^= static_cast<char>(1u << bit);  // a payload byte
    ASSERT_EQ(write(pair.a.get(), frame.data(), frame.size()),
              static_cast<ssize_t>(frame.size()));
    std::string payload;
    EXPECT_THROW(ipc::readFrame(pair.b.get(), payload), ipc::FrameError);
  }
}

TEST(Frames, CorruptedTrailerItselfIsRejected) {
  SocketPair pair;
  std::string frame = rawFrame("payload");
  frame[frame.size() - 1] ^= 0x40;  // flip a CRC bit
  ASSERT_EQ(write(pair.a.get(), frame.data(), frame.size()),
            static_cast<ssize_t>(frame.size()));
  std::string payload;
  EXPECT_THROW(ipc::readFrame(pair.b.get(), payload), ipc::FrameError);
}

TEST(Frames, EofMidTrailerReadsAsEofNotError) {
  SocketPair pair;
  std::string frame = rawFrame("torn");
  frame.resize(frame.size() - 2);  // payload complete, trailer torn
  ASSERT_EQ(write(pair.a.get(), frame.data(), frame.size()),
            static_cast<ssize_t>(frame.size()));
  pair.a.reset();
  std::string payload;
  EXPECT_EQ(ipc::readFrame(pair.b.get(), payload), ipc::ReadStatus::kEof);
}

TEST(Frames, PendingInputSeesQueuedFramesAndEof) {
  SocketPair pair;
  EXPECT_FALSE(ipc::pendingInput(pair.b.get()));
  ipc::writeFrame(pair.a.get(), "queued");
  EXPECT_TRUE(ipc::pendingInput(pair.b.get()));
  std::string payload;
  ASSERT_EQ(ipc::readFrame(pair.b.get(), payload), ipc::ReadStatus::kOk);
  EXPECT_FALSE(ipc::pendingInput(pair.b.get()));
  pair.a.reset();  // an EOF is also "pending": the stream is unusable
  EXPECT_TRUE(ipc::pendingInput(pair.b.get()));
}

TEST(Frames, WriteToClosedPeerThrowsInsteadOfSigpipe) {
  ipc::ignoreSigpipe();
  SocketPair pair;
  pair.b.reset();
  // The first write may land in the kernel buffer; keep writing until the
  // EPIPE surfaces.
  EXPECT_THROW(
      {
        for (int k = 0; k < 64; ++k)
          ipc::writeFrame(pair.a.get(), std::string(4096, 'x'));
      },
      ipc::IpcError);
}

TEST(Frames, ManyFramesKeepOrder) {
  SocketPair pair;
  std::thread writer([fd = pair.a.get()] {
    for (int k = 0; k < 100; ++k)
      ipc::writeFrame(fd, "frame-" + std::to_string(k));
  });
  std::string payload;
  for (int k = 0; k < 100; ++k) {
    ASSERT_EQ(ipc::readFrame(pair.b.get(), payload), ipc::ReadStatus::kOk);
    EXPECT_EQ(payload, "frame-" + std::to_string(k));
  }
  writer.join();
}

// --- Named fault scenarios ----------------------------------------------

// --- Endpoint addressing -------------------------------------------------

TEST(Endpoint, UnixFormsParse) {
  const auto explicitForm = ipc::parseEndpoint("unix:/tmp/a.sock");
  EXPECT_EQ(explicitForm.kind, ipc::Endpoint::Kind::kUnix);
  EXPECT_EQ(explicitForm.path, "/tmp/a.sock");
  EXPECT_EQ(explicitForm.describe(), "unix:/tmp/a.sock");

  const auto bare = ipc::parseEndpoint("/tmp/b.sock");
  EXPECT_EQ(bare.kind, ipc::Endpoint::Kind::kUnix);
  EXPECT_EQ(bare.path, "/tmp/b.sock");

  // No ':' and no '/' still reads as a (relative) unix path.
  const auto relative = ipc::parseEndpoint("planner.sock");
  EXPECT_EQ(relative.kind, ipc::Endpoint::Kind::kUnix);
  EXPECT_EQ(relative.path, "planner.sock");
}

TEST(Endpoint, TcpFormsParse) {
  const auto explicitForm = ipc::parseEndpoint("tcp:localhost:4777");
  EXPECT_EQ(explicitForm.kind, ipc::Endpoint::Kind::kTcp);
  EXPECT_EQ(explicitForm.host, "localhost");
  EXPECT_EQ(explicitForm.port, 4777);
  EXPECT_EQ(explicitForm.describe(), "tcp:localhost:4777");

  const auto shorthand = ipc::parseEndpoint("127.0.0.1:9");
  EXPECT_EQ(shorthand.kind, ipc::Endpoint::Kind::kTcp);
  EXPECT_EQ(shorthand.host, "127.0.0.1");
  EXPECT_EQ(shorthand.port, 9);

  // The *last* colon splits host from port, so IPv6 literals work.
  const auto v6 = ipc::parseEndpoint("tcp:::1:80");
  EXPECT_EQ(v6.kind, ipc::Endpoint::Kind::kTcp);
  EXPECT_EQ(v6.host, "::1");
  EXPECT_EQ(v6.port, 80);
}

TEST(Endpoint, MalformedInputsThrow) {
  EXPECT_THROW(ipc::parseEndpoint(""), ipc::IpcError);
  EXPECT_THROW(ipc::parseEndpoint("tcp:host:notaport"), ipc::IpcError);
  EXPECT_THROW(ipc::parseEndpoint("tcp:host:70000"), ipc::IpcError);
  EXPECT_THROW(ipc::parseEndpoint("tcp:host:"), ipc::IpcError);
  EXPECT_THROW(ipc::parseEndpoint("unix:"), ipc::IpcError);
}

TEST(Endpoint, ListSplitsOnCommasAndWhitespace) {
  const auto list = ipc::parseEndpointList(
      "unix:/tmp/a.sock, tcp:localhost:4777\n/tmp/b.sock ,,");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0].describe(), "unix:/tmp/a.sock");
  EXPECT_EQ(list[1].describe(), "tcp:localhost:4777");
  EXPECT_EQ(list[2].describe(), "unix:/tmp/b.sock");
  EXPECT_TRUE(ipc::parseEndpointList("").empty());
}

TEST(Endpoint, TcpLoopbackConnectAndFrame) {
  ipc::Fd listener = ipc::listenTcp("127.0.0.1", 0);
  const std::uint16_t port = ipc::localTcpPort(listener.get());
  ASSERT_GT(port, 0);

  ipc::Endpoint ep;
  ep.kind = ipc::Endpoint::Kind::kTcp;
  ep.host = "127.0.0.1";
  ep.port = port;
  ipc::Fd client = ipc::connectEndpoint(ep, 2000);

  CancelToken acceptDeadline(std::chrono::milliseconds(2000));
  auto server = ipc::acceptUnix(listener.get(), &acceptDeadline);
  ASSERT_TRUE(server.has_value());

  ipc::writeFrame(client.get(), "over tcp");
  std::string payload;
  ASSERT_EQ(ipc::readFrame(server->get(), payload), ipc::ReadStatus::kOk);
  EXPECT_EQ(payload, "over tcp");
}

TEST(Endpoint, TcpConnectToDeadPortThrows) {
  // Bind-then-close to find a port with (almost certainly) no listener.
  std::uint16_t port = 0;
  {
    ipc::Fd listener = ipc::listenTcp("127.0.0.1", 0);
    port = ipc::localTcpPort(listener.get());
  }
  EXPECT_THROW(ipc::connectTcp("127.0.0.1", port, 500), ipc::IpcError);
}

TEST(FaultScenarios, AllNamesResolve) {
  for (const auto& name : fault::serviceScenarioNames()) {
    const auto scenario = fault::serviceScenarioByName(name);
    ASSERT_TRUE(scenario.has_value()) << name;
    EXPECT_EQ(scenario->name, name);
  }
  EXPECT_FALSE(fault::serviceScenarioByName("quantum-flip").has_value());
}

TEST(FaultScenarios, KillFirstShardTargetsDispatchZero) {
  const auto scenario = fault::serviceScenarioByName("kill-first-shard");
  ASSERT_TRUE(scenario.has_value());
  EXPECT_EQ(scenario->kind, fault::ServiceScenario::Kind::kKillWorker);
  EXPECT_EQ(scenario->afterShards, 0);
}

TEST(FaultModels, AllNamesResolve) {
  for (const auto& name : fault::modelNames())
    EXPECT_TRUE(fault::modelByName(name).has_value()) << name;
  EXPECT_FALSE(fault::modelByName("does-not-exist").has_value());
}

// --- Service protocol round-trips ---------------------------------------

TEST(Protocol, PlanRequestRoundTrip) {
  service::PlanRequest request;
  request.spec.stateCount = 12;
  request.spec.inputCount = 3;
  request.spec.outputCount = 2;
  request.spec.deltaCount = 9;
  request.spec.newStateCount = 1;
  request.spec.instanceCount = 33;
  request.spec.seed = 99;
  request.spec.planner = "ea";
  request.deadlineMs = 1500;
  request.requestId = 7;
  request.lo = 11;
  request.hi = 22;
  const auto decoded =
      service::decodePlanRequest(service::encodePlanRequest(request));
  EXPECT_EQ(decoded.spec, request.spec);
  EXPECT_EQ(decoded.deadlineMs, 1500);
  EXPECT_EQ(decoded.requestId, 7u);
  EXPECT_EQ(decoded.rangeLo(), 11u);
  EXPECT_EQ(decoded.rangeHi(), 22u);
}

TEST(Protocol, WholeBatchShorthandResolvesToInstanceCount) {
  service::PlanRequest request;
  request.spec.instanceCount = 33;
  const auto decoded =
      service::decodePlanRequest(service::encodePlanRequest(request));
  EXPECT_EQ(decoded.rangeLo(), 0u);
  EXPECT_EQ(decoded.rangeHi(), 33u);
}

TEST(Protocol, WarmupRoundTrip) {
  const std::string request = service::encodeWarmupRequest();
  EXPECT_EQ(service::peekType(request), service::MessageType::kWarmupRequest);
  const std::string response = service::encodeWarmupResponse();
  EXPECT_EQ(service::peekType(response),
            service::MessageType::kWarmupResponse);
  EXPECT_NO_THROW(service::decodeWarmupResponse(response));
  EXPECT_THROW(service::decodeWarmupResponse(request), ipc::IpcError);
}

TEST(Protocol, PlanResponseRoundTrip) {
  service::PlanResponse response;
  response.status = WorkResult::Status::kOk;
  response.programs = {"prog-a\n", "prog-b\n"};
  response.retries = 3;
  response.crashes = 1;
  const auto decoded =
      service::decodePlanResponse(service::encodePlanResponse(response));
  EXPECT_EQ(decoded.status, WorkResult::Status::kOk);
  EXPECT_EQ(decoded.programs, response.programs);
  EXPECT_EQ(decoded.retries, 3u);
  EXPECT_EQ(decoded.crashes, 1u);
}

TEST(Protocol, ShardRequestRoundTrip) {
  service::ShardRequest request;
  request.spec.planner = "greedy";
  request.lo = 8;
  request.hi = 12;
  request.deadlineNs = 123456789;
  const auto decoded =
      service::decodeShardRequest(service::encodeShardRequest(request));
  EXPECT_EQ(decoded.spec, request.spec);
  EXPECT_EQ(decoded.lo, 8u);
  EXPECT_EQ(decoded.hi, 12u);
  EXPECT_EQ(decoded.deadlineNs, 123456789);
}

TEST(Protocol, HealthRoundTrip) {
  service::HealthResponse health;
  health.healthy = true;
  health.workersAlive = 3;
  health.workersConfigured = 4;
  health.queueDepth = 5;
  health.crashes = 6;
  health.retries = 7;
  health.shed = 8;
  const auto decoded =
      service::decodeHealthResponse(service::encodeHealthResponse(health));
  EXPECT_TRUE(decoded.healthy);
  EXPECT_EQ(decoded.workersAlive, 3);
  EXPECT_EQ(decoded.workersConfigured, 4);
  EXPECT_EQ(decoded.queueDepth, 5u);
  EXPECT_EQ(decoded.shed, 8u);
}

TEST(Protocol, WrongMessageTypeIsRejected) {
  const std::string health = service::encodeHealthRequest();
  EXPECT_THROW(service::decodePlanRequest(health), ipc::IpcError);
  EXPECT_EQ(service::peekType(health),
            service::MessageType::kHealthRequest);
  EXPECT_THROW(service::peekType(""), ipc::IpcError);
}

TEST(Protocol, StatusNamesMatchContract) {
  EXPECT_STREQ(toString(WorkResult::Status::kOk), "OK");
  EXPECT_STREQ(toString(WorkResult::Status::kDeadlineExceeded),
               "DEADLINE_EXCEEDED");
  EXPECT_STREQ(toString(WorkResult::Status::kShed), "RESOURCE_EXHAUSTED");
  EXPECT_STREQ(toString(WorkResult::Status::kUnavailable), "UNAVAILABLE");
}

TEST(Handshake, RequestRoundTrip) {
  service::HandshakeRequest request;
  request.version = 7;
  request.features = 0x5u;
  const std::string wire = service::encodeHandshakeRequest(request);
  EXPECT_EQ(service::peekType(wire),
            service::MessageType::kHandshakeRequest);
  const auto back = service::decodeHandshakeRequest(wire);
  EXPECT_EQ(back.version, 7u);
  EXPECT_EQ(back.features, 0x5u);
}

TEST(Handshake, ResponseRoundTrip) {
  service::HandshakeResponse response;
  response.accepted = true;
  response.version = service::kProtocolVersion;
  response.features = service::kFeatureCrc32c;
  response.error = "";
  const std::string wire = service::encodeHandshakeResponse(response);
  EXPECT_EQ(service::peekType(wire),
            service::MessageType::kHandshakeResponse);
  const auto back = service::decodeHandshakeResponse(wire);
  EXPECT_TRUE(back.accepted);
  EXPECT_EQ(back.version, service::kProtocolVersion);
  EXPECT_EQ(back.features, service::kFeatureCrc32c);
  EXPECT_TRUE(back.error.empty());
}

TEST(Handshake, MatchingVersionIsAcceptedWithFeaturesMasked) {
  service::HandshakeRequest request;
  request.features = 0xffffffffu;  // peer claims features we never heard of
  const auto response = service::answerHandshake(request);
  EXPECT_TRUE(response.accepted);
  EXPECT_EQ(response.version, service::kProtocolVersion);
  EXPECT_EQ(response.features, service::kFeatureCrc32c);
}

TEST(Handshake, VersionMismatchIsRefusedNotDowngraded) {
  service::HandshakeRequest request;
  request.version = service::kProtocolVersion + 1;
  const auto response = service::answerHandshake(request);
  EXPECT_FALSE(response.accepted);
  EXPECT_EQ(response.features, 0u);
  EXPECT_NE(response.error.find("protocol version mismatch"),
            std::string::npos);
}

// --- Golden frames --------------------------------------------------------
//
// The exact bytes of one instance of every frame, of a SessionEngine
// snapshot with deferred records, and of a service snapshot file, keyed by
// protocol generation.  Every field holds a distinct non-default value and
// every list is non-empty, so a reordered, retyped, added or dropped field
// changes the bytes.  A layout change that keeps kProtocolVersion fails
// here; a new generation adds its own table.

namespace svc = service;

std::string toHex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const unsigned char c : bytes) {
    out += kDigits[c >> 4];
    out += kDigits[c & 15];
  }
  return out;
}

struct GoldenSample {
  std::string name;
  std::string bytes;      ///< what the encoder produced
  std::string reencoded;  ///< encode(decode(bytes)): decoding loses nothing
};

template <class Msg>
GoldenSample goldenFrame(std::string name, const Msg& message,
                         std::string (*encode)(const Msg&),
                         Msg (*decode)(const std::string&)) {
  std::string bytes = encode(message);
  std::string reencoded = encode(decode(bytes));
  return {std::move(name), std::move(bytes), std::move(reencoded)};
}

svc::SessionConfig goldenConfig() {
  svc::SessionConfig config;
  config.tenant = "golden";
  config.name = "engine";
  config.priority = 2;
  config.weight = 3;
  config.planner = "greedy";
  config.stateCount = 3;
  config.inputCount = 2;
  config.outputCount = 2;
  config.seed = 5;
  return config;
}

svc::MutationRecord goldenRecord(std::uint64_t seq, bool defer) {
  svc::MutationRecord rec;
  rec.seq = seq;
  rec.deltaCount = 2;
  rec.newStateCount = seq == 3 ? 1 : 0;
  rec.mutationSeed = 900 + seq;
  rec.defer = defer;
  return rec;
}

/// A SessionEngine snapshot holding one planned step and two deferred
/// records, plus its decode/re-encode.
GoldenSample goldenEngineSnapshot() {
  svc::SessionEngine engine(goldenConfig());
  engine.apply(goldenRecord(1, false));
  engine.apply(goldenRecord(2, true));
  engine.apply(goldenRecord(3, true));
  ipc::MessageWriter writer;
  engine.encodeSnapshot(writer);
  std::string bytes = writer.take();
  ipc::MessageReader reader(bytes);
  const svc::SessionEngine restored =
      svc::SessionEngine::decodeSnapshot(reader);
  reader.expectEnd();
  ipc::MessageWriter again;
  restored.encodeSnapshot(again);
  return {"EngineSnapshot", bytes, again.take()};
}

/// A service snapshot file exactly as SessionService persists it on drain:
/// engine, ack point, retained outcomes (one planned, one failed) and the
/// epoch/standby trailer, sealed with its checksum.
GoldenSample goldenServiceSnapshot() {
  char dirName[] = "/tmp/rfsm-golden-XXXXXX";
  const std::string dir = mkdtemp(dirName);
  std::string bytes;
  {
    svc::SessionServiceOptions options;
    options.stateDir = dir;
    options.snapshotEvery = 0;
    options.executors = 1;
    svc::SessionService store(options);
    const svc::SessionConfig config = goldenConfig();
    svc::SessionOpenRequest open;
    open.tenant = config.tenant;
    open.name = config.name;
    open.priority = 2;
    open.weight = 3;
    open.planner = config.planner;
    open.stateCount = config.stateCount;
    open.inputCount = config.inputCount;
    open.outputCount = config.outputCount;
    open.seed = config.seed;
    EXPECT_EQ(store.open(open).status, svc::SessionStatus::kOk);
    const auto mutate = [&](const svc::MutationRecord& rec,
                            std::uint64_t ackSeq) {
      svc::SessionMutateRequest request;
      request.tenant = config.tenant;
      request.name = config.name;
      request.seq = rec.seq;
      request.deltaCount = rec.deltaCount;
      request.newStateCount = rec.newStateCount;
      request.mutationSeed = rec.mutationSeed;
      request.defer = rec.defer;
      request.ackSeq = ackSeq;
      return store.mutate(request).status;
    };
    EXPECT_EQ(mutate(goldenRecord(1, false), 0), svc::SessionStatus::kOk);
    EXPECT_EQ(mutate(goldenRecord(2, false), 1), svc::SessionStatus::kOk);
    svc::MutationRecord infeasible = goldenRecord(3, false);
    infeasible.deltaCount = 1000;  // more cells than the machine has
    mutate(infeasible, 0);
    EXPECT_EQ(mutate(goldenRecord(4, true), 0), svc::SessionStatus::kAccepted);
    EXPECT_EQ(store.drain(), 1u);
    bytes = fsio::readFileIfExists(dir + "/golden@engine.snap").value_or("");
  }
  for (const std::string& file : fsio::listDir(dir))
    ::unlink((dir + "/" + file).c_str());
  ::rmdir(dir.c_str());
  return {"ServiceSnapshot", bytes, bytes};
}

std::vector<GoldenSample> goldenSamples() {
  std::vector<GoldenSample> samples;
  const trace::TraceContext context{0x1111, 0x2222, 0x3333, true};

  svc::PlanRequest plan;
  plan.spec = {5, 3, 4, 6, 2, 9, 11, "ea", 13, 14};
  plan.deadlineMs = -15;
  plan.requestId = 16;
  plan.lo = 17;
  plan.hi = 18;
  plan.context = context;
  samples.push_back(goldenFrame("PlanRequest", plan, svc::encodePlanRequest,
                                svc::decodePlanRequest));
  svc::PlanResponse planReply;
  planReply.status = WorkResult::Status::kDeadlineExceeded;
  planReply.error = "plan-error";
  planReply.programs = {"program-1", "program-2"};
  planReply.retries = 22;
  planReply.crashes = 23;
  planReply.cacheHits = 24;
  samples.push_back(goldenFrame("PlanResponse", planReply,
                                svc::encodePlanResponse,
                                svc::decodePlanResponse));
  samples.push_back({"HealthRequest", svc::encodeHealthRequest(),
                     svc::encodeHealthRequest()});
  svc::HealthResponse health{true, 25, 26, 27, 28, 29, 30};
  samples.push_back(goldenFrame("HealthResponse", health,
                                svc::encodeHealthResponse,
                                svc::decodeHealthResponse));
  svc::ShardRequest shard;
  shard.spec = {7, 2, 3, 5, 1, 31, 32, "greedy", 33, 34};
  shard.lo = 35;
  shard.hi = 36;
  shard.deadlineNs = -37;
  shard.context = {0x4444, 0x5555, 0x6666, true};
  samples.push_back(goldenFrame("ShardRequest", shard,
                                svc::encodeShardRequest,
                                svc::decodeShardRequest));
  svc::ShardResponse shardReply;
  shardReply.status = WorkResult::Status::kShed;
  shardReply.error = "shard-error";
  shardReply.programs = {"shard-1", "shard-2"};
  samples.push_back(goldenFrame("ShardResponse", shardReply,
                                svc::encodeShardResponse,
                                svc::decodeShardResponse));
  samples.push_back({"WarmupRequest", svc::encodeWarmupRequest(),
                     svc::encodeWarmupRequest()});
  const std::string warmup = svc::encodeWarmupResponse();
  svc::decodeWarmupResponse(warmup);
  samples.push_back({"WarmupResponse", warmup, svc::encodeWarmupResponse()});

  svc::SessionOpenRequest open;
  open.tenant = "tenant-a";
  open.name = "session-a";
  open.priority = 2;
  open.weight = 38;
  open.planner = "greedy";
  open.stateCount = 39;
  open.inputCount = 40;
  open.outputCount = 41;
  open.seed = 42;
  open.resume = false;
  samples.push_back(goldenFrame("SessionOpenRequest", open,
                                svc::encodeSessionOpenRequest,
                                svc::decodeSessionOpenRequest));
  svc::SessionOpenResponse openReply;
  openReply.status = svc::SessionStatus::kResourceExhausted;
  openReply.error = "open-error";
  openReply.lastApplied = 43;
  openReply.retryAfterMs = -44;
  samples.push_back(goldenFrame("SessionOpenResponse", openReply,
                                svc::encodeSessionOpenResponse,
                                svc::decodeSessionOpenResponse));
  svc::SessionMutateRequest mutate;
  mutate.tenant = "tenant-b";
  mutate.name = "session-b";
  mutate.seq = 45;
  mutate.deltaCount = 46;
  mutate.newStateCount = 47;
  mutate.mutationSeed = 48;
  mutate.defer = true;
  mutate.ackSeq = 49;
  mutate.context = {0x7777, 0x8888, 0x9999, true};
  samples.push_back(goldenFrame("SessionMutateRequest", mutate,
                                svc::encodeSessionMutateRequest,
                                svc::decodeSessionMutateRequest));
  svc::SessionMutateResponse mutateReply;
  mutateReply.status = svc::SessionStatus::kAccepted;
  mutateReply.error = "mutate-error";
  mutateReply.seq = 50;
  mutateReply.program = "mutate-program";
  mutateReply.compactedFrom = 51;
  mutateReply.deltasPlanned = 52;
  mutateReply.deltasRaw = 53;
  mutateReply.retryAfterMs = 54;
  samples.push_back(goldenFrame("SessionMutateResponse", mutateReply,
                                svc::encodeSessionMutateResponse,
                                svc::decodeSessionMutateResponse));
  svc::SessionReplayRequest replay{"tenant-c", "session-c", 55, 56};
  samples.push_back(goldenFrame("SessionReplayRequest", replay,
                                svc::encodeSessionReplayRequest,
                                svc::decodeSessionReplayRequest));
  svc::SessionReplayResponse replayReply;
  replayReply.status = svc::SessionStatus::kNotFound;
  replayReply.error = "replay-error";
  replayReply.entries = {{57, "replay-1"}, {58, "replay-2"}};
  samples.push_back(goldenFrame("SessionReplayResponse", replayReply,
                                svc::encodeSessionReplayResponse,
                                svc::decodeSessionReplayResponse));
  svc::SessionCloseRequest close{"tenant-d", "session-d"};
  samples.push_back(goldenFrame("SessionCloseRequest", close,
                                svc::encodeSessionCloseRequest,
                                svc::decodeSessionCloseRequest));
  svc::SessionCloseResponse closeReply;
  closeReply.status = svc::SessionStatus::kBadSequence;
  closeReply.error = "close-error";
  closeReply.mutationsApplied = 59;
  closeReply.plans = 60;
  samples.push_back(goldenFrame("SessionCloseResponse", closeReply,
                                svc::encodeSessionCloseResponse,
                                svc::decodeSessionCloseResponse));

  const std::string statsRequest = svc::encodeStatsRequest();
  svc::decodeStatsRequest(statsRequest);
  samples.push_back({"StatsRequest", statsRequest, svc::encodeStatsRequest()});
  svc::StatsResponse stats;
  stats.pid = 61;
  stats.uptimeMs = 62;
  stats.draining = true;
  stats.workers = {true, 63, 64, 65, 66, 67, 68};
  stats.planCache = {true, 69, 70};
  stats.breakers = {{"breaker-1", "OPEN", 71}, {"breaker-2", "HALF-OPEN", 72}};
  svc::StatsResponse::SessionStats row;
  row.tenant = "tenant-e";
  row.name = "session-e";
  row.priority = 2;
  row.weight = 2.5;
  row.vtime = 73.25;
  row.tokensRemaining = -0.5;
  row.queued = 74;
  row.applied = 75;
  row.walAgeMs = 76;
  row.snapshotAgeMs = 77;
  row.role = "standby";
  row.epoch = 78;
  stats.sessions = {row};
  stats.openSessions = 79;
  stats.schedulerDepth = 80;
  stats.schedulerVirtualNow = 81.125;
  stats.metrics.counters = {{"counter-1", 82}};
  stats.metrics.gauges = {{"gauge-1", -83}};
  stats.metrics.timers = {{"timer-1", 84, 85.5}};
  stats.metrics.histograms = {{"histogram-1", 86, 0.25, 0.5, 0.75, 1.5}};
  stats.metrics.rolling = {{"rolling-1", 87, 1.25, 2.25, 3.25, 4.25, 88}};
  samples.push_back(goldenFrame("StatsResponse", stats,
                                svc::encodeStatsResponse,
                                svc::decodeStatsResponse));
  svc::TraceDumpRequest traceDump{89};
  samples.push_back(goldenFrame("TraceDumpRequest", traceDump,
                                svc::encodeTraceDumpRequest,
                                svc::decodeTraceDumpRequest));
  svc::TraceDumpResponse traceReply{90, 91, "{\"traceEvents\":[]}"};
  samples.push_back(goldenFrame("TraceDumpResponse", traceReply,
                                svc::encodeTraceDumpResponse,
                                svc::decodeTraceDumpResponse));
  svc::HandshakeRequest handshake{92, 93};
  samples.push_back(goldenFrame("HandshakeRequest", handshake,
                                svc::encodeHandshakeRequest,
                                svc::decodeHandshakeRequest));
  svc::HandshakeResponse handshakeReply{true, 94, 95, "handshake-error"};
  samples.push_back(goldenFrame("HandshakeResponse", handshakeReply,
                                svc::encodeHandshakeResponse,
                                svc::decodeHandshakeResponse));

  svc::SessionReplAppendRequest append;
  append.tenant = "tenant-f";
  append.name = "session-f";
  append.priority = 0;
  append.weight = 96;
  append.planner = "ea";
  append.stateCount = 97;
  append.inputCount = 98;
  append.outputCount = 99;
  append.seed = 100;
  append.epoch = 101;
  append.seq = 102;
  append.deltaCount = 103;
  append.newStateCount = 104;
  append.mutationSeed = 105;
  append.defer = true;
  samples.push_back(goldenFrame("SessionReplAppendRequest", append,
                                svc::encodeSessionReplAppendRequest,
                                svc::decodeSessionReplAppendRequest));
  svc::SessionReplAppendResponse appendReply;
  appendReply.status = svc::SessionStatus::kStaleEpoch;
  appendReply.error = "append-error";
  appendReply.epoch = 106;
  appendReply.lastAccepted = 107;
  samples.push_back(goldenFrame("SessionReplAppendResponse", appendReply,
                                svc::encodeSessionReplAppendResponse,
                                svc::decodeSessionReplAppendResponse));
  svc::SessionReplSnapshotRequest install;
  install.tenant = "tenant-g";
  install.name = "session-g";
  install.epoch = 108;
  install.snapshot = std::string("snapshot\x00\xff", 10);
  samples.push_back(goldenFrame("SessionReplSnapshotRequest", install,
                                svc::encodeSessionReplSnapshotRequest,
                                svc::decodeSessionReplSnapshotRequest));
  svc::SessionReplSnapshotResponse installReply;
  installReply.status = svc::SessionStatus::kDraining;
  installReply.error = "install-error";
  installReply.epoch = 109;
  installReply.lastAccepted = 110;
  samples.push_back(goldenFrame("SessionReplSnapshotResponse", installReply,
                                svc::encodeSessionReplSnapshotResponse,
                                svc::decodeSessionReplSnapshotResponse));
  svc::SessionStatusRequest status{"tenant-h", "session-h"};
  samples.push_back(goldenFrame("SessionStatusRequest", status,
                                svc::encodeSessionStatusRequest,
                                svc::decodeSessionStatusRequest));
  svc::SessionStatusResponse statusReply;
  statusReply.status = svc::SessionStatus::kOk;
  statusReply.error = "status-error";
  statusReply.role = "standby";
  statusReply.epoch = 111;
  statusReply.lastAccepted = 112;
  statusReply.applied = 113;
  samples.push_back(goldenFrame("SessionStatusResponse", statusReply,
                                svc::encodeSessionStatusResponse,
                                svc::decodeSessionStatusResponse));

  samples.push_back(goldenEngineSnapshot());
  samples.push_back(goldenServiceSnapshot());
  return samples;
}

/// Golden hex per protocol generation.
const std::map<std::uint32_t, std::map<std::string, std::string>>&
goldenTable() {
  static const std::map<std::uint32_t, std::map<std::string, std::string>>
      table = {
          {2,
           {
               {"PlanRequest",
                "010000000500000003000000040000000600000002000000090000000000"
                "00000b000000000000000200000065610d0000000e000000f1ffffffffff"
                "ffff10000000000000001100000000000000120000000000000011110000"
                "000000002222000000000000333300000000000001000000"},
               {"PlanResponse",
                "02000000020000000a000000706c616e2d6572726f721600000000000000"
                "17000000000000001800000000000000020000000900000070726f677261"
                "6d2d310900000070726f6772616d2d32"},
               {"HealthRequest",
                "03000000"},
               {"HealthResponse",
                "0400000001000000190000001a0000001b000000000000001c0000000000"
                "00001d000000000000001e00000000000000"},
               {"ShardRequest",
                "0500000007000000020000000300000005000000010000001f0000000000"
                "000020000000000000000600000067726565647921000000220000002300"
                "0000000000002400000000000000dbffffffffffffff4444000000000000"
                "5555000000000000666600000000000001000000"},
               {"ShardResponse",
                "06000000030000000b00000073686172642d6572726f7202000000070000"
                "0073686172642d310700000073686172642d32"},
               {"WarmupRequest",
                "07000000"},
               {"WarmupResponse",
                "08000000"},
               {"SessionOpenRequest",
                "090000000800000074656e616e742d610900000073657373696f6e2d6102"
                "00000026000000060000006772656564792700000028000000290000002a"
                "0000000000000000000000"},
               {"SessionOpenResponse",
                "0a000000020000000a0000006f70656e2d6572726f722b00000000000000"
                "d4ffffffffffffff"},
               {"SessionMutateRequest",
                "0b0000000800000074656e616e742d620900000073657373696f6e2d622d"
                "000000000000002e0000002f000000300000000000000001000000310000"
                "000000000077770000000000008888000000000000999900000000000001"
                "000000"},
               {"SessionMutateResponse",
                "0c000000010000000c0000006d75746174652d6572726f72320000000000"
                "00000e0000006d75746174652d70726f6772616d33000000000000003400"
                "0000350000003600000000000000"},
               {"SessionReplayRequest",
                "0d0000000800000074656e616e742d630900000073657373696f6e2d6337"
                "000000000000003800000000000000"},
               {"SessionReplayResponse",
                "0e000000040000000c0000007265706c61792d6572726f72020000003900"
                "000000000000080000007265706c61792d313a0000000000000008000000"
                "7265706c61792d32"},
               {"SessionCloseRequest",
                "0f0000000800000074656e616e742d640900000073657373696f6e2d64"},
               {"SessionCloseResponse",
                "10000000050000000b000000636c6f73652d6572726f723b000000000000"
                "003c00000000000000"},
               {"StatsRequest",
                "11000000"},
               {"StatsResponse",
                "120000003d000000000000003e0000000000000001000000010000003f00"
                "000040000000410000000000000042000000000000004300000000000000"
                "440000000000000001000000450000000000000046000000000000000200"
                "000009000000627265616b65722d31040000004f50454e47000000000000"
                "0009000000627265616b65722d320900000048414c462d4f50454e480000"
                "0000000000010000000800000074656e616e742d65090000007365737369"
                "6f6e2d650200000000000000000004400000000000505240000000000000"
                "e0bf4a000000000000004b000000000000004c000000000000004d000000"
                "00000000070000007374616e6462794e000000000000004f000000000000"
                "00500000000000000000000000004854400100000009000000636f756e74"
                "65722d315200000000000000010000000700000067617567652d31adffff"
                "ffffffffff010000000700000074696d65722d3154000000000000000000"
                "000000605540010000000b000000686973746f6772616d2d315600000000"
                "000000000000000000d03f000000000000e03f000000000000e83f000000"
                "000000f83f0100000009000000726f6c6c696e672d315700000000000000"
                "000000000000f43f00000000000002400000000000000a40000000000000"
                "11405800000000000000"},
               {"TraceDumpRequest",
                "130000005900000000000000"},
               {"TraceDumpResponse",
                "140000005a000000000000005b00000000000000120000007b2274726163"
                "654576656e7473223a5b5d7d"},
               {"HandshakeRequest",
                "150000005c0000005d000000"},
               {"HandshakeResponse",
                "16000000010000005e0000005f0000000f00000068616e647368616b652d"
                "6572726f72"},
               {"SessionReplAppendRequest",
                "170000000800000074656e616e742d660900000073657373696f6e2d6600"
                "000000600000000200000065616100000062000000630000006400000000"
                "000000650000000000000066000000000000006700000068000000690000"
                "000000000001000000"},
               {"SessionReplAppendResponse",
                "18000000070000000c000000617070656e642d6572726f726a0000000000"
                "00006b00000000000000"},
               {"SessionReplSnapshotRequest",
                "190000000800000074656e616e742d670900000073657373696f6e2d676c"
                "000000000000000a000000736e617073686f7400ff"},
               {"SessionReplSnapshotResponse",
                "1a000000030000000d000000696e7374616c6c2d6572726f726d00000000"
                "0000006e00000000000000"},
               {"SessionStatusRequest",
                "1b0000000800000074656e616e742d680900000073657373696f6e2d68"},
               {"SessionStatusResponse",
                "1c000000000000000c0000007374617475732d6572726f72070000007374"
                "616e6462796f0000000000000070000000000000007100000000000000"},
               {"EngineSnapshot",
                "180000007266736d2d73657373696f6e2d736e617073686f742076310600"
                "0000676f6c64656e06000000656e67696e65020000000300000006000000"
                "677265656479030000000200000002000000050000000000000003000000"
                "000000000100000000000000100200007b0a2020226e616d65223a202265"
                "6e67696e652331222c0a202022696e70757473223a205b226930222c2022"
                "6931225d2c0a2020226f757470757473223a205b226f30222c20226f3122"
                "5d2c0a202022737461746573223a205b225330222c20225331222c202253"
                "32225d2c0a2020227265736574223a20225330222c0a2020227472616e73"
                "6974696f6e73223a205b0a202020207b22696e707574223a20226930222c"
                "202266726f6d223a20225330222c2022746f223a20225332222c20226f75"
                "74707574223a20226f31227d2c0a202020207b22696e707574223a202269"
                "31222c202266726f6d223a20225330222c2022746f223a20225331222c20"
                "226f7574707574223a20226f30227d2c0a202020207b22696e707574223a"
                "20226930222c202266726f6d223a20225331222c2022746f223a20225331"
                "222c20226f7574707574223a20226f31227d2c0a202020207b22696e7075"
                "74223a20226931222c202266726f6d223a20225331222c2022746f223a20"
                "225332222c20226f7574707574223a20226f30227d2c0a202020207b2269"
                "6e707574223a20226930222c202266726f6d223a20225332222c2022746f"
                "223a20225331222c20226f7574707574223a20226f31227d2c0a20202020"
                "7b22696e707574223a20226931222c202266726f6d223a20225332222c20"
                "22746f223a20225332222c20226f7574707574223a20226f30227d0a2020"
                "5d0a7d0a0200000002000000000000000200000000000000860300000000"
                "000001000000030000000000000002000000010000008703000000000000"
                "01000000"},
               {"ServiceSnapshot",
                "180000007266736d2d73657373696f6e2d736e617073686f742076310600"
                "0000676f6c64656e06000000656e67696e65020000000300000006000000"
                "677265656479030000000200000002000000050000000000000004000000"
                "000000000200000000000000100200007b0a2020226e616d65223a202265"
                "6e67696e652332222c0a202022696e70757473223a205b226930222c2022"
                "6931225d2c0a2020226f757470757473223a205b226f30222c20226f3122"
                "5d2c0a202022737461746573223a205b225330222c20225331222c202253"
                "32225d2c0a2020227265736574223a20225330222c0a2020227472616e73"
                "6974696f6e73223a205b0a202020207b22696e707574223a20226930222c"
                "202266726f6d223a20225330222c2022746f223a20225331222c20226f75"
                "74707574223a20226f31227d2c0a202020207b22696e707574223a202269"
                "31222c202266726f6d223a20225330222c2022746f223a20225331222c20"
                "226f7574707574223a20226f30227d2c0a202020207b22696e707574223a"
                "20226930222c202266726f6d223a20225331222c2022746f223a20225332"
                "222c20226f7574707574223a20226f30227d2c0a202020207b22696e7075"
                "74223a20226931222c202266726f6d223a20225331222c2022746f223a20"
                "225332222c20226f7574707574223a20226f30227d2c0a202020207b2269"
                "6e707574223a20226930222c202266726f6d223a20225332222c2022746f"
                "223a20225331222c20226f7574707574223a20226f31227d2c0a20202020"
                "7b22696e707574223a20226931222c202266726f6d223a20225332222c20"
                "22746f223a20225332222c20226f7574707574223a20226f30227d0a2020"
                "5d0a7d0a0100000004000000000000000200000000000000880300000000"
                "000001000000010000000000000003000000020000000000000001000000"
                "00000000000000005c0000007266736d2d70726f6772616d2076310a7374"
                "65707320360a72657365740a74726176657273652069310a726577726974"
                "65206930205332206f300a72657365740a72657772697465206930205331"
                "206f310a72657365740a656e640a01000000000000000200000002000000"
                "030000000000000000000000010000002d00000064656c746120636f756e"
                "74206578636565647320746865206e756d626572206f66207461626c6520"
                "63656c6c7300000000000000000000000000000000000000000400000000"
                "000000000000000000000000000000000000000000000000000000000000"
                "0000000000010000000000000000000000095c7def98ed3139"},
           }},
      };
  return table;
}

TEST(GoldenFrames, BytesArePinnedPerProtocolVersion) {
  const auto generation = goldenTable().find(svc::kProtocolVersion);
  ASSERT_NE(generation, goldenTable().end())
      << "protocol generation " << svc::kProtocolVersion
      << " has no golden table";
  const auto& golden = generation->second;
  const std::vector<GoldenSample> samples = goldenSamples();
  EXPECT_EQ(samples.size(), golden.size());
  for (const GoldenSample& sample : samples) {
    const auto expected = golden.find(sample.name);
    const std::string actual = toHex(sample.bytes);
    EXPECT_TRUE(expected != golden.end() && expected->second == actual)
        << sample.name << " encodes as " << actual;
    EXPECT_EQ(sample.reencoded, sample.bytes) << sample.name;
  }
}

// --- Bounded list counts --------------------------------------------------
//
// A list count is read from the wire; a decoder must reject one that the
// remaining bytes cannot hold before allocating anything for it.

/// `shorter` and `longer` encode the same frame with one element fewer and
/// one more in a single list: the first byte where they differ is that
/// list's count.  Returns `longer` with the count rewritten to 0xFFFFFFFF.
std::string withHugeCount(const std::string& shorter,
                          const std::string& longer) {
  const auto offset = static_cast<std::size_t>(
      std::mismatch(shorter.begin(), shorter.end(), longer.begin()).first -
      shorter.begin());
  std::string payload = longer;
  payload.replace(offset, 4, 4, '\xff');
  return payload;
}

/// Encodes `base`, then `base` with one more element appended by `grow`,
/// and decodes the count-rewritten result.
template <class Msg>
void expectHugeCountRejected(const char* list, Msg base,
                             const std::function<void(Msg&)>& grow,
                             std::string (*encode)(const Msg&),
                             Msg (*decode)(const std::string&)) {
  const std::string shorter = encode(base);
  grow(base);
  const std::string payload = withHugeCount(shorter, encode(base));
  EXPECT_THROW((void)decode(payload), ipc::IpcError) << list;
}

TEST(Protocol, HugeListCountsAreRejectedBeforeAllocating) {
  svc::PlanResponse plan;
  expectHugeCountRejected<svc::PlanResponse>(
      "PlanResponse.programs", plan,
      [](auto& m) { m.programs.push_back("q"); }, svc::encodePlanResponse,
      svc::decodePlanResponse);
  svc::ShardResponse shard;
  expectHugeCountRejected<svc::ShardResponse>(
      "ShardResponse.programs", shard,
      [](auto& m) { m.programs.push_back("q"); }, svc::encodeShardResponse,
      svc::decodeShardResponse);
  svc::SessionReplayResponse replay;
  expectHugeCountRejected<svc::SessionReplayResponse>(
      "SessionReplayResponse.entries", replay,
      [](auto& m) { m.entries.push_back({1, "p"}); },
      svc::encodeSessionReplayResponse, svc::decodeSessionReplayResponse);

  const std::vector<std::pair<const char*, std::function<void(
                                               svc::StatsResponse&)>>>
      statsLists = {
          {"breakers", [](auto& m) { m.breakers.push_back({"b", "OPEN", 1}); }},
          {"sessions", [](auto& m) { m.sessions.emplace_back(); }},
          {"counters",
           [](auto& m) { m.metrics.counters.push_back({"c", 1}); }},
          {"gauges", [](auto& m) { m.metrics.gauges.push_back({"g", 1}); }},
          {"timers",
           [](auto& m) { m.metrics.timers.push_back({"t", 1, 1.0}); }},
          {"histograms",
           [](auto& m) { m.metrics.histograms.push_back({"h", 1}); }},
          {"rolling", [](auto& m) { m.metrics.rolling.push_back({"r", 1}); }},
      };
  for (const auto& [list, grow] : statsLists)
    expectHugeCountRejected<svc::StatsResponse>(
        list, svc::StatsResponse{}, grow, svc::encodeStatsResponse,
        svc::decodeStatsResponse);

  // The snapshot's deferred-record list goes through the same bound.  It
  // is the snapshot's last field, and one record is 28 bytes.
  svc::SessionEngine engine(goldenConfig());
  engine.apply(goldenRecord(1, true));
  ipc::MessageWriter writer;
  engine.encodeSnapshot(writer);
  std::string snapshot = writer.take();
  snapshot.replace(snapshot.size() - 28 - 4, 4, 4, '\xff');
  ipc::MessageReader reader(snapshot);
  EXPECT_THROW(svc::SessionEngine::decodeSnapshot(reader), ipc::IpcError);
}

}  // namespace
}  // namespace rfsm
