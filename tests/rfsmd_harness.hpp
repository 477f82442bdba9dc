// Shared scaffolding for tests and benches that drive real rfsmd daemons
// or fake peers: where the binary is, a throwaway state directory,
// per-process socket paths, an in-process planner service, raw wire frames
// and a scriptable fake plan endpoint.  Header-only; bench/ includes it
// from here.
#pragma once

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <utility>

#include "service/plan_cache.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "util/deadline.hpp"
#include "util/ipc.hpp"

namespace rfsm {

/// The rfsmd binary: the RFSM_RFSMD environment override, else the
/// RFSM_RFSMD_BUILD_PATH compile definition (a CMake target-file path),
/// else whatever `rfsmd` the PATH finds.
inline std::string rfsmdPath() {
  if (const char* env = std::getenv("RFSM_RFSMD")) return env;
#ifdef RFSM_RFSMD_BUILD_PATH
  return RFSM_RFSMD_BUILD_PATH;
#else
  return "rfsmd";
#endif
}

/// A throwaway directory, removed with its contents on scope exit.
struct TempDir {
  std::string path;
  TempDir() {
    char name[] = "/tmp/rfsm-XXXXXX";
    if (const char* made = ::mkdtemp(name)) path = made;
  }
  ~TempDir() {
    std::error_code ignored;
    if (!path.empty()) std::filesystem::remove_all(path, ignored);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
};

/// A Unix socket path unique to this process and `tag`.
inline std::string freshSocketPath(const std::string& tag) {
  return "/tmp/rfsm-" + std::to_string(::getpid()) + "-" + tag + ".sock";
}

/// A planner service on `socketPath` with two rfsmd workers and
/// four-instance shards.
inline service::ServerOptions smallServerOptions(
    const std::string& socketPath) {
  service::ServerOptions options;
  options.socketPath = socketPath;
  options.workerBinary = rfsmdPath();
  options.shardSize = 4;
  options.pool.workers = 2;
  return options;
}

/// An in-process planner service, serving on its own thread until dropped.
struct RunningServer {
  std::string path;  ///< the socket it serves on
  service::Server server;
  CancelToken stop;
  std::thread thread;

  explicit RunningServer(service::ServerOptions options)
      : path(options.socketPath),
        server(std::move(options)),
        thread([this] { server.run(&stop); }) {}
  explicit RunningServer(const std::string& socketPath)
      : RunningServer(smallServerOptions(socketPath)) {}
  ~RunningServer() {
    stop.cancel();
    thread.join();
  }
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;
};

/// `payload` framed exactly as ipc::writeFrame sends it (little-endian
/// length, payload, CRC32C trailer), for fakes that script raw wire bytes.
inline std::string frameBytes(std::string_view payload) {
  ipc::MessageWriter header;
  header.u32(static_cast<std::uint32_t>(payload.size()));
  ipc::MessageWriter trailer;
  trailer.u32(ipc::crc32c(payload));
  return header.take() + std::string(payload) + trailer.take();
}

/// Writes `bytes` to `fd` in one call, so frames written together reach
/// the peer together; false on an error or a short write.
inline bool writeRaw(int fd, std::string_view bytes) {
  return ::write(fd, bytes.data(), bytes.size()) ==
         static_cast<ssize_t>(bytes.size());
}

/// A fake rfsmd speaking the real plan protocol, with scripted
/// misbehaviour.  Honest replies are planRange's bytes — bit-identical to
/// any other correct party — so any observable difference is the fault
/// model, never the fake.  It plans with kBypass: it plays a *remote*
/// process, which must not share (or serve back) this process's plan
/// cache, or a poisoned local entry could vouch for itself.
class FakeEndpoint {
 public:
  enum class Behavior {
    kHonest,        ///< correct bytes
    kTamper,        ///< appends junk to every program (a lying replica)
    kSlow,          ///< answers correctly after `delay`
    kSilent,        ///< accepts, reads, never answers
    kFlaky,         ///< hangs up without answering every other connection
    kUnavailable,   ///< answers UNAVAILABLE (an unhealthy pool)
    kShed,          ///< answers RESOURCE_EXHAUSTED (a shed request)
    kDeadline,      ///< answers DEADLINE_EXCEEDED
    kFailed,        ///< answers FAILED
    kCorruptFrame,  ///< an honest reply whose CRC trailer is wrong
    kUndecodable,   ///< a well-framed payload that is no plan response
  };

  explicit FakeEndpoint(std::string path, Behavior behavior = Behavior::kHonest,
                        std::chrono::milliseconds delay = {})
      : path_(std::move(path)),
        behavior_(behavior),
        delay_(delay),
        listen_(ipc::listenUnix(path_)),
        thread_([this] { serve(); }) {}

  ~FakeEndpoint() {
    stop_.cancel();
    thread_.join();
    ::unlink(path_.c_str());
  }

  FakeEndpoint(const FakeEndpoint&) = delete;
  FakeEndpoint& operator=(const FakeEndpoint&) = delete;

  const std::string& path() const { return path_; }

 private:
  void serve() {
    while (!stop_.expired()) {
      CancelToken slice(std::chrono::milliseconds(200));
      auto connection = ipc::acceptUnix(listen_.get(), &slice);
      if (!connection.has_value()) continue;
      try {
        handle(connection->get());
      } catch (const Error&) {
        // Client went away (e.g. a cancelled hedge loser): next connection.
      }
    }
  }

  void handle(int fd) {
    std::string payload;
    CancelToken read(std::chrono::milliseconds(2000));
    if (ipc::readFrame(fd, payload, &read) != ipc::ReadStatus::kOk) return;
    if (behavior_ == Behavior::kFlaky && (++connections_ % 2) != 0)
      return;  // drop the connection without a reply
    const auto request = service::decodePlanRequest(payload);
    if (behavior_ == Behavior::kSilent) {
      // Hold the connection open until the client gives up.
      CancelToken hold(std::chrono::milliseconds(1000));
      std::string ignored;
      (void)ipc::readFrame(fd, ignored, &hold);
      return;
    }
    if (delay_.count() > 0) std::this_thread::sleep_for(delay_);
    service::PlanResponse response;
    response.status = scriptedStatus();
    if (response.status != WorkResult::Status::kOk) {
      response.error = "scripted";
      ipc::writeFrame(fd, service::encodePlanResponse(response));
      return;
    }
    if (behavior_ == Behavior::kUndecodable) {
      ipc::writeFrame(fd, "no plan response");
      return;
    }
    response.programs =
        service::planRange(request.spec, request.rangeLo(), request.rangeHi(),
                           nullptr, 1, service::PlanCacheMode::kBypass);
    if (behavior_ == Behavior::kTamper)
      for (std::string& program : response.programs)
        program += "# tampered\n";
    std::string frame = frameBytes(service::encodePlanResponse(response));
    if (behavior_ == Behavior::kCorruptFrame) frame.back() ^= 0x01;
    writeRaw(fd, frame);
  }

  WorkResult::Status scriptedStatus() const {
    switch (behavior_) {
      case Behavior::kUnavailable: return WorkResult::Status::kUnavailable;
      case Behavior::kShed: return WorkResult::Status::kShed;
      case Behavior::kDeadline: return WorkResult::Status::kDeadlineExceeded;
      case Behavior::kFailed: return WorkResult::Status::kFailed;
      default: return WorkResult::Status::kOk;
    }
  }

  std::string path_;
  Behavior behavior_;
  std::chrono::milliseconds delay_;
  ipc::Fd listen_;
  CancelToken stop_;
  std::uint64_t connections_ = 0;
  std::thread thread_;
};

}  // namespace rfsm
