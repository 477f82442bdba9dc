#include "harness.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "service/client.hpp"

namespace perfbench {

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9e3779b97f4a7c15ull * (b + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::size_t samplesBeyond(const std::vector<double>& values, double q) {
  const double cut = quantile(values, q);
  return static_cast<std::size_t>(
      std::count_if(values.begin(), values.end(),
                    [cut](double v) { return v > cut; }));
}

double chunkedQuantile(const std::vector<double>& inOrder, double q,
                       std::size_t& chunks) {
  const double beyondPerChunk = 10.0;
  const auto fit = static_cast<std::size_t>(
      static_cast<double>(inOrder.size()) * (1.0 - q) / beyondPerChunk);
  chunks = std::clamp<std::size_t>(fit, 1, 5);
  std::vector<double> perChunk;
  for (std::size_t c = 0; c < chunks; ++c) {
    const auto first = inOrder.begin() +
                       static_cast<std::ptrdiff_t>(inOrder.size() * c / chunks);
    const auto last = inOrder.begin() + static_cast<std::ptrdiff_t>(
                                            inOrder.size() * (c + 1) / chunks);
    perChunk.push_back(quantile(std::vector<double>(first, last), q));
  }
  return median(perChunk);
}

// --- Daemon ----------------------------------------------------------------

Daemon::Daemon(const std::string& binary,
               const std::vector<std::string>& args,
               const std::string& logPath)
    : logPath_(logPath) {
  // Everything the child touches is prepared before fork: between fork and
  // exec only async-signal-safe calls are allowed.
  std::vector<std::string> argvStrings{binary};
  argvStrings.insert(argvStrings.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argvStrings) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();

  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed for " + binary);
  if (pid == 0) {
    ::setpgid(0, 0);
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (::getppid() != parent) ::_exit(126);
    const int log = ::open(logPath_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log >= 0) {
      ::dup2(log, STDOUT_FILENO);
      ::dup2(log, STDERR_FILENO);
      ::close(log);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  pid_ = pid;
}

Daemon::~Daemon() { stop(SIGTERM); }

bool Daemon::running() {
  if (pid_ <= 0) return false;
  int status = 0;
  const pid_t r = ::waitpid(pid_, &status, WNOHANG);
  if (r == pid_ || (r < 0 && errno == ECHILD)) {
    pid_ = -1;
    return false;
  }
  return true;
}

std::vector<int> Daemon::children() const {
  std::vector<int> kids;
  if (pid_ <= 0) return kids;
  // /proc/<pid>/task/<tid>/children lists the children each thread forked;
  // the supervisor forks workers from its slot threads.
  std::error_code error;
  for (const auto& task : std::filesystem::directory_iterator(
           "/proc/" + std::to_string(pid_) + "/task", error)) {
    std::ifstream list(task.path() / "children");
    int child = 0;
    while (list >> child) kids.push_back(child);
  }
  return kids;
}

namespace {

double vmHwmMb(int pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

double Daemon::peakRssMb() const {
  if (pid_ <= 0) return 0.0;
  double total = vmHwmMb(pid_);
  for (const int child : children()) total += vmHwmMb(child);
  return total;
}

void Daemon::signal(int signal) {
  if (pid_ > 0) ::kill(pid_, signal);
}

void Daemon::stop(int signal) {
  if (pid_ <= 0) return;
  this->signal(signal);
  const auto deadline = Clock::now() + std::chrono::seconds(20);
  while (running()) {
    if (Clock::now() >= deadline) {
      ::kill(-pid_, SIGKILL);
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

std::string Daemon::logTail() const {
  std::ifstream log(logPath_);
  std::stringstream text;
  text << log.rdbuf();
  const std::string all = text.str();
  return all.size() > 2000 ? all.substr(all.size() - 2000) : all;
}

void reapOrphans(const std::vector<int>& pids,
                 std::chrono::milliseconds timeout) {
  const auto deadline = Clock::now() + timeout;
  for (const int pid : pids) {
    for (;;) {
      int status = 0;
      const pid_t r = ::waitpid(pid, &status, WNOHANG);
      if (r == pid || (r < 0 && errno == ECHILD && ::kill(pid, 0) != 0))
        break;
      if (Clock::now() >= deadline) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
}

// --- readiness and stats ---------------------------------------------------

void waitReady(Daemon& daemon, const rfsm::ipc::Endpoint& endpoint,
               int preforkWorkers) {
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  auto check = [&] {
    if (!daemon.running())
      throw std::runtime_error("rfsmd exited during start-up:\n" +
                               daemon.logTail());
    if (Clock::now() >= deadline)
      throw std::runtime_error("rfsmd not ready within 30 s:\n" +
                               daemon.logTail());
    // Fine-grained polling: the wait is part of what setup_s measures.
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  };
  for (;;) {
    const auto handshake = rfsm::service::probeHandshake(endpoint, 1000);
    if (handshake.has_value() && handshake->accepted) break;
    check();
  }
  while (preforkWorkers > 0 &&
         counterValue(scrapeStats(endpoint),
                      rfsm::metrics::kServiceWorkersPreforked) <
             static_cast<std::uint64_t>(preforkWorkers))
    check();
}

rfsm::service::StatsResponse scrapeStats(const rfsm::ipc::Endpoint& endpoint) {
  const auto reply = rfsm::service::exchangeEndpoint(
      endpoint, rfsm::service::encodeStatsRequest(), 10000);
  if (!reply.has_value()) throw std::runtime_error("stats scrape unanswered");
  return rfsm::service::decodeStatsResponse(*reply);
}

std::uint64_t counterValue(const rfsm::service::StatsResponse& stats,
                           const std::string& name) {
  for (const auto& c : stats.metrics.counters)
    if (c.name == name) return c.value;
  return 0;
}

// --- spans -----------------------------------------------------------------

ScopedSpan::ScopedSpan(SpanLog* log, const char* name, const char* module)
    : log_(log) {
  if (log_ == nullptr) return;
  span_.name = name;
  span_.module = module;
  span_.thread = log_->thread_;
  span_.id = (static_cast<std::uint64_t>(log_->thread_) << 40) | log_->next_++;
  span_.parent = log_->open_.empty() ? 0 : log_->open_.back();
  log_->open_.push_back(span_.id);
  span_.startNs = nowNs();
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  span_.endNs = nowNs();
  log_->open_.pop_back();
  log_->spans_.push_back(span_);
}

std::vector<double> spanDurationsUs(const std::vector<Span>& spans,
                                    const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans)
    if (name == s.name)
      out.push_back(static_cast<double>(s.endNs - s.startNs) / 1e3);
  return out;
}

std::map<std::string, double> selfTimeMs(const std::vector<Span>& spans) {
  // Children of one parent run on the parent's thread, one after another,
  // so their durations never overlap and simply add up.
  std::map<std::uint64_t, std::int64_t> childNs;
  for (const Span& s : spans)
    if (s.parent != 0) childNs[s.parent] += s.endNs - s.startNs;
  std::map<std::string, double> self;
  for (const Span& s : spans) {
    const auto covered = childNs.find(s.id);
    const std::int64_t ns = s.endNs - s.startNs -
                            (covered == childNs.end() ? 0 : covered->second);
    self[s.module] += static_cast<double>(ns) / 1e6;
  }
  return self;
}

bool writeTraceJson(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  std::int64_t origin = spans.empty() ? 0 : spans.front().startNs;
  for (const Span& s : spans) origin = std::min(origin, s.startNs);
  out << "{\"traceEvents\":[";
  for (std::size_t k = 0; k < spans.size(); ++k) {
    const Span& s = spans[k];
    out << (k ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\",\"cat\":\""
        << s.module << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
        << ",\"ts\":" << static_cast<double>(s.startNs - origin) / 1e3
        << ",\"dur\":" << static_cast<double>(s.endNs - s.startNs) / 1e3
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
