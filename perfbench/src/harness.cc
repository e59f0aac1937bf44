#include "harness.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <deque>
#include <fstream>
#include <limits>
#include <thread>

#include "cluster/host_map.h"
#include "cluster/upstream.h"

namespace perfbench {

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

int PickFreePort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof(addr);
  int port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  ::close(fd);
  return port;
}

// ---- ServerProcess -------------------------------------------------------

domd::StatusOr<std::unique_ptr<ServerProcess>> ServerProcess::Start(
    const std::string& binary, const std::vector<std::string>& args,
    const std::string& log_path) {
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (log_fd < 0) return domd::Status::IoError("cannot open " + log_path);
  std::vector<std::string> argv_store;
  argv_store.push_back(binary);
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_store) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    return domd::Status::Internal("fork failed");
  }
  if (pid == 0) {
    // Die with the benchmark, whatever ends it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::close(log_fd);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(log_fd);
  std::unique_ptr<ServerProcess> process(new ServerProcess(pid, log_path));

  const std::string marker = "listening on 127.0.0.1:";
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  while (Clock::now() < deadline) {
    std::ifstream in(log_path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    const std::size_t at = text.find(marker);
    if (at != std::string::npos &&
        text.find('\n', at) != std::string::npos) {
      process->port_ = std::atoi(text.c_str() + at + marker.size());
      return process;
    }
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      process->pid_ = -1;
      return domd::Status::Unavailable(binary + " exited during start-up: " +
                                       text);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return domd::Status::DeadlineExceeded(binary + " never printed its port");
}

ServerProcess::~ServerProcess() { Stop(); }

double ServerProcess::PeakRssMb() const {
  if (pid_ < 0) return 0.0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

void ServerProcess::Stop() {
  if (pid_ < 0) return;
  if (port_ > 0) Call(port_, "{\"cmd\":\"shutdown\"}", 2000);
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  int status = 0;
  while (Clock::now() < deadline) {
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
}

// ---- control RPCs --------------------------------------------------------

domd::StatusOr<domd::JsonValue> Call(int port, const std::string& line,
                                     double timeout_ms) {
  const auto deadline =
      Clock::now() + std::chrono::microseconds(
                         static_cast<std::int64_t>(timeout_ms * 1000.0));
  domd::cluster::Endpoint endpoint{"127.0.0.1", port};
  auto conn = domd::cluster::UpstreamConn::Dial(endpoint, deadline);
  if (!conn.ok()) return conn.status();
  DOMD_RETURN_IF_ERROR(conn->SendLine(line, deadline));
  auto response = conn->ReadLine(deadline);
  if (!response.ok()) return response.status();
  return domd::JsonValue::Parse(*response);
}

domd::Status WaitReady(int port, double timeout_ms) {
  const auto deadline =
      Clock::now() + std::chrono::microseconds(
                         static_cast<std::int64_t>(timeout_ms * 1000.0));
  domd::Status last = domd::Status::Unavailable("never probed");
  while (Clock::now() < deadline) {
    auto health = Call(port, "{\"cmd\":\"health\"}", 1000);
    if (health.ok()) {
      const bool ready = health->BoolOr("ok", false) &&
                         health->BoolOr("ready", true) &&
                         health->BoolOr("all_shards_routable", true);
      if (ready) return domd::Status::OK();
      last = domd::Status::Unavailable("not ready: " + health->Serialize());
    } else {
      last = health.status();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return last;
}

// ---- OpenLoopClient ------------------------------------------------------

struct OpenLoopClient::Conn {
  int fd = -1;
  /// Lines queued for writing: the line and how much of it went out.
  std::deque<std::pair<const std::string*, std::size_t>> out;
  std::string in;
  /// Requests awaiting an answer, in send order: (stream, result slot).
  std::deque<std::pair<std::size_t, std::size_t>> waiting;
};

namespace {

int ConnectNonBlocking(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

}  // namespace

OpenLoopClient::OpenLoopClient(int port, std::size_t connections)
    : port_(port) {
  epoll_fd_ = ::epoll_create1(0);
  ok_ = epoll_fd_ >= 0;
  for (std::size_t c = 0; c < connections && ok_; ++c) {
    conns_.push_back(std::make_unique<Conn>());
    ok_ = Reconnect(c);
  }
}

OpenLoopClient::~OpenLoopClient() {
  for (auto& conn : conns_) {
    if (conn->fd >= 0) ::close(conn->fd);
  }
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

bool OpenLoopClient::Reconnect(std::size_t c) {
  Conn& conn = *conns_[c];
  if (conn.fd >= 0) ::close(conn.fd);
  conn = Conn();
  conn.fd = ConnectNonBlocking(port_);
  if (conn.fd < 0) return false;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = c;
  return ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn.fd, &ev) == 0;
}

namespace {

/// Runs the calling thread under SCHED_FIFO for its lifetime, so the
/// generator's schedule holds while the servers saturate every core (the
/// thread sleeps between due times, so it cannot starve them). Best
/// effort: without the privilege the generator-lag guard still catches a
/// late schedule.
class RealtimeScope {
 public:
  RealtimeScope() {
    policy_ = ::sched_getscheduler(0);
    ::sched_getparam(0, &previous_);
    sched_param param{};
    param.sched_priority = 1;
    active_ = ::sched_setscheduler(0, SCHED_FIFO, &param) == 0;
  }
  ~RealtimeScope() {
    if (active_) ::sched_setscheduler(0, policy_, &previous_);
  }
  RealtimeScope(const RealtimeScope&) = delete;
  RealtimeScope& operator=(const RealtimeScope&) = delete;

 private:
  int policy_ = SCHED_OTHER;
  sched_param previous_{};
  bool active_ = false;
};

}  // namespace

std::vector<StreamResult> OpenLoopClient::Run(
    const std::vector<LoadStream>& streams, double seconds, double drain_ms,
    bool keep_responses) {
  const RealtimeScope realtime;
  std::vector<StreamResult> results(streams.size());
  std::vector<std::size_t> issued(streams.size(), 0);
  std::vector<std::size_t> next_conn(streams.size(), 0);
  std::vector<bool> want_out(conns_.size(), false);
  std::size_t outstanding = 0;
  const Clock::time_point start = Clock::now();
  const Clock::time_point send_end =
      start + std::chrono::microseconds(
                  static_cast<std::int64_t>(seconds * 1e6));
  const auto due_of = [&](std::size_t s, std::size_t k) {
    return start + std::chrono::nanoseconds(static_cast<std::int64_t>(
                       static_cast<double>(k) / streams[s].rate * 1e9));
  };

  const auto flush = [&](std::size_t c) {
    Conn& conn = *conns_[c];
    while (!conn.out.empty()) {
      auto& [line, off] = conn.out.front();
      const ssize_t n = ::send(conn.fd, line->data() + off,
                               line->size() - off, MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
        if (off == line->size()) conn.out.pop_front();
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      conn.out.clear();  // broken connection: answers will go missing.
      break;
    }
    const bool need = !conn.out.empty();
    if (need != want_out[c]) {
      epoll_event ev{};
      ev.events = EPOLLIN | (need ? EPOLLOUT : 0u);
      ev.data.u64 = c;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
      want_out[c] = need;
    }
  };

  const auto on_readable = [&](std::size_t c, Clock::time_point now) {
    Conn& conn = *conns_[c];
    char chunk[65536];
    while (true) {
      const ssize_t n = ::recv(conn.fd, chunk, sizeof(chunk), 0);
      if (n > 0) {
        conn.in.append(chunk, static_cast<std::size_t>(n));
        continue;
      }
      break;
    }
    std::size_t begin = 0;
    while (true) {
      const std::size_t nl = conn.in.find('\n', begin);
      if (nl == std::string::npos) break;
      if (!conn.waiting.empty()) {
        const auto [s, slot] = conn.waiting.front();
        conn.waiting.pop_front();
        StreamResult& r = results[s];
        const std::size_t k = r.index[slot] - streams[s].first;
        r.latency_ms[slot] = MsBetween(due_of(s, k), now);
        if (keep_responses) {
          r.responses[slot] = conn.in.substr(begin, nl - begin);
        }
        ++r.answered;
        --outstanding;
      }
      begin = nl + 1;
    }
    conn.in.erase(0, begin);
  };

  epoll_event events[16];
  bool sending = true;
  Clock::time_point drain_end = send_end;
  while (true) {
    Clock::time_point now = Clock::now();
    if (sending) {
      // Issue everything that is due, earliest first across streams.
      for (std::size_t s = 0; s < streams.size(); ++s) {
        while (true) {
          const Clock::time_point due = due_of(s, issued[s]);
          if (due > now || due >= send_end) break;
          const LoadStream& stream = streams[s];
          const std::size_t c =
              stream.conns[next_conn[s]++ % stream.conns.size()];
          const std::size_t index = stream.first + issued[s];
          StreamResult& r = results[s];
          r.index.push_back(index);
          r.latency_ms.push_back(std::numeric_limits<double>::infinity());
          r.lag_ms.push_back(MsBetween(due, now));
          if (keep_responses) r.responses.emplace_back();
          conns_[c]->out.emplace_back(&stream.line(index), 0);
          conns_[c]->waiting.emplace_back(s, r.index.size() - 1);
          ++outstanding;
          ++issued[s];
          flush(c);
        }
      }
      if (now >= send_end) {
        sending = false;
        drain_end = now + std::chrono::microseconds(
                              static_cast<std::int64_t>(drain_ms * 1000.0));
      }
    }
    if (!sending && (outstanding == 0 || now >= drain_end)) break;

    Clock::time_point wake = drain_end;
    if (sending) {
      wake = send_end;
      for (std::size_t s = 0; s < streams.size(); ++s) {
        wake = std::min(wake, due_of(s, issued[s]));
      }
    }
    // Nanosecond timeout, so the generator neither spins nor oversleeps.
    const auto wait_ns = std::max<std::int64_t>(
        0, std::chrono::duration_cast<std::chrono::nanoseconds>(wake - now)
               .count());
    timespec timeout{};
    timeout.tv_sec = static_cast<time_t>(wait_ns / 1000000000);
    timeout.tv_nsec = static_cast<long>(wait_ns % 1000000000);
    const int n = ::epoll_pwait2(epoll_fd_, events, 16, &timeout, nullptr);
    now = Clock::now();
    for (int e = 0; e < n; ++e) {
      const std::size_t c = static_cast<std::size_t>(events[e].data.u64);
      if (events[e].events & EPOLLOUT) flush(c);
      if (events[e].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        on_readable(c, now);
      }
    }
  }
  for (std::size_t c = 0; c < conns_.size(); ++c) {
    if (!conns_[c]->waiting.empty() || !conns_[c]->out.empty()) {
      want_out[c] = false;
      if (!Reconnect(c)) ok_ = false;
    }
  }
  return results;
}

}  // namespace perfbench
