// Process and socket plumbing of the benchmark: spawning the program's
// servers, one-shot control RPCs, and the single-threaded open-loop NDJSON
// load generator.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "serve/json.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point a, Clock::time_point b);

/// A loopback TCP port that was free a moment ago (for replication peers,
/// which must know each other's ports before either starts).
int PickFreePort();

/// One child server process (domd_serve or domd_router). Its stdout and
/// stderr go to `log_path`; Start returns once it printed its listening
/// port. The child is killed if this process dies first.
class ServerProcess {
 public:
  static domd::StatusOr<std::unique_ptr<ServerProcess>> Start(
      const std::string& binary, const std::vector<std::string>& args,
      const std::string& log_path);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int port() const { return port_; }
  /// Peak resident set (VmHWM) so far, in MiB; 0 once the child exited.
  double PeakRssMb() const;
  /// Asks for a clean shutdown, then kills after a grace period; always
  /// reaps the child.
  void Stop();

 private:
  ServerProcess(pid_t pid, std::string log_path)
      : pid_(pid), log_path_(std::move(log_path)) {}
  pid_t pid_ = -1;
  int port_ = 0;
  std::string log_path_;
};

/// One request/response round trip on a fresh connection (`line` without
/// its newline). Used for control verbs, never for measured load.
domd::StatusOr<domd::JsonValue> Call(int port, const std::string& line,
                                     double timeout_ms = 10000);

/// Polls `health` until the server (or router, once every shard is
/// routable) reports ready.
domd::Status WaitReady(int port, double timeout_ms);

/// One traffic stream of an open-loop phase: requests due at a fixed rate
/// from the phase start, spread round-robin over `conns`.
struct LoadStream {
  double rate = 1.0;
  std::vector<std::size_t> conns;
  /// Line of the stream's i-th request (must end with '\n' and stay alive
  /// for the phase).
  std::function<const std::string&(std::size_t)> line;
  std::size_t first = 0;  ///< index of the phase's first request.
};

/// What one stream of a phase observed, one entry per request sent.
struct StreamResult {
  std::vector<std::size_t> index;
  std::vector<double> latency_ms;  ///< from due time; inf if unanswered.
  std::vector<double> lag_ms;      ///< generator lateness at issue.
  std::vector<std::string> responses;
  std::size_t answered = 0;
};

/// Open-loop NDJSON client: one thread, up to a few pipelined loopback
/// connections, every request timed from when it was due.
class OpenLoopClient {
 public:
  OpenLoopClient(int port, std::size_t connections);
  ~OpenLoopClient();
  OpenLoopClient(const OpenLoopClient&) = delete;
  OpenLoopClient& operator=(const OpenLoopClient&) = delete;

  bool ok() const { return ok_; }

  /// Sends every stream for `seconds`, then waits up to `drain_ms` for the
  /// outstanding answers. Connections with unanswered requests are
  /// reopened so the next phase starts clean.
  std::vector<StreamResult> Run(const std::vector<LoadStream>& streams,
                                double seconds, double drain_ms,
                                bool keep_responses);

 private:
  struct Conn;
  bool Reconnect(std::size_t c);

  int port_;
  int epoll_fd_ = -1;
  bool ok_ = false;
  std::vector<std::unique_ptr<Conn>> conns_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
