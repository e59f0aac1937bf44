#ifndef DOMD_SERVE_DISPATCHER_H_
#define DOMD_SERVE_DISPATCHER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/json.h"
#include "serve/reactor.h"

namespace domd {

/// Where a verb's handler runs.
enum class VerbPolicy {
  kInline,      ///< on the caller's reactor shard; must never block.
  kWorker,      ///< on the worker pool: blocking but bounded work.
  kSlowWorker,  ///< on its own thread: long jobs (training) that must not
                ///< queue worker verbs behind them.
};

/// One client request: its parsed JSON, plus the client's line
/// byte-for-byte (forwarders send it, never a re-serialization) and when
/// it arrived.
struct VerbRequest : JsonValue {
  std::string line;
  std::chrono::steady_clock::time_point received;
};

/// The NDJSON dispatch core shared by ServeFrontend and ClusterRouter
/// (DESIGN.md §12): parse the line, look up its `cmd` (no `cmd` → the verb
/// registered under ""), then run the handler under the verb's policy.
/// kWorker verbs share `workers` threads, kSlowWorker verbs one thread;
/// a request finding its queue at `max_queue_depth` is answered
/// RESOURCE_EXHAUSTED and counted in rejected(). `metrics` and `shutdown`
/// are built in. Destruction runs every accepted job, then joins; a
/// request arriving meanwhile is answered UNAVAILABLE. Owners declare the
/// dispatcher after everything its handlers touch.
class VerbDispatcher {
 public:
  /// Answers via `responder`, exactly once. `request` outlives the call
  /// only for worker verbs.
  using Handler =
      std::function<void(const VerbRequest& request, Responder responder)>;

  VerbDispatcher(std::size_t workers, std::size_t max_queue_depth);
  ~VerbDispatcher();
  VerbDispatcher(const VerbDispatcher&) = delete;
  VerbDispatcher& operator=(const VerbDispatcher&) = delete;

  /// Registers (or replaces) verb `cmd`; call before requests flow in.
  void Register(const std::string& cmd, VerbPolicy policy, Handler handler);
  /// Routes one request line; always answers, exactly once.
  void Handle(std::string line, Responder responder);
  /// Requests shed because their queue was full.
  std::uint64_t rejected() const { return rejected_.load(); }

 private:
  struct Verb {
    VerbPolicy policy = VerbPolicy::kInline;
    Handler handler;
  };
  struct Job {
    const Handler* handler = nullptr;  ///< points into verbs_.
    VerbRequest request;
    Responder responder;
  };
  struct Queue {
    std::deque<Job> jobs;
    std::condition_variable available;
  };

  void WorkerLoop(Queue* queue);

  const std::size_t max_queue_depth_;
  std::map<std::string, Verb> verbs_;
  std::atomic<std::uint64_t> rejected_{0};
  std::mutex mutex_;  ///< guards both queues and stopping_.
  Queue worker_queue_;
  Queue slow_queue_;
  bool stopping_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace domd

#endif  // DOMD_SERVE_DISPATCHER_H_
