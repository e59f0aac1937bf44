#include "serve/dispatcher.h"

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "serve/wire.h"

namespace domd {

VerbDispatcher::VerbDispatcher(std::size_t workers,
                               std::size_t max_queue_depth)
    : max_queue_depth_(max_queue_depth) {
  Register("metrics", VerbPolicy::kInline,
           [](const VerbRequest&, Responder responder) {
             // Prometheus text exposition 0.0.4; Serialize() escapes its
             // newlines, so it rides one NDJSON line.
             JsonValue out = JsonValue::Object();
             out.Set("ok", JsonValue::Bool(true));
             out.Set("content_type",
                     JsonValue::String("text/plain; version=0.0.4"));
             out.Set("payload",
                     JsonValue::String(
                         obs::MetricsRegistry::Default().RenderPrometheus()));
             responder.Respond(out.Serialize());
           });
  Register("shutdown", VerbPolicy::kInline,
           [](const VerbRequest&, Responder responder) {
             // Stops this endpoint only: a router's shards keep serving.
             JsonValue out = JsonValue::Object();
             out.Set("ok", JsonValue::Bool(true));
             out.Set("shutting_down", JsonValue::Bool(true));
             responder.RespondThenStop(out.Serialize());
           });
  for (std::size_t i = 0; i < std::max<std::size_t>(1, workers); ++i) {
    threads_.emplace_back([this] { WorkerLoop(&worker_queue_); });
  }
  threads_.emplace_back([this] { WorkerLoop(&slow_queue_); });
}

VerbDispatcher::~VerbDispatcher() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    worker_queue_.available.notify_all();
    slow_queue_.available.notify_all();
  }
  for (std::thread& thread : threads_) thread.join();
}

void VerbDispatcher::Register(const std::string& cmd, VerbPolicy policy,
                              Handler handler) {
  verbs_[cmd] = Verb{policy, std::move(handler)};
}

void VerbDispatcher::WorkerLoop(Queue* queue) {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue->available.wait(
          lock, [&] { return stopping_ || !queue->jobs.empty(); });
      if (queue->jobs.empty()) return;  // stopping, fully drained.
      job = std::move(queue->jobs.front());
      queue->jobs.pop_front();
    }
    (*job.handler)(job.request, std::move(job.responder));
  }
}

void VerbDispatcher::Handle(std::string line, Responder responder) {
  const auto received = std::chrono::steady_clock::now();
  auto json = JsonValue::Parse(line);
  if (!json.ok()) {
    responder.Respond(ErrorToJson(json.status()).Serialize());
    return;
  }
  const std::string cmd = json->StringOr("cmd", "");
  const auto it = verbs_.find(cmd);
  if (it == verbs_.end()) {
    responder.Respond(
        ErrorToJson(Status::InvalidArgument(
                        cmd.empty() ? std::string("request needs \"cmd\"")
                                    : "unknown cmd \"" + cmd + "\""))
            .Serialize());
    return;
  }
  const Verb& verb = it->second;
  VerbRequest request{std::move(*json), std::move(line), received};
  if (verb.policy == VerbPolicy::kInline) {
    verb.handler(request, std::move(responder));
    return;
  }
  Queue& queue =
      verb.policy == VerbPolicy::kSlowWorker ? slow_queue_ : worker_queue_;
  Status refused;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      refused = Status::Unavailable("server is shutting down");
    } else if (queue.jobs.size() >= max_queue_depth_) {
      rejected_.fetch_add(1);
      refused = Status::ResourceExhausted("worker queue full");
    } else {
      queue.jobs.push_back(
          Job{&verb.handler, std::move(request), std::move(responder)});
      queue.available.notify_one();
      return;
    }
  }
  responder.Respond(ErrorToJson(refused).Serialize());
}

}  // namespace domd
