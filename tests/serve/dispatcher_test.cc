#include "serve/dispatcher.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "serve/reactor_test_client.h"

namespace domd {
namespace {

using testing_internal::TestClient;
using testing_internal::WaitFor;

/// A VerbDispatcher behind a one-shard Reactor, driven over loopback.
/// Register verbs, then Start().
struct Served {
  std::unique_ptr<VerbDispatcher> dispatcher;
  std::unique_ptr<Reactor> reactor;
  /// Handle calls that have returned.
  std::atomic<int> handled{0};
  /// The thread that called Handle (the reactor's event-loop shard).
  std::atomic<std::thread::id> caller;

  Served(std::size_t workers, std::size_t max_queue_depth)
      : dispatcher(
            std::make_unique<VerbDispatcher>(workers, max_queue_depth)) {}
  ~Served() {
    reactor.reset();
    dispatcher.reset();
  }

  void Start() {
    ReactorOptions options;
    options.num_shards = 1;
    auto created = Reactor::Create(
        options, [this](std::string line, Responder responder) {
          caller.store(std::this_thread::get_id());
          dispatcher->Handle(std::move(line), std::move(responder));
          handled.fetch_add(1);
        });
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    reactor = std::move(*created);
  }

  TestClient Connect() const { return TestClient::Connect(reactor->port()); }

  std::string Rpc(const std::string& line) const {
    TestClient client = Connect();
    EXPECT_TRUE(client.SendLine(line));
    return client.ReadLine().value_or("<no answer>");
  }
};

std::string CodeOf(const std::string& line) {
  auto parsed = JsonValue::Parse(line);
  return parsed.ok() ? parsed->StringOr("code", "OK") : "<unparseable>";
}

TEST(VerbDispatcherTest, UnknownCmdAndMalformedJsonGetErrorAnswers) {
  Served served(1, 8);
  served.Start();
  const std::string unknown = served.Rpc("{\"cmd\": \"nope\"}");
  EXPECT_EQ(CodeOf(unknown), "INVALID_ARGUMENT") << unknown;
  EXPECT_NE(unknown.find("unknown cmd \\\"nope\\\""), std::string::npos)
      << unknown;
  // No default verb registered: a request without `cmd` is an error too.
  EXPECT_EQ(CodeOf(served.Rpc("{\"avail_id\": 3}")), "INVALID_ARGUMENT");
  const std::string malformed = served.Rpc("{\"cmd\": ");
  auto parsed = JsonValue::Parse(malformed);
  ASSERT_TRUE(parsed.ok()) << malformed;
  EXPECT_FALSE(parsed->BoolOr("ok", true));
}

TEST(VerbDispatcherTest, RequestWithoutCmdReachesDefaultWithItsRawLine) {
  for (const VerbPolicy policy : {VerbPolicy::kInline, VerbPolicy::kWorker}) {
    Served served(1, 8);
    served.dispatcher->Register(
        "", policy, [](const VerbRequest& request, Responder responder) {
          responder.Respond(request.line);
        });
    served.Start();
    // Odd spacing and key order survive: the handler sees the client's
    // bytes, never a re-serialization.
    const std::string line = "{ \"avail_id\" :7,\"t_star\":  60.50 }";
    EXPECT_EQ(served.Rpc(line), line);
  }
}

TEST(VerbDispatcherTest, InlineVerbsRunOnTheCallersThread) {
  Served served(2, 8);
  std::atomic<std::thread::id> inline_thread;
  std::atomic<std::thread::id> worker_thread;
  served.dispatcher->Register(
      "here", VerbPolicy::kInline,
      [&](const VerbRequest&, Responder responder) {
        inline_thread.store(std::this_thread::get_id());
        responder.Respond("{\"ok\": true}");
      });
  served.dispatcher->Register(
      "there", VerbPolicy::kWorker,
      [&](const VerbRequest&, Responder responder) {
        worker_thread.store(std::this_thread::get_id());
        responder.Respond("{\"ok\": true}");
      });
  served.Start();
  served.Rpc("{\"cmd\": \"here\"}");
  EXPECT_EQ(inline_thread.load(), served.caller.load());
  served.Rpc("{\"cmd\": \"there\"}");
  EXPECT_NE(worker_thread.load(), served.caller.load());
  EXPECT_NE(worker_thread.load(), std::thread::id());
}

TEST(VerbDispatcherTest, FullWorkerQueueShedsWithResourceExhausted) {
  Served served(/*workers=*/1, /*max_queue_depth=*/1);
  std::latch gate(1);
  std::atomic<int> started{0};
  served.dispatcher->Register(
      "block", VerbPolicy::kWorker,
      [&](const VerbRequest&, Responder responder) {
        started.fetch_add(1);
        gate.wait();
        responder.Respond("{\"ok\": true}");
      });
  served.Start();

  // The first job occupies the only worker; the second fills the queue.
  TestClient first = served.Connect();
  ASSERT_TRUE(first.SendLine("{\"cmd\": \"block\"}"));
  ASSERT_TRUE(WaitFor([&] { return started.load() == 1; }));
  ASSERT_TRUE(first.SendLine("{\"cmd\": \"block\"}"));
  ASSERT_TRUE(WaitFor([&] { return served.handled.load() == 2; }));

  // The third finds the queue at its bound.
  EXPECT_EQ(CodeOf(served.Rpc("{\"cmd\": \"block\"}")), "RESOURCE_EXHAUSTED");
  EXPECT_EQ(served.dispatcher->rejected(), 1u);

  gate.count_down();
  EXPECT_EQ(CodeOf(first.ReadLine().value_or("")), "OK");
  EXPECT_EQ(CodeOf(first.ReadLine().value_or("")), "OK");
  EXPECT_EQ(started.load(), 2);
}

TEST(VerbDispatcherTest, BlockedSlowWorkerDoesNotDelayWorkerVerbs) {
  Served served(1, 8);
  std::latch gate(1);
  std::atomic<bool> slow_started{false};
  served.dispatcher->Register(
      "slow", VerbPolicy::kSlowWorker,
      [&](const VerbRequest&, Responder responder) {
        slow_started.store(true);
        gate.wait();
        responder.Respond("{\"ok\": true, \"verb\": \"slow\"}");
      });
  served.dispatcher->Register(
      "fast", VerbPolicy::kWorker,
      [](const VerbRequest&, Responder responder) {
        responder.Respond("{\"ok\": true, \"verb\": \"fast\"}");
      });
  served.Start();

  TestClient slow = served.Connect();
  ASSERT_TRUE(slow.SendLine("{\"cmd\": \"slow\"}"));
  ASSERT_TRUE(WaitFor([&] { return slow_started.load(); }));
  EXPECT_EQ(served.Rpc("{\"cmd\": \"fast\"}"),
            "{\"ok\": true, \"verb\": \"fast\"}");
  gate.count_down();
  EXPECT_EQ(slow.ReadLine().value_or(""),
            "{\"ok\": true, \"verb\": \"slow\"}");
}

TEST(VerbDispatcherTest, TeardownAnswersEveryAcceptedJobExactlyOnce) {
  constexpr int kJobs = 6;
  Served served(/*workers=*/1, /*max_queue_depth=*/kJobs);
  std::latch gate(1);
  std::atomic<int> runs{0};
  served.dispatcher->Register(
      "job", VerbPolicy::kWorker,
      [&](const VerbRequest& request, Responder responder) {
        gate.wait();
        runs.fetch_add(1);
        responder.Respond(request.line);
      });
  served.Start();

  TestClient client = served.Connect();
  std::string burst;
  for (int i = 0; i < kJobs; ++i) {
    burst += "{\"cmd\": \"job\", \"n\": " + std::to_string(i) + "}\n";
  }
  ASSERT_TRUE(client.Send(burst));
  ASSERT_TRUE(WaitFor([&] { return served.handled.load() == kJobs; }));

  // Every job is accepted and still pending; destroying the dispatcher
  // must drain all of them before its threads exit.
  std::thread opener([&gate] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    gate.count_down();
  });
  served.dispatcher.reset();
  opener.join();
  EXPECT_EQ(runs.load(), kJobs);
  for (int i = 0; i < kJobs; ++i) {
    EXPECT_EQ(client.ReadLine().value_or(""),
              "{\"cmd\": \"job\", \"n\": " + std::to_string(i) + "}");
  }
  EXPECT_FALSE(client.ReadLine(std::chrono::milliseconds(100)).has_value());
}

TEST(VerbDispatcherTest, ShutdownAndMetricsAreBuiltIn) {
  Served served(1, 8);
  served.Start();
  auto metrics = JsonValue::Parse(served.Rpc("{\"cmd\": \"metrics\"}"));
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics->StringOr("content_type", ""),
            "text/plain; version=0.0.4");
  auto shutdown = JsonValue::Parse(served.Rpc("{\"cmd\": \"shutdown\"}"));
  ASSERT_TRUE(shutdown.ok());
  EXPECT_TRUE(shutdown->BoolOr("shutting_down", false));
  served.reactor->Wait();  // returns: the reactor stopped itself.
}

}  // namespace
}  // namespace domd
