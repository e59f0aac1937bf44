// domd_router — cluster routing front-end for a fleet of domd_serve shards.
//
//   domd_router --cluster-spec FILE [--port P] [--workers W]
//               [--max-queue Q] [--hedge-ms H] [--upstream-deadline-ms D]
//               [--probe-interval-ms I] [--probe-timeout-ms T]
//               [--rollout-deadline-ms R] [--loop-shards S]
//               [--max-connections C] [--idle-timeout-ms T]
//               [--fault-spec SPEC]
//
// Speaks the same newline-delimited JSON wire protocol as domd_serve and
// listens on 127.0.0.1:P (P = 0 picks an ephemeral port, printed as
// "listening on 127.0.0.1:<port>"). Clients talk to the router exactly as
// they would a single shard; a routed answer is the owning shard's answer
// byte-for-byte. The verbs, and the thread each runs on, are listed on
// ClusterRouter (src/cluster/router.h).
//
// The cluster-spec file is JSON (see src/cluster/host_map.h):
//
//   {"vnodes": 64,
//    "shards": [{"id": 0, "replicas": ["127.0.0.1:7501", "127.0.0.1:7601"]},
//               {"id": 1, "replicas": ["127.0.0.1:7502"]}]}
//
// Availability: a health prober marks replicas up/down every
// --probe-interval-ms, and routed requests hedge — a replica that is down,
// breaker-open, or silent past --hedge-ms is abandoned and the request
// retries on the next replica of the shard, so killing one replica costs
// at most a hedge delay, not an outage.

#include <csignal>
#include <cstdio>
#include <memory>
#include <string>

#include "cluster/router.h"
#include "common/flags.h"
#include "serve/reactor.h"

namespace domd {
namespace {

int Run(const Flags& flags) {
  const auto spec_it = flags.find("cluster-spec");
  if (spec_it == flags.end()) {
    std::fprintf(stderr, "error: --cluster-spec is required\n");
    return 2;
  }
  if (const int rc = ArmFaults(flags, "domd_router"); rc != 0) return rc;

  cluster::RouterOptions options;
  options.workers = IntFlag<std::size_t>(flags, "workers", 4);
  options.max_queue_depth = IntFlag<std::size_t>(flags, "max-queue", 512);
  const auto ms = [&flags](const char* key, int fallback) {
    return std::chrono::milliseconds(IntFlag<int>(flags, key, fallback, 0));
  };
  options.hedge_deadline = ms("hedge-ms", 250);
  options.upstream_deadline = ms("upstream-deadline-ms", 5000);
  options.probe_interval = ms("probe-interval-ms", 500);
  options.probe_timeout = ms("probe-timeout-ms", 250);
  options.rollout_rpc_deadline = ms("rollout-deadline-ms", 30000);
  ReactorOptions reactor_options;
  reactor_options.port = IntFlag<int>(flags, "port", 7432, 0, 65535);
  reactor_options.num_shards = IntFlag<std::size_t>(flags, "loop-shards", 2);
  reactor_options.max_connections =
      IntFlag<std::size_t>(flags, "max-connections", 1024);
  reactor_options.idle_timeout = std::chrono::milliseconds(
      IntFlag<std::int64_t>(flags, "idle-timeout-ms", 60000, 0));

  auto host_map = cluster::HostMap::LoadFile(spec_it->second);
  if (!host_map.ok()) {
    std::fprintf(stderr, "error: %s\n", host_map.status().ToString().c_str());
    return 1;
  }
  cluster::ClusterRouter router(std::move(*host_map), options);
  auto reactor = Reactor::Create(
      reactor_options, [&router](std::string line, Responder responder) {
        router.Handle(std::move(line), std::move(responder));
      });
  if (!reactor.ok()) {
    std::fprintf(stderr, "error: %s\n", reactor.status().ToString().c_str());
    return 1;
  }

  std::printf("domd_router: %zu shards from %s\n",
              router.host_map().num_shards(), spec_it->second.c_str());
  std::printf("listening on 127.0.0.1:%d\n", (*reactor)->port());
  std::fflush(stdout);

  (*reactor)->Wait();
  reactor->reset();  // join shards and release every connection.

  const cluster::RouterStatsSnapshot stats = router.stats();
  std::printf(
      "domd_router: clean shutdown — %llu routed, %llu scattered, %llu "
      "hedged, %llu failed, %llu rollouts\n",
      static_cast<unsigned long long>(stats.routed),
      static_cast<unsigned long long>(stats.scattered),
      static_cast<unsigned long long>(stats.hedged),
      static_cast<unsigned long long>(stats.failed),
      static_cast<unsigned long long>(stats.rollouts));
  return 0;
}

}  // namespace
}  // namespace domd

int main(int argc, char** argv) {
  // A shard closing mid-write must not kill the router.
  std::signal(SIGPIPE, SIG_IGN);
  return domd::Run(domd::ParseFlags(argc, argv, 1));
}
