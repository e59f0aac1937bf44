// The traced run's per-layer replay. The seed's inputs go through each
// layer's public functions in the order the program calls them, with a
// span around every call; the spans come from this file only (tracing
// inside the program is separate work). Registry-derived numbers come from
// the program's own obs registry in this process.

#include <algorithm>
#include <bit>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <thread>

#include "cache/fingerprint.h"
#include "cache/view_cache.h"
#include "cluster/hash_ring.h"
#include "cluster/host_map.h"
#include "cluster/router.h"
#include "cluster/upstream.h"
#include "common/rng.h"
#include "core/fusion.h"
#include "core/timeline.h"
#include "data/integrity.h"
#include "data/logical_time.h"
#include "features/columnar.h"
#include "features/feature_engineer.h"
#include "features/static_features.h"
#include "gen.h"
#include "harness.h"
#include "ingest/data_store.h"
#include "ingest/ingest_log.h"
#include "ml/attribution.h"
#include "obs/metrics.h"
#include "select/selectors.h"
#include "serve/frontend.h"
#include "serve/prediction_service.h"
#include "serve/reactor.h"
#include "serve/replication.h"
#include "serve/wire.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

using domd::Dataset;
using domd::JsonValue;
using domd::ScoreRequest;
using domd::ServePrediction;

namespace {

bool SamePrediction(const ServePrediction& a, const ServePrediction& b) {
  const auto same = [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  };
  if (a.avail_id != b.avail_id || !same(a.t_star, b.t_star) ||
      !same(a.estimate_days, b.estimate_days) ||
      !same(a.band_low, b.band_low) || !same(a.band_high, b.band_high) ||
      a.num_steps != b.num_steps ||
      a.top_features.size() != b.top_features.size() ||
      a.bundle_version != b.bundle_version) {
    return false;
  }
  for (std::size_t i = 0; i < a.top_features.size(); ++i) {
    if (a.top_features[i].feature_name != b.top_features[i].feature_name ||
        !same(a.top_features[i].contribution, b.top_features[i].contribution)) {
      return false;
    }
  }
  return true;
}

domd::obs::Histogram& RegistryHistogram(const std::string& id) {
  // Same bucket layout the program registers these series with.
  const bool sizes = id == "domd_serve_batch_size";
  return domd::obs::MetricsRegistry::Default().GetHistogram(
      id, sizes ? domd::obs::SizeBuckets() : domd::obs::LatencyBucketsMs());
}

double HistQuantile(const std::string& id, double q) {
  const domd::obs::Histogram& h = RegistryHistogram(id);
  return HistogramQuantile(h.upper_bounds(), h.BucketCounts(), q);
}

double HistMean(const std::string& id) {
  const domd::obs::Histogram& h = RegistryHistogram(id);
  return h.Count() == 0 ? 0.0 : h.Sum() / static_cast<double>(h.Count());
}

std::string Dir(const Context& ctx, const std::string& name) {
  const std::string dir = ctx.options.work_dir + "/replay/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// One in-process domd_serve shard: service + frontend + reactor, built
/// with domd_serve's default options.
struct LocalServer {
  std::unique_ptr<domd::PredictionService> service;
  std::unique_ptr<domd::ServeFrontend> frontend;
  std::unique_ptr<domd::Reactor> reactor;

  LocalServer(std::shared_ptr<const domd::ModelBundle> bundle, int port,
              domd::DataStore* store, domd::ReplicationManager* repl) {
    domd::ServeOptions options;  // defaults == domd_serve flag defaults.
    options.parallelism.num_threads = 0;
    service = std::make_unique<domd::PredictionService>(std::move(bundle),
                                                        options);
    domd::FrontendOptions frontend_options;
    frontend_options.parallelism.num_threads = 0;
    frontend_options.store = store;
    frontend_options.repl = repl;
    frontend = std::make_unique<domd::ServeFrontend>(service.get(),
                                                     frontend_options);
    domd::ReactorOptions reactor_options;
    reactor_options.port = port;
    auto created = domd::Reactor::Create(
        reactor_options,
        [f = frontend.get()](std::string line, domd::Responder responder) {
          f->Handle(std::move(line), std::move(responder));
        });
    if (created.ok()) reactor = std::move(*created);
  }
  ~LocalServer() {
    reactor.reset();
    frontend.reset();
    if (service != nullptr) service->Shutdown();
  }
  int port() const { return reactor == nullptr ? 0 : reactor->port(); }
};

/// serve (batcher): the seed's detached requests submitted open-loop at
/// the detached workload's fixed rate into an in-process
/// PredictionService; the numbers come from the program's registry.
/// Returns the measured batch-size distribution.
std::vector<std::uint64_t> MeasureBatcher(const Context& ctx,
                                          const DetachedRequests& detached,
                                          Outcome* out) {
  domd::obs::MetricsRegistry::Default().Reset();
  domd::ServeOptions options;
  options.parallelism.num_threads = 0;
  domd::PredictionService service(ctx.bundle, options);
  const std::size_t n = std::max<std::size_t>(
      32, static_cast<std::size_t>(kDetachedFixedRps * 0.15 *
                                   ctx.options.seconds));
  std::mutex mu;
  std::condition_variable done_cv;
  std::size_t done = 0;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::nanoseconds(static_cast<std::int64_t>(
                    static_cast<double>(i) / kDetachedFixedRps * 1e9)));
    service.SubmitAsync(detached.Request(i), std::nullopt,
                        [&](domd::StatusOr<ServePrediction> result) {
                          std::lock_guard<std::mutex> lock(mu);
                          if (!result.ok()) ++out->failed;
                          ++done;
                          done_cv.notify_all();
                        });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    done_cv.wait(lock, [&] { return done == n; });
  }
  out->attempted += n;
  const domd::ServeStatsSnapshot stats = service.stats();
  service.Shutdown();
  out->Add("serve.queue_wait_p50_ms",
           HistQuantile("domd_serve_queue_wait_ms", 0.5), "ms", n);
  out->Add("serve.queue_wait_p99_ms",
           HistQuantile("domd_serve_queue_wait_ms", 0.99), "ms", n);
  out->Add("serve.batch_size_mean",
           stats.batches == 0 ? 0.0
                              : static_cast<double>(stats.batched_requests) /
                                    static_cast<double>(stats.batches),
           "count", stats.batches);
  out->Add("serve.batch_score_ms", HistMean("domd_serve_batch_score_ms"),
           "ms", stats.batches);
  return RegistryHistogram("domd_serve_batch_size").BucketCounts();
}

/// Batch sizes drawn from the measured bucket counts (uniform inside a
/// bucket's (lower, upper] range).
std::vector<std::size_t> DrawBatchSizes(
    const std::vector<std::uint64_t>& counts, std::size_t batches,
    std::uint64_t seed) {
  const std::vector<double>& bounds = domd::obs::SizeBuckets();
  std::vector<double> weights(bounds.size(), 0.0);
  for (std::size_t i = 0; i < bounds.size() && i < counts.size(); ++i) {
    weights[i] = static_cast<double>(counts[i]);
  }
  bool any = false;
  for (double w : weights) any = any || w > 0;
  if (!any) weights[0] = 1.0;
  domd::Rng rng = domd::Rng::ForStream(seed, 7);
  std::vector<std::size_t> sizes;
  for (std::size_t b = 0; b < batches; ++b) {
    const std::size_t bucket = rng.Categorical(weights);
    const auto lo =
        static_cast<std::int64_t>(bucket == 0 ? 0 : bounds[bucket - 1]);
    const auto hi = static_cast<std::int64_t>(bounds[bucket]);
    sizes.push_back(static_cast<std::size_t>(rng.UniformInt(lo + 1, hi)));
  }
  return sizes;
}

/// Replays detached batches through the layers ModelBundle::ScoreBatch
/// calls, after timing the untraced ScoreBatch on the same batch.
void ReplayDetached(const Context& ctx, const DetachedRequests& detached,
                    const std::vector<std::size_t>& sizes,
                    TraceRecorder* rec, Outcome* out) {
  const domd::ModelBundle& bundle = *ctx.bundle;
  domd::Parallelism par;
  par.num_threads = 0;
  const domd::TimelineModelSet& models = bundle.estimator().models();
  double untraced_ms = 0.0;
  std::size_t steps_used = 0;
  std::size_t steps_scored = 0;
  std::size_t mismatches = 0;
  std::size_t next = 0;
  for (std::size_t b = 0; b < sizes.size(); ++b) {
    const auto request_id = static_cast<std::int64_t>(b + 1);
    std::vector<ScoreRequest> batch;
    std::vector<const std::string*> lines;
    for (std::size_t i = 0; i < sizes[b]; ++i, ++next) {
      batch.push_back(detached.Request(next));
      lines.push_back(&detached.Line(next));
    }
    // One untimed pass warms the caches for both timed ones.
    (void)bundle.ScoreBatch(batch, par);
    const Clock::time_point t0 = Clock::now();
    const auto expected = bundle.ScoreBatch(batch, par);
    untraced_ms += MsBetween(t0, Clock::now());

    ScopedSpan root(rec, "serve.batch", request_id);
    std::vector<ScoreRequest> parsed;
    for (const std::string* line : lines) {
      ScopedSpan span(rec, "serve.parse", request_id);
      auto json = JsonValue::Parse(*line);
      auto request = json.ok() ? domd::ParseScoreRequest(*json)
                               : domd::StatusOr<ScoreRequest>(json.status());
      if (request.ok()) parsed.push_back(std::move(*request));
    }
    std::vector<ServePrediction> replayed;
    {
      ScopedSpan score(rec, "serve.score", request_id);
      {
        ScopedSpan span(rec, "data.integrity", request_id);
        for (const ScoreRequest& r : parsed) {
          if (!domd::CheckRequestIntegrity(r.avail, r.rccs).ok()) ++mismatches;
        }
      }
      Dataset data;
      std::vector<std::int64_t> ids;
      {
        ScopedSpan span(rec, "data.assemble", request_id);
        std::int64_t next_rcc = 1;
        for (const ScoreRequest& r : parsed) {
          const auto temp_id = static_cast<std::int64_t>(ids.size()) + 1;
          domd::Avail avail = r.avail;
          avail.id = temp_id;
          (void)data.avails.Add(std::move(avail));
          for (const domd::Rcc& original : r.rccs) {
            domd::Rcc rcc = original;
            rcc.id = next_rcc++;
            rcc.avail_id = temp_id;
            (void)data.rccs.Add(std::move(rcc));
          }
          ids.push_back(temp_id);
        }
      }
      std::unique_ptr<domd::FeatureEngineer> engineer;
      {
        ScopedSpan span(rec, "features.catalog", request_id);
        engineer = std::make_unique<domd::FeatureEngineer>(&data);
      }
      domd::ModelingView view;
      view.avail_ids = ids;
      {
        ScopedSpan span(rec, "features.static", request_id);
        view.static_x = domd::BuildStaticFeatures(data.avails, ids);
      }
      {
        ScopedSpan span(rec, "features.sweep", request_id);
        view.dynamic = engineer->ComputeIncremental(ids, bundle.grid(), par);
      }
      view.labels.assign(ids.size(), 0.0);
      for (std::size_t i = 0; i < ids.size(); ++i) {
        const auto avail = data.avails.Find(ids[i]);
        if (avail.ok() && (*avail)->delay().has_value()) {
          view.labels[i] = static_cast<double>(*(*avail)->delay());
        }
      }
      {
        ScopedSpan span(rec, "features.columnar", request_id);
        view.columnar = domd::ColumnarView::Build(
            view.static_x, view.dynamic, domd::kDefaultFrameBins, par);
      }
      std::vector<std::vector<double>> per_step_all;
      {
        ScopedSpan span(rec, "core.predict_steps", request_id);
        per_step_all = models.PredictPerStep(view);
      }
      for (std::size_t row = 0; row < parsed.size(); ++row) {
        const ScoreRequest& r = parsed[row];
        int last_step = domd::GridIndexAtOrBefore(bundle.grid(), r.t_star);
        if (last_step < 0) last_step = 0;
        const auto last = static_cast<std::size_t>(last_step);
        steps_used += last + 1;
        steps_scored += per_step_all.size();
        ServePrediction p;
        p.avail_id = r.avail.id;
        p.t_star = r.t_star;
        p.bundle_version = bundle.version();
        {
          ScopedSpan span(rec, "core.fuse", request_id);
          std::vector<double> per_step;
          for (std::size_t step = 0; step <= last; ++step) {
            per_step.push_back(per_step_all[step][row]);
          }
          p.num_steps = per_step.size();
          p.estimate_days =
              domd::FusePredictions(bundle.config().fusion, per_step);
          p.band_low = *std::min_element(per_step.begin(), per_step.end());
          p.band_high = *std::max_element(per_step.begin(), per_step.end());
        }
        {
          ScopedSpan span(rec, "ml.attribution", request_id);
          const std::vector<double> input =
              models.BuildInputRow(view, row, last);
          p.top_features = domd::TopContributions(
              models.model(last), input, models.input_names(last), r.top_k);
        }
        replayed.push_back(std::move(p));
      }
    }
    for (const ServePrediction& p : replayed) {
      ScopedSpan span(rec, "serve.serialize", request_id);
      const std::string wire = domd::PredictionToJson(p, 0.0).Serialize();
      if (wire.empty()) ++mismatches;
    }
    // The replay must be bit-identical to ScoreBatch.
    if (replayed.size() != expected.size()) ++mismatches;
    for (std::size_t i = 0; i < replayed.size() && i < expected.size(); ++i) {
      if (!expected[i].ok() || !SamePrediction(replayed[i], *expected[i])) {
        ++mismatches;
      }
    }
  }
  out->attempted += next;
  out->failed += mismatches;
  out->Note("replay detached: " + std::to_string(sizes.size()) +
            " batches, " + std::to_string(next) + " requests, " +
            std::to_string(mismatches) + " differ from ScoreBatch");

  out->Add("serve.parse_ms", rec->MedianDuration("serve.parse"), "ms", next);
  out->Add("serve.serialize_ms", rec->MedianDuration("serve.serialize"), "ms",
           next);
  const std::size_t nb = sizes.size();
  for (const auto& [metric, span] :
       std::vector<std::pair<std::string, std::string>>{
           {"data.integrity_ms", "data.integrity"},
           {"data.assemble_ms", "data.assemble"},
           {"features.catalog_ms", "features.catalog"},
           {"features.static_ms", "features.static"},
           {"features.sweep_ms", "features.sweep"},
           {"features.columnar_ms", "features.columnar"},
           {"core.predict_steps_ms", "core.predict_steps"}}) {
    out->Add(metric, rec->MedianDuration(span), "ms", nb);
  }
  out->Add("core.fuse_ms", rec->MedianDuration("core.fuse"), "ms", next);
  out->Add("ml.attribution_ms", rec->MedianDuration("ml.attribution"), "ms",
           next);
  out->Add("core.steps_used_ratio",
           steps_scored == 0 ? 0.0
                             : static_cast<double>(steps_used) /
                                   static_cast<double>(steps_scored),
           "ratio", next);
  const std::vector<std::string> layers = {
      "serve.score",       "data.integrity",   "data.assemble",
      "features.catalog",  "features.static",  "features.sweep",
      "features.columnar", "core.predict_steps", "core.fuse",
      "ml.attribution"};
  out->Add("trace.coverage", rec->SumSelf(layers) / untraced_ms, "ratio", nb);
  out->Add("trace.overhead",
           rec->SumDuration("serve.score") / untraced_ms - 1.0,
           "ratio", nb);
}

void ReplayReference(const Context& ctx, const ReferenceRequests& refs,
                     TraceRecorder* rec, Outcome* out) {
  const std::size_t n = 2000;
  std::size_t failed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ScopedSpan span(rec, "core.reference", static_cast<std::int64_t>(i));
    if (!ctx.bundle->ScoreReferenceAvail(refs.AvailId(i), refs.Key(i).t_star, 5)
             .ok()) {
      ++failed;
    }
  }
  out->attempted += n;
  out->failed += failed;
  out->Add("core.reference_ms", rec->MedianDuration("core.reference"), "ms", n);
}

/// cluster: two in-process shards behind an in-process ClusterRouter.
void ReplayCluster(const Context& ctx, const ReferenceRequests& refs,
                   TraceRecorder* rec, Outcome* out) {
  LocalServer shard0(ctx.bundle, 0, nullptr, nullptr);
  LocalServer shard1(ctx.bundle, 0, nullptr, nullptr);
  const std::string spec =
      "{\"vnodes\": 64, \"shards\": [{\"id\": 0, \"replicas\": "
      "[\"127.0.0.1:" + std::to_string(shard0.port()) +
      "\"]}, {\"id\": 1, \"replicas\": [\"127.0.0.1:" +
      std::to_string(shard1.port()) + "\"]}]}";
  auto host_map = domd::cluster::HostMap::Parse(spec);
  if (!host_map.ok() || shard0.port() == 0 || shard1.port() == 0) {
    ++out->failed;
    return;
  }
  const domd::cluster::HashRing ring = host_map->ring();
  const std::vector<domd::cluster::ShardSpec> shards = host_map->shards();
  domd::cluster::ClusterRouter router(std::move(*host_map),
                                      domd::cluster::RouterOptions{});
  router.ProbeOnce();
  domd::ReactorOptions reactor_options;
  auto reactor = domd::Reactor::Create(
      reactor_options, [&router](std::string line, domd::Responder r) {
        router.Handle(std::move(line), std::move(r));
      });
  if (!reactor.ok()) {
    ++out->failed;
    return;
  }
  const domd::cluster::Endpoint router_endpoint{"127.0.0.1",
                                                (*reactor)->port()};

  // Ring lookups: too short to time one by one, so blocks of 1000.
  std::vector<std::size_t> owned(2, 0);
  const std::size_t lookups = 20000;
  for (std::size_t block = 0; block < lookups / 1000; ++block) {
    ScopedSpan span(rec, "cluster.ring_lookup_x1000",
                    static_cast<std::int64_t>(block));
    for (std::size_t i = block * 1000; i < (block + 1) * 1000; ++i) {
      const auto replicas = ring.ReplicasFor(
          domd::cluster::KeyForAvail(refs.AvailId(i)), 1);
      if (!replicas.empty()) ++owned[static_cast<std::size_t>(replicas[0])];
    }
  }
  out->Add("cluster.ring_lookup_us",
           rec->MedianDuration("cluster.ring_lookup_x1000"), "us", lookups);
  const double mean_owned = static_cast<double>(owned[0] + owned[1]) / 2.0;
  out->Add("cluster.shard_skew",
           static_cast<double>(std::max(owned[0], owned[1])) / mean_owned,
           "ratio", lookups);

  // Direct-to-shard and routed round trips, interleaved at one pace.
  domd::cluster::UpstreamPool pool;
  const std::size_t n = 1000;
  const double pace_rps = 1000.0;
  std::size_t wrong = 0;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::nanoseconds(static_cast<std::int64_t>(
                    static_cast<double>(i) / pace_rps * 1e9)));
    std::string line = refs.Line(i);
    line.pop_back();
    const int owner = ring.OwnerOf(domd::cluster::KeyForAvail(refs.AvailId(i)));
    const domd::cluster::Endpoint& shard =
        shards[static_cast<std::size_t>(owner)].replicas[0];
    const auto deadline = Clock::now() + std::chrono::seconds(5);
    auto expected =
        ctx.bundle->ScoreReferenceAvail(refs.AvailId(i), refs.Key(i).t_star, 5);
    domd::StatusOr<std::string> direct = domd::Status::Internal("unsent");
    {
      ScopedSpan span(rec, "cluster.upstream_rpc",
                      static_cast<std::int64_t>(i));
      direct = pool.Rpc(shard, line, deadline);
    }
    domd::StatusOr<std::string> routed = domd::Status::Internal("unsent");
    {
      ScopedSpan span(rec, "cluster.routed_rpc", static_cast<std::int64_t>(i));
      routed = pool.Rpc(router_endpoint, line, deadline);
    }
    if (!expected.ok() || !direct.ok() || !routed.ok() ||
        !PredictionMatches(*direct, *expected) ||
        !PredictionMatches(*routed, *expected)) {
      ++wrong;
    }
  }
  out->attempted += 2 * n;
  out->failed += wrong;
  const double direct_ms = rec->MedianDuration("cluster.upstream_rpc");
  out->Add("cluster.upstream_rpc_ms", direct_ms, "ms", n);
  out->Add("cluster.router_overhead_ms",
           rec->MedianDuration("cluster.routed_rpc") - direct_ms, "ms", n);
  const domd::cluster::RouterStatsSnapshot stats = router.stats();
  out->Add("cluster.hedge_ratio",
           stats.routed == 0 ? 0.0
                             : static_cast<double>(stats.hedged) /
                                   static_cast<double>(stats.routed),
           "ratio", stats.routed);
  out->Add("cluster.rejected", static_cast<double>(stats.rejected_overload),
           "count", stats.routed);
  pool.CloseIdle();
  reactor->reset();
}

/// ingest + repl + serve (worker): an in-process quorum-2 primary and
/// follower. The first part goes over the wire untraced (ack latency with
/// freshness probes on the same worker); the rest replays the ingest
/// verb's calls with spans.
std::shared_ptr<const domd::DataSnapshot> ReplayIngest(
    const Context& ctx, const std::vector<IngestBatch>& batches,
    TraceRecorder* rec, Outcome* out) {
  const std::string dir = Dir(ctx, "ingest");
  const int primary_port = PickFreePort();
  const int follower_port = PickFreePort();
  domd::DataStoreOptions store_options;
  store_options.merge_threshold = kMergeThreshold;
  store_options.log_path = dir + "/follower.log";
  auto follower_store = domd::DataStore::Open(ctx.fleet(), store_options);
  store_options.log_path = dir + "/primary.log";
  auto primary_store = domd::DataStore::Open(ctx.fleet(), store_options);
  domd::IngestLog::ReplayResult replayed;
  auto scratch_log = domd::IngestLog::Open(dir + "/scratch.log", &replayed);
  if (!follower_store.ok() || !primary_store.ok() || !scratch_log.ok()) {
    ++out->failed;
    return nullptr;
  }
  domd::ReplicationOptions follower_repl;
  follower_repl.peers = {{"127.0.0.1", primary_port}};
  follower_repl.quorum = 2;
  domd::ReplicationManager follower_manager(follower_store->get(),
                                            follower_repl);
  domd::ReplicationOptions primary_repl;
  primary_repl.peers = {{"127.0.0.1", follower_port}};
  primary_repl.quorum = 2;
  primary_repl.start_primary = true;
  domd::ReplicationManager primary_manager(primary_store->get(), primary_repl);
  LocalServer follower(ctx.bundle, follower_port, follower_store->get(),
                       &follower_manager);
  LocalServer primary(ctx.bundle, primary_port, primary_store->get(),
                      &primary_manager);
  if (follower.port() == 0 || primary.port() == 0 ||
      !primary_manager.EnsurePrimary().ok()) {
    ++out->failed;
    return nullptr;
  }

  // Untraced: ingest at the workload's fixed rate beside freshness probes.
  std::size_t next = 0;
  double untraced_ack_p50 = 0.0;
  {
    OpenLoopClient client(primary.port(), 2);
    const std::string freshness = "{\"cmd\":\"freshness\"}\n";
    LoadStream ingest{kIngestFixedRps, {0},
                      [&](std::size_t i) -> const std::string& {
                        return batches[i].line;
                      },
                      0};
    LoadStream fresh{kFreshnessRps, {1},
                     [&](std::size_t) -> const std::string& {
                       return freshness;
                     },
                     0};
    const auto r = client.Run({ingest, fresh}, 0.15 * ctx.options.seconds,
                              10000.0, true);
    for (const std::string& response : r[0].responses) {
      if (response.rfind("{\"ok\":true", 0) != 0) ++out->failed;
    }
    out->attempted += r[0].index.size() + r[1].index.size();
    next = r[0].index.size();
    untraced_ack_p50 = Median(r[0].latency_ms);
  }

  // Traced: the ingest verb's calls, in its order.
  const std::size_t traced = 100;
  std::vector<double> pending;
  std::vector<double> lag;
  domd::DataStore& store = **primary_store;
  for (std::size_t b = next; b < next + traced; ++b) {
    const auto request_id = static_cast<std::int64_t>(b + 1);
    ScopedSpan root(rec, "ingest.batch", request_id);
    domd::StatusOr<std::vector<domd::IngestMutation>> mutations =
        domd::Status::Internal("unparsed");
    {
      ScopedSpan span(rec, "serve.ingest_parse", request_id);
      auto json = JsonValue::Parse(batches[b].line);
      if (json.ok()) mutations = domd::ParseIngestMutations(*json);
    }
    if (!mutations.ok()) {
      ++out->failed;
      continue;
    }
    std::uint64_t last_seq = 0;
    domd::Status status;
    {
      ScopedSpan span(rec, "ingest.append", request_id);
      status = store.AppendBatch(*mutations, &last_seq);
    }
    {
      ScopedSpan span(rec, "repl.quorum_wait", request_id);
      std::vector<std::string> payloads;
      for (const domd::IngestMutation& m : *mutations) {
        payloads.push_back(domd::EncodeMutation(m));
      }
      primary_manager.QueueBatch(last_seq - mutations->size() + 1,
                                 std::move(payloads));
      if (status.ok()) status = primary_manager.AwaitQuorum(last_seq);
    }
    std::shared_ptr<const domd::DataSnapshot> snapshot;
    {
      ScopedSpan span(rec, "ingest.snapshot", request_id);
      snapshot = store.Snapshot();
    }
    pending.push_back(static_cast<double>(store.stats().pending));
    lag.push_back(static_cast<double>(primary_manager.lag()));
    if (b % 10 == 0) {
      ScopedSpan span(rec, "cache.fingerprint", request_id);
      (void)domd::ComputeDatasetFingerprint(snapshot->data());
    }
    {
      ScopedSpan span(rec, "ingest.log_fsync", request_id);
      if (!(*scratch_log)->AppendBatch(*mutations).ok()) {
        status = domd::Status::IoError("scratch log");
      }
    }
    if (!status.ok()) ++out->failed;
  }
  out->attempted += traced;
  {
    ScopedSpan span(rec, "ingest.merge", 0);
    if (!store.Merge().ok()) ++out->failed;
  }
  const domd::IngestStats stats = store.stats();

  const double parse = rec->MedianDuration("serve.ingest_parse");
  const double append = rec->MedianDuration("ingest.append");
  const double quorum = rec->MedianDuration("repl.quorum_wait");
  out->Add("ingest.append_ms", append, "ms", traced);
  out->Add("ingest.log_fsync_ms", rec->MedianDuration("ingest.log_fsync"), "ms",
           traced);
  out->Add("ingest.snapshot_ms", rec->MedianDuration("ingest.snapshot"), "ms",
           traced);
  out->Add("ingest.pending_depth", Median(pending), "count", traced);
  out->Add("ingest.merge_ms", rec->MedianDuration("ingest.merge"), "ms", 1);
  out->Add("ingest.merges", static_cast<double>(stats.merges), "count", 1);
  out->Add("repl.quorum_wait_ms", quorum, "ms", traced);
  out->Add("repl.lag_records", Percentile(lag, 99), "count", traced);
  out->Add("cache.fingerprint_ms", rec->MedianDuration("cache.fingerprint"),
           "ms", traced / 10);
  // What the untraced ack spent beyond the verb's own calls: waiting for
  // the worker behind freshness probes.
  const double snapshot = rec->MedianDuration("ingest.snapshot");
  out->Add("serve.worker_wait_ms",
           untraced_ack_p50 - parse - append - quorum - snapshot, "ms", next);
  return store.Snapshot();
}

/// select / ml (fit) / bundle / cache: the retrain verb's path over the
/// snapshot the ingest replay left behind.
void ReplayRetrain(const Context& ctx,
                   std::shared_ptr<const domd::DataSnapshot> snapshot,
                   TraceRecorder* rec, Outcome* out) {
  domd::ViewCache::Default().ResetCounters();
  domd::obs::MetricsRegistry::Default().Reset();
  domd::PipelineConfig config = ctx.bundle->config();
  config.parallelism.num_threads = 0;
  const Dataset& data = snapshot->data();
  std::vector<std::int64_t> all_ids;
  std::vector<std::int64_t> train_ids;
  for (const domd::Avail& a : data.avails.rows()) {
    all_ids.push_back(a.id);
    if (a.delay().has_value()) train_ids.push_back(a.id);
  }
  const std::int64_t rid = 1;

  // The view build and fit, replayed step by step as DomdEstimator::Train
  // performs them.
  const domd::FeatureEngineer engineer(&data);
  const std::vector<double> grid =
      domd::LogicalTimeGrid(config.window_width_pct);
  domd::ModelingView all;
  {
    ScopedSpan span(rec, "features.build_view", rid);
    all = domd::BuildModelingView(data, engineer, all_ids, grid,
                                  config.parallelism);
  }
  domd::ModelingView train;
  train.avail_ids = train_ids;
  auto dynamic = all.dynamic.SelectAvails(train_ids);
  if (!dynamic.ok()) {
    ++out->failed;
    return;
  }
  train.dynamic = std::move(*dynamic);
  std::vector<std::size_t> rows;
  for (std::int64_t id : train_ids) {
    rows.push_back(static_cast<std::size_t>(all.dynamic.RowOf(id)));
  }
  train.static_x = all.static_x.SelectRows(rows);
  for (std::size_t r : rows) train.labels.push_back(all.labels[r]);
  train.columnar = domd::ColumnarView::Build(
      train.static_x, train.dynamic, domd::kDefaultFrameBins,
      config.parallelism);
  const auto selector = domd::CreateSelector(config.selection, config.seed);
  for (std::size_t step = 0; step < train.num_steps(); ++step) {
    ScopedSpan span(rec, "select.topk", static_cast<std::int64_t>(step));
    (void)selector->SelectTopK(train.dynamic.slice(step), train.labels,
                               config.num_features);
  }
  std::vector<std::string> names;
  for (const domd::FeatureDef& def : engineer.catalog().features()) {
    names.push_back(def.name);
  }
  domd::TimelineModelSet models;
  {
    ScopedSpan span(rec, "core.fit", rid);
    if (!models.Fit(config, train, names).ok()) ++out->failed;
  }
  out->Add("features.build_view_ms", rec->MedianDuration("features.build_view"),
           "ms", 1);
  out->Add("select.topk_ms", rec->MedianDuration("select.topk"), "ms",
           train.num_steps());
  out->Add("core.fit_ms", rec->MedianDuration("core.fit"), "ms", 1);
  out->Add("ml.gbt_fit_ms",
           RegistryHistogram("domd_span_duration_ms{span=\"gbt.fit\"}").Sum(),
           "ms", 1);
  out->Add("ml.split_search_ms",
           RegistryHistogram("domd_span_duration_ms{span=\"gbt.split_search\"}")
                   .Sum(),
           "ms", 1);

  // The program's own calls: Train, then bundle write and load.
  domd::StatusOr<domd::DomdEstimator> estimator =
      domd::Status::Internal("untrained");
  {
    ScopedSpan span(rec, "core.train", rid);
    estimator = domd::DomdEstimator::Train(snapshot, config, train_ids);
  }
  if (!estimator.ok()) {
    ++out->failed;
    return;
  }
  const std::string dir = Dir(ctx, "retrain") + "/bundle";
  domd::Status written;
  {
    ScopedSpan span(rec, "serve.bundle_write", rid);
    written = domd::ModelBundle::Write(*estimator, data, dir, "replay");
  }
  domd::StatusOr<std::shared_ptr<const domd::ModelBundle>> loaded =
      domd::Status::Internal("unloaded");
  {
    ScopedSpan span(rec, "serve.bundle_load", rid);
    if (written.ok()) loaded = domd::ModelBundle::Load(dir, config.parallelism);
  }
  std::size_t wrong = 0;
  if (!loaded.ok()) {
    ++wrong;
  } else {
    // The loaded bundle answers like the estimator it was written from.
    for (std::size_t i = 0; i < 11; ++i) {
      const std::int64_t id = all_ids[i % all_ids.size()];
      const double t = 10.0 * static_cast<double>(i);
      auto got = (*loaded)->ScoreReferenceAvail(id, t, 5);
      auto want = ReferencePrediction(*estimator, id, t, "replay");
      if (!got.ok() || !want.ok() || !SamePrediction(*got, *want)) ++wrong;
    }
  }
  out->attempted += 12;
  out->failed += wrong;
  out->Add("serve.bundle_write_ms", rec->MedianDuration("serve.bundle_write"),
           "ms", 1);
  out->Add("serve.bundle_load_ms", rec->MedianDuration("serve.bundle_load"),
           "ms", 1);
  const domd::ViewCacheStats cache = domd::ViewCache::Default().Stats();
  out->Add("cache.view_hit_ratio", cache.HitRatio(), "ratio",
           cache.hits + cache.misses);
}

}  // namespace

void RunLayerReplay(const Context& ctx, Outcome* out) {
  TraceRecorder rec;
  const DetachedRequests detached(ctx.fleet(), ctx.options.seed,
                                  kDetachedStreamLength);
  const ReferenceRequests refs(ctx.fleet(), ctx.options.seed,
                               kRoutedStreamLength, kRoutedZipfS);
  const std::vector<IngestBatch> batches = MakeIngestBatches(
      ctx.fleet(), ctx.options.seed, kIngestStreamLength, kIngestRowsPerBatch,
      kIngestUpdateShare);

  const std::vector<std::uint64_t> batch_sizes =
      MeasureBatcher(ctx, detached, out);
  ReplayDetached(ctx, detached,
                 DrawBatchSizes(batch_sizes, 24, ctx.options.seed), &rec, out);
  ReplayReference(ctx, refs, &rec, out);
  ReplayCluster(ctx, refs, &rec, out);
  auto snapshot = ReplayIngest(ctx, batches, &rec, out);
  if (snapshot != nullptr) ReplayRetrain(ctx, snapshot, &rec, out);

  const std::string path = ctx.options.work_dir + "/trace-" +
                           ctx.options.workload + "-" +
                           std::to_string(ctx.options.seed) + ".json";
  if (rec.WriteJson(path)) {
    out->Note("trace spans written to " + path);
  } else {
    ++out->failed;
  }
  for (const auto& [name, metric] : out->metrics) {
    char line[256];
    std::snprintf(line, sizeof(line), "layer %-28s %14.6f %-6s n=%zu",
                  name.c_str(), metric.value, metric.unit.c_str(),
                  metric.samples);
    out->Note(line);
  }
}

}  // namespace perfbench
