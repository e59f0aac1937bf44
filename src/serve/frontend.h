#ifndef DOMD_SERVE_FRONTEND_H_
#define DOMD_SERVE_FRONTEND_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "ingest/data_store.h"
#include "serve/dispatcher.h"
#include "serve/prediction_service.h"
#include "serve/reactor.h"
#include "serve/replication.h"

namespace domd {

/// Knobs the verb router needs beyond the PredictionService itself.
struct FrontendOptions {
  Parallelism parallelism;
  std::size_t cache_bytes = kDefaultViewCacheBytes;
  RetryOptions load_retry;
  /// Where `stage` copies incoming bundles. Empty picks a process-unique
  /// temp directory (pid + frontend instance), so co-located shards never
  /// stage onto each other's copies.
  std::string stage_root;
  /// Optional streaming-ingestion store (not owned; must outlive the
  /// frontend). When set, the frontend registers the `ingest` and
  /// `freshness` verbs over it — and, when retrain_root is also set, the
  /// `retrain` verb that trains a fresh bundle from a consistent snapshot
  /// and hot-swaps it through the usual swap machinery.
  DataStore* store = nullptr;
  /// Directory `retrain` writes new bundle versions under.
  std::string retrain_root;
  /// Optional ingest replication layer (not owned; must outlive the
  /// frontend; requires `store`). When set, the frontend registers the
  /// `replicate` and `catchup` verbs, `ingest` promotes-then-awaits-quorum
  /// through it, and `health`/`stats` report the replication role and lag.
  /// When null, every response stays byte-identical to the un-replicated
  /// server's.
  ReplicationManager* repl = nullptr;
};

/// The NDJSON verb table of domd_serve, factored out of the binary so the
/// chaos tests and the bench drive the exact request handling the server
/// runs. It plugs into a Reactor as its Handler:
///
///   reactor = Reactor::Create(opts, [&f](std::string line, Responder r) {
///     f.Handle(std::move(line), std::move(r));
///   });
///
/// It registers the shard's verbs in a VerbDispatcher, as ClusterRouter
/// does. Inline: ping/stats/health/metrics/shutdown and scoring (no `cmd`;
/// detached requests go through PredictionService::SubmitAsync). One
/// worker thread, unbounded queue: swap/stage/ingest/freshness/replicate/
/// catchup (disk I/O, fsync). The slow-worker thread: retrain.
///
/// `stage` is the per-shard half of a coordinated cluster rollout
/// (DESIGN.md §12): it copies the named bundle crash-safely into this
/// shard's stage_root, fully loads and validates the copy, and parks the
/// loaded bundle so a later `swap` onto the staged directory flips
/// instantly without re-reading disk. A failed stage leaves the live
/// bundle untouched.
///
/// With a DataStore attached (DESIGN.md §14), `ingest` appends mutations
/// durably, `freshness` reports the live bundle's data epoch against the
/// store's, and `retrain` closes the loop: pin a snapshot, train, write a
/// new bundle version, hot-swap.
class ServeFrontend {
 public:
  ServeFrontend(PredictionService* service, FrontendOptions options);

  ServeFrontend(const ServeFrontend&) = delete;
  ServeFrontend& operator=(const ServeFrontend&) = delete;

  /// Routes one request line; always answers via `responder`, exactly once.
  void Handle(std::string line, Responder responder) {
    dispatcher_.Handle(std::move(line), std::move(responder));
  }

 private:
  void RegisterVerbs();
  void RunScore(const VerbRequest& request, Responder responder);
  void RunSwap(const JsonValue& request, Responder responder);
  void RunStage(const JsonValue& request, Responder responder);
  void RunIngest(const JsonValue& request, Responder responder);
  void RunRetrain(const JsonValue& request, Responder responder);

  PredictionService* const service_;
  const FrontendOptions options_;
  const std::string stage_root_;  ///< resolved from options_.stage_root.

  /// Staged bundles by their staged directory, kept loaded so the flip
  /// half of a rollout swaps without touching disk.
  std::mutex staged_mutex_;
  std::map<std::string, std::shared_ptr<const ModelBundle>> staged_;
  VerbDispatcher dispatcher_;  ///< last: drained before what it touches.
};

}  // namespace domd

#endif  // DOMD_SERVE_FRONTEND_H_
