#include "cache/view_cache.h"

#include "obs/metrics.h"

namespace domd {
namespace {

#if DOMD_OBS_COMPILED
void BumpObsCounter(const char* id, std::uint64_t delta = 1) {
  if (!obs::Enabled()) return;
  obs::MetricsRegistry::Default().GetCounter(id).Increment(delta);
}
#else
void BumpObsCounter(const char*, std::uint64_t = 1) {}
#endif

}  // namespace

ViewCacheKey MakeViewCacheKey(const Dataset& data,
                              const std::vector<std::int64_t>& avail_ids,
                              const std::vector<double>& grid) {
  ViewCacheKey key;
  key.dataset_fingerprint = DatasetFingerprint(data);
  key.ids_digest = DigestIds(avail_ids);
  key.grid_digest = DigestGrid(grid);
  key.catalog_version = FeatureCatalogVersion();
  return key;
}

std::size_t ApproxModelingViewBytes(const ModelingView& view) {
  std::size_t bytes = view.avail_ids.size() * sizeof(std::int64_t) +
                      view.labels.size() * sizeof(double) +
                      view.static_x.rows() * view.static_x.cols() *
                          sizeof(double);
  bytes += view.dynamic.time_grid().size() * sizeof(double);
  for (std::size_t step = 0; step < view.dynamic.num_steps(); ++step) {
    const Matrix& slice = view.dynamic.slice(step);
    bytes += slice.rows() * slice.cols() * sizeof(double);
  }
  return bytes;
}

ViewCache::ViewCache(std::size_t max_bytes, int num_shards)
    : num_shards_(num_shards < 1 ? 1 : static_cast<std::size_t>(num_shards)),
      max_bytes_(max_bytes),
      shards_(new Shard[num_shards < 1 ? 1 : num_shards]) {}

ViewCache& ViewCache::Default() {
  static ViewCache& cache = *new ViewCache(kDefaultViewCacheBytes);
  return cache;
}

void ViewCache::EvictOverBudget(Shard* shard, std::size_t budget) {
  while (shard->bytes > budget && !shard->lru.empty()) {
    const Entry& victim = shard->lru.back();
    shard->bytes -= victim.bytes;
    shard->by_key.erase(victim.key);
    shard->lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    BumpObsCounter("domd_view_cache_evictions_total");
  }
}

void ViewCache::PublishGauges() const {
#if DOMD_OBS_COMPILED
  if (!obs::Enabled()) return;
  const ViewCacheStats stats = Stats();
  auto& registry = obs::MetricsRegistry::Default();
  registry.GetGauge("domd_view_cache_bytes")
      .Set(static_cast<double>(stats.bytes));
  registry.GetGauge("domd_view_cache_entries")
      .Set(static_cast<double>(stats.entries));
#endif
}

std::shared_ptr<const ModelingView> ViewCache::Lookup(
    const ViewCacheKey& key) {
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mutex);
  auto it = shard.by_key.find(key);
  if (it == shard.by_key.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    BumpObsCounter("domd_view_cache_misses_total");
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_.fetch_add(1, std::memory_order_relaxed);
  BumpObsCounter("domd_view_cache_hits_total");
  return it->second->view;
}

std::shared_ptr<const ModelingView> ViewCache::GetOrBuild(
    const ViewCacheKey& key, const std::function<ModelingView()>& build) {
  if (max_bytes() == 0) {
    // Bypass: no retention, no lookup — but the miss still counts so hit
    // ratios compare cache-on vs cache-off runs on equal footing.
    misses_.fetch_add(1, std::memory_order_relaxed);
    BumpObsCounter("domd_view_cache_misses_total");
    return std::make_shared<const ModelingView>(build());
  }

  {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.by_key.find(key);
    if (it != shard.by_key.end()) {
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      hits_.fetch_add(1, std::memory_order_relaxed);
      BumpObsCounter("domd_view_cache_hits_total");
      return it->second->view;
    }
  }

  misses_.fetch_add(1, std::memory_order_relaxed);
  BumpObsCounter("domd_view_cache_misses_total");
  auto view = std::make_shared<const ModelingView>(build());

  Entry entry;
  entry.key = key;
  entry.view = view;
  entry.bytes = ApproxModelingViewBytes(*view);
  {
    Shard& shard = ShardFor(key);
    std::lock_guard<std::mutex> lock(shard.mutex);
    auto it = shard.by_key.find(key);
    if (it != shard.by_key.end()) {
      // A concurrent builder inserted first; adopt its snapshot so every
      // caller of this key shares one physical view.
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      return it->second->view;
    }
    shard.bytes += entry.bytes;
    shard.lru.push_front(std::move(entry));
    shard.by_key.emplace(key, shard.lru.begin());
    EvictOverBudget(&shard, PerShardBudget());
  }
  PublishGauges();
  return view;
}

void ViewCache::SetMaxBytes(std::size_t max_bytes) {
  max_bytes_.store(max_bytes, std::memory_order_relaxed);
  const std::size_t budget =
      max_bytes / static_cast<std::size_t>(num_shards_);
  for (std::size_t s = 0; s < num_shards_; ++s) {
    std::lock_guard<std::mutex> lock(shards_[s].mutex);
    EvictOverBudget(&shards_[s], budget);
  }
  PublishGauges();
}

ViewCacheStats ViewCache::Stats() const {
  ViewCacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  for (std::size_t s = 0; s < num_shards_; ++s) {
    std::lock_guard<std::mutex> lock(shards_[s].mutex);
    stats.bytes += shards_[s].bytes;
    stats.entries += shards_[s].lru.size();
  }
  return stats;
}

void ViewCache::Clear() {
  for (std::size_t s = 0; s < num_shards_; ++s) {
    std::lock_guard<std::mutex> lock(shards_[s].mutex);
    shards_[s].lru.clear();
    shards_[s].by_key.clear();
    shards_[s].bytes = 0;
  }
  PublishGauges();
}

void ViewCache::ResetCounters() {
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  evictions_.store(0, std::memory_order_relaxed);
}

std::shared_ptr<const ModelingView> BuildModelingViewShared(
    const Dataset& data, const FeatureEngineer& engineer,
    const std::vector<std::int64_t>& avail_ids,
    const std::vector<double>& grid, const Parallelism& parallelism,
    std::size_t cache_bytes, ViewCache* cache) {
  if (cache == nullptr) cache = &ViewCache::Default();
  cache->SetMaxBytes(cache_bytes);
  const ViewCacheKey key = MakeViewCacheKey(data, avail_ids, grid);
  return cache->GetOrBuild(key, [&] {
    return BuildModelingView(data, engineer, avail_ids, grid, parallelism);
  });
}

}  // namespace domd
