// Index explorer: walks through the Status Query machinery of §4 — the
// three logical-time index backends, the four retrieval sets (Eq. 3-6),
// Algorithm StatusQ group-bys, and the incremental StatStructure sweep —
// on a Table-5-scale synthetic dataset.

#include <chrono>
#include <cstdio>

#include "data/logical_time.h"
#include "query/stat_structure.h"
#include "query/status_query.h"
#include "synth/generator.h"

int main() {
  using namespace domd;

  const Dataset data = GenerateDataset(ScalabilityConfig(42));
  std::printf("dataset: %zu avails, %zu RCCs (Table-5 scale)\n\n",
              data.avails.size(), data.rccs.size());

  // --- The four retrieval sets on each backend ---
  const auto entries = BuildIndexEntries(data);
  std::printf("retrieval sets at t* = 50%% (Eq. 3-6):\n");
  std::printf("%-14s %10s %10s %10s %12s %12s\n", "backend", "active",
              "settled", "created", "not-created", "memory MB");
  for (IndexBackend backend :
       {IndexBackend::kNaiveJoin, IndexBackend::kAvlTree,
        IndexBackend::kIntervalTree}) {
    auto index = MakeLogicalTimeIndex(backend);
    index->Build(entries);
    std::vector<std::int64_t> ids;
    index->Collect(RccStatusCategory::kNotCreated, 50.0, &ids);
    std::printf("%-14s %10zu %10zu %10zu %12zu %12.1f\n",
                IndexBackendToString(backend), index->CountActive(50.0),
                index->CountSettled(50.0), index->CountCreated(50.0),
                ids.size(),
                static_cast<double>(index->MemoryUsageBytes()) / 1048576.0);
  }

  // --- Algorithm StatusQ: grouped aggregates ---
  std::printf("\nAlgorithm StatusQ: settled dollar volume by RCC type and "
              "subsystem at t* = 75%%\n");
  StatusQueryEngine engine(&data, IndexBackend::kAvlTree);
  std::printf("%-6s", "");
  for (int subsystem = 1; subsystem <= 9; ++subsystem) {
    std::printf(" %9d", subsystem);
  }
  std::printf("\n");
  for (RccType type :
       {RccType::kGrowth, RccType::kNewWork, RccType::kNewGrowth}) {
    std::printf("%-6s", RccTypeToCode(type));
    for (int subsystem = 1; subsystem <= 9; ++subsystem) {
      StatusQuery query;
      query.category = RccStatusCategory::kSettled;
      query.type_filter = type;
      query.swlin_level = 1;
      query.swlin_prefix = subsystem;
      query.aggregate = AggregateFn::kSum;
      query.attribute = RccAttribute::kSettledAmount;
      const auto value = engine.Execute(query, 75.0);
      std::printf(" %8.1fM", value.ok() ? *value / 1e6 : -1.0);
    }
    std::printf("\n");
  }

  // --- Incremental computation (§4.3) ---
  std::printf("\nincremental sweep vs from-scratch queries "
              "(ALL-group created count per grid step):\n");
  const auto grid = LogicalTimeGrid(10.0);

  const auto t0 = std::chrono::steady_clock::now();
  StatStructure sweep(data);
  std::vector<std::size_t> incremental_counts;
  for (double t : grid) {
    sweep.AdvanceTo(t);
    std::size_t total = 0;
    for (const Avail& avail : data.avails.rows()) {
      total +=
          sweep.Get(avail.id, GroupSchema::Level1GroupId(0, 0)).created_count;
    }
    incremental_counts.push_back(total);
  }
  const auto t1 = std::chrono::steady_clock::now();

  std::vector<std::size_t> scratch_counts;
  for (double t : grid) {
    StatusQuery query;
    query.category = RccStatusCategory::kCreated;
    query.aggregate = AggregateFn::kCount;
    scratch_counts.push_back(
        static_cast<std::size_t>(*engine.Execute(query, t)));
  }
  const auto t2 = std::chrono::steady_clock::now();

  std::printf("%-8s %14s %14s\n", "t*(%)", "incremental", "from-scratch");
  for (std::size_t i = 0; i < grid.size(); ++i) {
    std::printf("%-8.0f %14zu %14zu%s\n", grid[i], incremental_counts[i],
                scratch_counts[i],
                incremental_counts[i] == scratch_counts[i] ? "" : "  <-- !");
  }
  std::printf("sweep time: incremental %.1f ms vs from-scratch %.1f ms\n",
              std::chrono::duration<double, std::milli>(t1 - t0).count(),
              std::chrono::duration<double, std::milli>(t2 - t1).count());
  return 0;
}
