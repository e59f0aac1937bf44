// Reproduces Fig. 5b (Status Query processing time over the logical
// timeline) and Fig. 5c (index creation + query processing total time)
// across dataset scaling factors, comparing the naive materialized join,
// the AVL and interval tree indexes, and the AVL index with incremental
// computation (Algorithm StatusQ with StatStructure reuse, §4.3).

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_common.h"
#include "query/stat_structure.h"
#include "query/status_query.h"

namespace domd {
namespace {

constexpr int kScales[] = {1, 5, 10, 15, 20};

// The sweep workload: at every grid point, aggregate (count, id-checksum)
// over the created and settled sets — the terminal step of a Status Query.
struct SweepResult {
  double checksum = 0.0;
};

// From-scratch sweep: re-collect the full prefix at every grid step.
SweepResult FromScratchSweep(const LogicalTimeIndex& index,
                             const std::vector<double>& grid) {
  SweepResult result;
  std::vector<std::int64_t> ids;
  for (double t : grid) {
    index.Collect(RccStatusCategory::kCreated, t, &ids);
    double sum = 0;
    for (std::int64_t id : ids) sum += static_cast<double>(id % 97);
    result.checksum += sum + static_cast<double>(ids.size());
    index.Collect(RccStatusCategory::kSettled, t, &ids);
    sum = 0;
    for (std::int64_t id : ids) sum += static_cast<double>(id % 97);
    result.checksum += sum + static_cast<double>(ids.size());
  }
  return result;
}

// Pre-sorted event arrays for the incremental method (its "index creation"
// phase: two sorts).
struct IncrementalPrep {
  std::vector<IndexEntry> by_start;
  std::vector<IndexEntry> by_end;
};

IncrementalPrep PrepareIncremental(const std::vector<IndexEntry>& entries) {
  IncrementalPrep prep;
  prep.by_start = entries;
  std::sort(prep.by_start.begin(), prep.by_start.end(),
            [](const IndexEntry& a, const IndexEntry& b) {
              return a.start < b.start;
            });
  prep.by_end = prep.by_start;
  std::sort(prep.by_end.begin(), prep.by_end.end(),
            [](const IndexEntry& a, const IndexEntry& b) {
              return a.end < b.end;
            });
  return prep;
}

// Incremental sweep (§4.3): between consecutive grid points only the new
// events are consumed; running aggregates carry over.
SweepResult IncrementalSweep(const IncrementalPrep& prep,
                             const std::vector<double>& grid) {
  const std::vector<IndexEntry>& by_start = prep.by_start;
  const std::vector<IndexEntry>& by_end = prep.by_end;
  SweepResult result;
  std::size_t created_pos = 0, settled_pos = 0;
  double created_sum = 0, settled_sum = 0;
  for (double t : grid) {
    while (created_pos < by_start.size() && by_start[created_pos].start <= t) {
      created_sum += static_cast<double>(by_start[created_pos].id % 97);
      ++created_pos;
    }
    while (settled_pos < by_end.size() && by_end[settled_pos].end <= t) {
      settled_sum += static_cast<double>(by_end[settled_pos].id % 97);
      ++settled_pos;
    }
    result.checksum += created_sum + static_cast<double>(created_pos);
    result.checksum += settled_sum + static_cast<double>(settled_pos);
  }
  return result;
}

void PrintFig5bAnd5c() {
  const std::vector<double> grid = LogicalTimeGrid(10.0);

  bench::Banner(
      "Fig. 5b: query processing time over the logical timeline "
      "(seconds, avg of 3)");
  std::printf("%-8s %14s %14s %14s %16s\n", "scale", "PandasMerge*",
              "AVLTree", "IntervalTree", "AVL+Incremental");

  struct Row {
    double query[4];
    double creation[4];
  };
  std::vector<Row> rows;

  for (int scale : kScales) {
    const auto entries = bench::ScaledScalabilityEntries(scale);
    Row row{};
    int column = 0;
    for (IndexBackend backend :
         {IndexBackend::kNaiveJoin, IndexBackend::kAvlTree,
          IndexBackend::kIntervalTree}) {
      auto index = MakeLogicalTimeIndex(backend);
      row.creation[column] =
          bench::TimeSeconds([&] { index->Build(entries); });
      row.query[column] = bench::TimeSeconds([&] {
        volatile double sink = FromScratchSweep(*index, grid).checksum;
        (void)sink;
      });
      ++column;
    }
    // Incremental: creation = the two event-array sorts; query = the
    // cursor sweep that touches every event exactly once.
    IncrementalPrep prep;
    row.creation[3] =
        bench::TimeSeconds([&] { prep = PrepareIncremental(entries); });
    row.query[3] = bench::TimeSeconds([&] {
      volatile double sink = IncrementalSweep(prep, grid).checksum;
      (void)sink;
    });
    rows.push_back(row);
    std::printf("%-8d %14.4f %14.4f %14.4f %16.4f\n", scale, row.query[0],
                row.query[1], row.query[2], row.query[3]);
  }
  std::printf(
      "* full-scan over the materialized join at every grid point\n");

  bench::Banner(
      "Fig. 5c: creation + query processing total time (seconds, avg of 3)");
  std::printf("%-8s %14s %14s %14s %16s\n", "scale", "PandasMerge*",
              "AVLTree", "IntervalTree", "AVL+Incremental");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::printf("%-8d %14.4f %14.4f %14.4f %16.4f\n", kScales[i],
                rows[i].creation[0] + rows[i].query[0],
                rows[i].creation[1] + rows[i].query[1],
                rows[i].creation[2] + rows[i].query[2],
                rows[i].creation[3] + rows[i].query[3]);
  }
}

// Grouped Algorithm-StatusQ section at 1x: full per-group feature queries
// through the engine vs the incremental StatStructure sweep.
void PrintGroupedSection() {
  bench::Banner(
      "Algorithm StatusQ: grouped per-avail aggregation, 1x dataset "
      "(seconds, avg of 3)");
  const Dataset& data = bench::ScalabilityDataset();
  const std::vector<double> grid = LogicalTimeGrid(10.0);

  for (IndexBackend backend :
       {IndexBackend::kNaiveJoin, IndexBackend::kAvlTree,
        IndexBackend::kIntervalTree}) {
    StatusQueryEngine engine(&data, backend);
    const double seconds = bench::TimeSeconds([&] {
      double sink = 0;
      StatusQuery query;
      query.aggregate = AggregateFn::kCount;
      query.category = RccStatusCategory::kCreated;
      for (double t : grid) {
        for (int slot = 0; slot < GroupSchema::kNumTypeSlots; ++slot) {
          query.type_filter =
              slot == 0 ? std::optional<RccType>()
                        : std::optional<RccType>(
                              static_cast<RccType>(slot - 1));
          sink += *engine.Execute(query, t);
        }
      }
      volatile double keep = sink;
      (void)keep;
    });
    std::printf("%-24s %10.4f\n", IndexBackendToString(backend), seconds);
  }

  const double incremental_seconds = bench::TimeSeconds([&] {
    StatStructure sweep(data);
    double sink = 0;
    for (double t : grid) {
      sweep.AdvanceTo(t);
      for (const Avail& avail : data.avails.rows()) {
        for (int slot = 0; slot < GroupSchema::kNumTypeSlots; ++slot) {
          sink += sweep.Get(avail.id, GroupSchema::Level1GroupId(slot, 0))
                      .created_count;
        }
      }
    }
    volatile double keep = sink;
    (void)keep;
  });
  std::printf("%-24s %10.4f (includes StatStructure build)\n",
              "StatStructure+Incr", incremental_seconds);
}

}  // namespace
}  // namespace domd

int main() {
  domd::PrintFig5bAnd5c();
  domd::PrintGroupedSection();
  return 0;
}
