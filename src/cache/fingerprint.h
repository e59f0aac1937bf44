#ifndef DOMD_CACHE_FINGERPRINT_H_
#define DOMD_CACHE_FINGERPRINT_H_

#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "data/tables.h"

namespace domd {

/// Folds one 64-bit word into an FNV-1a style running hash (the id, grid
/// and cache-key digests). The seed for a fresh digest is kFingerprintSeed.
inline constexpr std::uint64_t kFingerprintSeed = kFnv1aOffset;
std::uint64_t FingerprintMix(std::uint64_t hash, std::uint64_t word);

/// The dataset fingerprint in running form: both table cardinalities and
/// the wrapping (mod 2^64) sums of the position-keyed row hashes. Because
/// the fingerprint is a sum over (position, row) pairs, an upsert updates
/// it in O(1): add the new row's hash, subtract the one it replaces
/// (incremental hashing, Bellare & Micciancio, EUROCRYPT 1997). This is
/// how DataStore keeps its epoch current without re-hashing the dataset.
struct DatasetDigest {
  std::uint64_t num_avails = 0;
  std::uint64_t num_rccs = 0;
  std::uint64_t avail_sum = 0;
  std::uint64_t rcc_sum = 0;

  /// The fingerprint: Fin(num_avails, num_rccs, avail_sum, rcc_sum).
  std::uint64_t Finish() const;
};

/// h(position, row): the row's fields folded word by word, seeded by its
/// table position and finished with the SplitMix64 avalanche.
std::uint64_t AvailRowHash(std::uint64_t position, const Avail& avail);
std::uint64_t RccRowHash(std::uint64_t position, const Rcc& rcc);

/// The digest of a whole dataset, row by row.
DatasetDigest DigestDataset(const Dataset& data);

/// Content fingerprint of a full dataset: DigestDataset(data).Finish(),
/// covering every field of every avail and RCC row at its row position.
/// Two datasets with identical table contents fingerprint identically
/// regardless of address — a bundle reloaded from disk shares cache
/// entries with the estimator that wrote it.
std::uint64_t ComputeDatasetFingerprint(const Dataset& data);

/// Memoized ComputeDatasetFingerprint. The memo is keyed on the dataset's
/// address and revalidated against cheap probes (table cardinalities and
/// boundary row ids), so the O(rows) content hash runs once per dataset in
/// the common append-only workflow (tables only grow via Add, and modeling
/// treats the dataset as frozen). An in-place row mutation that preserves
/// the probes must be followed by InvalidateFingerprint — the
/// fingerprint-sensitivity test covers the recompute path directly via
/// ComputeDatasetFingerprint.
std::uint64_t DatasetFingerprint(const Dataset& data);

/// Drops the memo entry for a dataset (call after mutating rows in place).
void InvalidateFingerprint(const Dataset& data);

/// Order-sensitive digest of an avail-id selection.
std::uint64_t DigestIds(const std::vector<std::int64_t>& ids);

/// Order-sensitive digest of a logical-time grid (bit-exact over doubles).
std::uint64_t DigestGrid(const std::vector<double>& grid);

}  // namespace domd

#endif  // DOMD_CACHE_FINGERPRINT_H_
