#include "cache/fingerprint.h"

#include <bit>
#include <mutex>

namespace domd {
namespace {

// Multipliers of the word absorb (the xxHash64 primes; any odd constants
// keep it bijective).
constexpr std::uint64_t kAbsorbIn = 0x9E3779B185EBCA87ull;
constexpr std::uint64_t kAbsorbOut = 0xC2B2AE3D27D4EB4Full;
// Separates the avail and RCC position seeds, and seeds Finish.
constexpr std::uint64_t kAvailSeed = 0x165667B19E3779F9ull;
constexpr std::uint64_t kRccSeed = 0x27D4EB2F165667C5ull;
constexpr std::uint64_t kFinishSeed = 0x85EBCA77C2B2AE63ull;

/// Folds one word into a row hash. It is a bijection in either argument
/// while the other is fixed, so two rows that differ in exactly one field
/// never collide before the final (also bijective) avalanche.
constexpr std::uint64_t Absorb(std::uint64_t acc, std::uint64_t word) {
  return std::rotl(acc ^ (word * kAbsorbIn), 31) * kAbsorbOut;
}

std::uint64_t Word(double value) {
  // Bit-exact: +0.0 and -0.0 hash differently, which is fine — the tables
  // never distinguish them semantically but bit-identity is the contract.
  return std::bit_cast<std::uint64_t>(value);
}

std::uint64_t Word(const Date& date) {
  return static_cast<std::uint64_t>(date.serial());
}

std::uint64_t AbsorbOptionalDate(std::uint64_t acc,
                                 const std::optional<Date>& date) {
  acc = Absorb(acc, date.has_value() ? 1 : 0);
  return Absorb(acc, date.has_value() ? Word(*date) : 0);
}

/// One memo slot: the dataset's address plus cheap revalidation probes.
struct MemoEntry {
  const Dataset* dataset = nullptr;
  std::size_t num_avails = 0;
  std::size_t num_rccs = 0;
  std::int64_t last_avail_id = 0;
  std::int64_t last_rcc_id = 0;
  std::uint64_t fingerprint = 0;
};

constexpr std::size_t kMemoCapacity = 64;

std::mutex& MemoMutex() {
  static std::mutex& mutex = *new std::mutex;
  return mutex;
}

std::vector<MemoEntry>& MemoEntries() {
  static std::vector<MemoEntry>& entries = *new std::vector<MemoEntry>;
  return entries;
}

MemoEntry MakeProbe(const Dataset& data) {
  MemoEntry probe;
  probe.dataset = &data;
  probe.num_avails = data.avails.size();
  probe.num_rccs = data.rccs.size();
  probe.last_avail_id =
      data.avails.empty() ? 0 : data.avails.rows().back().id;
  probe.last_rcc_id = data.rccs.empty() ? 0 : data.rccs.rows().back().id;
  return probe;
}

bool ProbesMatch(const MemoEntry& a, const MemoEntry& b) {
  return a.dataset == b.dataset && a.num_avails == b.num_avails &&
         a.num_rccs == b.num_rccs && a.last_avail_id == b.last_avail_id &&
         a.last_rcc_id == b.last_rcc_id;
}

}  // namespace

std::uint64_t FingerprintMix(std::uint64_t hash, std::uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (word >> (byte * 8)) & 0xFF;
    hash *= kFnv1aPrime;
  }
  return hash;
}

std::uint64_t DatasetDigest::Finish() const {
  std::uint64_t acc = Absorb(kFinishSeed, num_avails);
  acc = Absorb(acc, avail_sum);
  acc = Absorb(acc, num_rccs);
  return Mix64(Absorb(acc, rcc_sum));
}

std::uint64_t AvailRowHash(std::uint64_t position, const Avail& avail) {
  std::uint64_t acc = position * kAbsorbOut + kAvailSeed;
  acc = Absorb(acc, static_cast<std::uint64_t>(avail.id));
  acc = Absorb(acc, static_cast<std::uint64_t>(avail.ship_id));
  acc = Absorb(acc, static_cast<std::uint64_t>(avail.status));
  acc = Absorb(acc, Word(avail.planned_start));
  acc = Absorb(acc, Word(avail.planned_end));
  acc = Absorb(acc, Word(avail.actual_start));
  acc = AbsorbOptionalDate(acc, avail.actual_end);
  acc = Absorb(acc, static_cast<std::uint64_t>(avail.ship_class));
  acc = Absorb(acc, static_cast<std::uint64_t>(avail.rmc_id));
  acc = Absorb(acc, Word(avail.ship_age_years));
  acc = Absorb(acc, static_cast<std::uint64_t>(avail.avail_type));
  acc = Absorb(acc, static_cast<std::uint64_t>(avail.homeport));
  acc = Absorb(acc, static_cast<std::uint64_t>(avail.prior_avail_count));
  acc = Absorb(acc, Word(avail.contract_value_musd));
  acc = Absorb(acc, static_cast<std::uint64_t>(avail.crew_size));
  return Mix64(acc);
}

std::uint64_t RccRowHash(std::uint64_t position, const Rcc& rcc) {
  std::uint64_t acc = position * kAbsorbOut + kRccSeed;
  acc = Absorb(acc, static_cast<std::uint64_t>(rcc.id));
  acc = Absorb(acc, static_cast<std::uint64_t>(rcc.avail_id));
  acc = Absorb(acc, static_cast<std::uint64_t>(rcc.type));
  std::uint64_t swlin = 0;
  for (int d = 0; d < Swlin::kNumDigits; ++d) {
    swlin = swlin * 10 + static_cast<std::uint64_t>(rcc.swlin.digit(d));
  }
  acc = Absorb(acc, swlin);
  acc = Absorb(acc, Word(rcc.creation_date));
  acc = AbsorbOptionalDate(acc, rcc.settled_date);
  acc = Absorb(acc, Word(rcc.settled_amount));
  return Mix64(acc);
}

DatasetDigest DigestDataset(const Dataset& data) {
  DatasetDigest digest;
  const std::vector<Avail>& avails = data.avails.rows();
  digest.num_avails = avails.size();
  for (std::size_t i = 0; i < avails.size(); ++i) {
    digest.avail_sum += AvailRowHash(i, avails[i]);
  }
  const std::vector<Rcc>& rccs = data.rccs.rows();
  digest.num_rccs = rccs.size();
  for (std::size_t i = 0; i < rccs.size(); ++i) {
    digest.rcc_sum += RccRowHash(i, rccs[i]);
  }
  return digest;
}

std::uint64_t ComputeDatasetFingerprint(const Dataset& data) {
  return DigestDataset(data).Finish();
}

std::uint64_t DatasetFingerprint(const Dataset& data) {
  MemoEntry probe = MakeProbe(data);
  {
    std::lock_guard<std::mutex> lock(MemoMutex());
    for (const MemoEntry& entry : MemoEntries()) {
      if (ProbesMatch(entry, probe)) return entry.fingerprint;
    }
  }
  probe.fingerprint = ComputeDatasetFingerprint(data);
  std::lock_guard<std::mutex> lock(MemoMutex());
  auto& entries = MemoEntries();
  // A racer may have inserted the same dataset meanwhile; dedupe by probe.
  for (const MemoEntry& entry : entries) {
    if (ProbesMatch(entry, probe)) return entry.fingerprint;
  }
  if (entries.size() >= kMemoCapacity) entries.erase(entries.begin());
  entries.push_back(probe);
  return probe.fingerprint;
}

void InvalidateFingerprint(const Dataset& data) {
  std::lock_guard<std::mutex> lock(MemoMutex());
  auto& entries = MemoEntries();
  for (std::size_t i = 0; i < entries.size();) {
    if (entries[i].dataset == &data) {
      entries.erase(entries.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
}

std::uint64_t DigestIds(const std::vector<std::int64_t>& ids) {
  std::uint64_t hash = kFingerprintSeed;
  hash = FingerprintMix(hash, ids.size());
  for (std::int64_t id : ids) {
    hash = FingerprintMix(hash, static_cast<std::uint64_t>(id));
  }
  return hash;
}

std::uint64_t DigestGrid(const std::vector<double>& grid) {
  std::uint64_t hash = kFingerprintSeed;
  hash = FingerprintMix(hash, grid.size());
  for (double t : grid) {
    hash = FingerprintMix(hash, std::bit_cast<std::uint64_t>(t));
  }
  return hash;
}

}  // namespace domd
