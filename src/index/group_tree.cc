#include "index/group_tree.h"

#include "data/logical_time.h"

namespace domd {

void GroupSchema::GroupsForRcc(RccType type, const Swlin& swlin,
                               std::vector<int>* out) {
  const int type_slot = TypeSlot(type);
  const int subsystem = swlin.digit(0);
  const int subsystem_slot = subsystem;  // digit 0 means no valid subsystem.
  out->push_back(Level1GroupId(0, 0));
  out->push_back(Level1GroupId(type_slot, 0));
  if (subsystem_slot >= 1) {
    out->push_back(Level1GroupId(0, subsystem_slot));
    out->push_back(Level1GroupId(type_slot, subsystem_slot));
    const int prefix = subsystem * 10 + swlin.digit(1);
    out->push_back(Level2GroupId(prefix));
  }
}

std::string GroupSchema::GroupName(int group_id) {
  static const char* kTypeNames[] = {"ALL", "G", "N", "NG"};
  if (group_id < kNumLevel1Groups) {
    const int type_slot = group_id / kNumSubsystemSlots;
    const int subsystem_slot = group_id % kNumSubsystemSlots;
    std::string name = kTypeNames[type_slot];
    if (subsystem_slot >= 1) name += std::to_string(subsystem_slot);
    return name;
  }
  const int prefix = group_id - kNumLevel1Groups + 10;
  return "ALL" + std::to_string(prefix);
}

std::vector<IndexEntry> BuildIndexEntries(const Dataset& data) {
  std::vector<IndexEntry> entries;
  entries.reserve(data.rccs.size());
  for (const Rcc& rcc : data.rccs.rows()) {
    const auto avail = data.avails.Find(rcc.avail_id);
    if (!avail.ok()) continue;
    IndexEntry entry;
    entry.id = rcc.id;
    entry.start = LogicalTime(**avail, rcc.creation_date);
    entry.end = rcc.settled_date.has_value()
                    ? LogicalTime(**avail, *rcc.settled_date)
                    : IndexEntry::kOpenEnd;
    entries.push_back(entry);
  }
  return entries;
}

GroupedRccIndex::GroupedRccIndex(const Dataset& data, IndexBackend backend)
    : backend_(backend) {
  std::vector<std::vector<IndexEntry>> per_group(
      static_cast<std::size_t>(GroupSchema::kNumGroups));
  std::vector<int> groups;
  for (const Rcc& rcc : data.rccs.rows()) {
    const auto avail = data.avails.Find(rcc.avail_id);
    if (!avail.ok()) continue;
    IndexEntry entry;
    entry.id = rcc.id;
    entry.start = LogicalTime(**avail, rcc.creation_date);
    entry.end = rcc.settled_date.has_value()
                    ? LogicalTime(**avail, *rcc.settled_date)
                    : IndexEntry::kOpenEnd;
    groups.clear();
    GroupSchema::GroupsForRcc(rcc.type, rcc.swlin, &groups);
    for (int g : groups) {
      per_group[static_cast<std::size_t>(g)].push_back(entry);
    }
  }
  nodes_.reserve(per_group.size());
  for (auto& entries : per_group) {
    auto index = MakeLogicalTimeIndex(backend);
    index->Build(entries);
    nodes_.push_back(std::move(index));
  }
}

std::size_t GroupedRccIndex::TotalEntries() const {
  std::size_t total = 0;
  for (const auto& node : nodes_) total += node->size();
  return total;
}

std::size_t GroupedRccIndex::MemoryUsageBytes() const {
  std::size_t total = 0;
  for (const auto& node : nodes_) total += node->MemoryUsageBytes();
  return total;
}

}  // namespace domd
