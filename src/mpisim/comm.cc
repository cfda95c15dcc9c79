#include "mpisim/comm.h"

#include <algorithm>
#include <unordered_map>

namespace tio::mpi {

namespace {

NodeLayout build_layout(const Runtime& rt, const std::vector<int>& members) {
  NodeLayout layout;
  const int n = static_cast<int>(members.size());
  layout.node_of.resize(members.size());
  std::unordered_map<std::size_t, int> dense;  // physical node -> dense id
  dense.reserve(members.size());
  for (int r = 0; r < n; ++r) {
    const int global = members[static_cast<std::size_t>(r)];
    const auto [it, inserted] = dense.emplace(rt.node_of(global), layout.num_nodes());
    if (inserted) {
      layout.members.emplace_back();
      layout.rack_of.push_back(static_cast<int>(rt.rack_of(global)));
    }
    layout.node_of[static_cast<std::size_t>(r)] = it->second;
    layout.members[static_cast<std::size_t>(it->second)].push_back(r);
  }

  // Racks in first-appearance order (dense node ids already are, so a scan
  // keeps it), each with its candidates: every node's leader first, then
  // every node's second rank, and so on.
  std::vector<std::vector<int>> rack_nodes;  // rack slot -> dense node ids
  std::unordered_map<int, std::size_t> rack_slot;
  for (int node = 0; node < layout.num_nodes(); ++node) {
    const auto [it, inserted] =
        rack_slot.emplace(layout.rack_of[static_cast<std::size_t>(node)], rack_nodes.size());
    if (inserted) rack_nodes.emplace_back();
    rack_nodes[it->second].push_back(node);
  }
  std::vector<std::vector<int>> candidates(rack_nodes.size());
  for (std::size_t s = 0; s < rack_nodes.size(); ++s) {
    std::size_t depth = 0;
    for (bool any = true; any; ++depth) {
      any = false;
      for (const int node : rack_nodes[s]) {
        const auto& residents = layout.members[static_cast<std::size_t>(node)];
        if (depth < residents.size()) {
          candidates[s].push_back(residents[depth]);
          any = true;
        }
      }
    }
  }
  // Deal round-robin across racks.
  layout.rack_spread.reserve(members.size());
  std::vector<std::size_t> next(candidates.size(), 0);
  for (std::size_t s = 0; layout.rack_spread.size() < members.size();
       s = (s + 1) % candidates.size()) {
    if (next[s] < candidates[s].size()) layout.rack_spread.push_back(candidates[s][next[s]++]);
  }
  return layout;
}

}  // namespace

Comm Comm::world(Runtime& rt, int rank) {
  // The world group is identical on every rank; build it once per runtime.
  if (rt.world_group_ == nullptr) {
    auto group = std::make_shared<Group>();
    group->context = 1;
    group->members.resize(rt.nprocs());
    for (int i = 0; i < rt.nprocs(); ++i) group->members[i] = i;
    group->layout = build_layout(rt, group->members);
    rt.world_group_ = std::move(group);
  }
  return Comm(rt, std::static_pointer_cast<const Group>(rt.world_group_), rank);
}

sim::Task<void> Comm::send_any(int dest, int tag, std::any payload, std::uint64_t bytes) {
  check_rank(dest);
  co_await engine().sleep(rt_->send_overhead());
  co_await rt_->cluster().fabric_transfer(my_node(), rt_->node_of(group_->members[dest]), bytes);
  rt_->mailbox({group_->context, dest, my_index_, tag}).push(std::move(payload));
}

sim::Task<std::any> Comm::recv_any(int src, int tag) {
  check_rank(src);
  const Runtime::MailboxKey key{group_->context, my_index_, src, tag};
  std::any payload = co_await rt_->mailbox(key).pop();
  rt_->gc_mailbox(key);
  co_return payload;
}

sim::Task<void> Comm::barrier() {
  const int tag = next_op_tag();
  const int n = size();
  // Dissemination barrier: ceil(log2 n) rounds of shifted exchanges.
  for (int round = 0, dist = 1; dist < n; ++round, dist <<= 1) {
    const int to = (rank() + dist) % n;
    const int from = (rank() - dist + n) % n;
    co_await send_any(to, tag + round, std::any(0), 8);
    (void)co_await recv_any(from, tag + round);
  }
}

sim::Task<Comm> Comm::split(int color, int key) {
  // Everyone learns everyone's (color, key); groups are formed identically
  // on every rank without further communication.
  struct Entry {
    int color;
    int key;
  };
  auto entries = co_await allgather(Entry{color, key}, sizeof(Entry));
  // Context derivation must be collision-free across sibling subcomms or
  // their mailboxes cross-talk: pack (op, color) injectively, then mix the
  // whole thing through splitmix64 (hash_combine alone has systematic
  // collisions between adjacent op counters).
  const std::uint64_t packed = (static_cast<std::uint64_t>(op_counter_) << 32) ^
                               static_cast<std::uint32_t>(color);
  const std::uint64_t context =
      splitmix64(group_->context ^ splitmix64(packed ^ 0x9e3779b97f4a7c15ull));

  // Every member of the new group derives the same context here; the first
  // to arrive builds the group, the others share it.
  std::shared_ptr<const Group> group;
  auto& pending = rt_->pending_groups_;
  if (const auto it = pending.find(context); it != pending.end()) {
    group = std::static_pointer_cast<const Group>(it->second.group);
    if (--it->second.waiting == 0) pending.erase(it);
  } else {
    std::vector<std::pair<std::pair<int, int>, int>> mine;  // ((key, rank), comm rank)
    for (int r = 0; r < size(); ++r) {
      if (entries[r].color == color) mine.push_back({{entries[r].key, r}, r});
    }
    std::sort(mine.begin(), mine.end());
    auto built = std::make_shared<Group>();
    built->context = context;
    built->members.reserve(mine.size());
    for (const auto& m : mine) built->members.push_back(group_->members[m.second]);
    built->layout = build_layout(*rt_, built->members);
    if (mine.size() > 1) pending.emplace(context, Runtime::PendingGroup{built, mine.size() - 1});
    group = std::move(built);
  }
  const auto me = std::find(group->members.begin(), group->members.end(), global_rank());
  const auto my_index = static_cast<int>(me - group->members.begin());
  co_return Comm(*rt_, std::move(group), my_index);
}

}  // namespace tio::mpi
