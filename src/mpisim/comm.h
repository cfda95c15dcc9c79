// Communicator with real collective algorithms.
//
// A Comm is a per-rank view of a process group (like an MPI communicator
// handle). Collectives are implemented as the textbook message-passing
// algorithms — binomial broadcast/gather/reduce, dissemination barrier,
// pairwise all-to-all — so that message counts and volumes, and therefore
// simulated time, are faithful to what a real MPI library would generate on
// the fabric. Every rank of a comm must invoke collectives in the same
// order (the usual MPI rule); a per-rank operation counter keeps rounds
// from different collectives on disjoint tags.
#pragma once

#include <any>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "mpisim/runtime.h"
#include "mpisim/tag_registry.h"
#include "sim/task.h"

namespace tio::mpi {

namespace detail {
template <typename T>
T checked_any_cast(std::any payload, const char* where) {
  if (payload.type() != typeid(T)) {
    throw std::runtime_error(std::string("any_cast mismatch in ") + where + ": expected " +
                             typeid(T).name() + " got " + payload.type().name());
  }
  return std::any_cast<T>(std::move(payload));
}
}  // namespace detail

// Node-locality view of a communicator's group: which node and rack each
// comm rank lives on. Placement is knowledge every rank holds locally, so
// the view needs no communication. It is built once when the group forms
// (Comm::world once per runtime, Comm::split once per new group), is
// immutable after, and every rank of the group reads the same copy. Node
// ids are dense indices over the distinct physical nodes the group
// occupies, in order of first appearance by comm rank (block placement
// makes that ascending physical order). A node's leader is its lowest
// comm rank.
struct NodeLayout {
  std::vector<int> node_of;               // comm rank -> dense node id
  std::vector<std::vector<int>> members;  // dense node id -> comm ranks, ascending
  std::vector<int> rack_of;               // dense node id -> physical rack
  // Every comm rank, spread across racks: round-robin over the racks the
  // group touches (first-appearance order), and within a rack over its
  // nodes (leaders first, then seconds, ...). Its first k entries are the
  // k rack-aware collective-buffering aggregators: fan-in stays balanced
  // per ToR uplink, and aggregators land on distinct nodes while a rack
  // has nodes to spare.
  std::vector<int> rack_spread;

  int num_nodes() const { return static_cast<int>(members.size()); }
  int leader_of(int node) const { return members[static_cast<std::size_t>(node)][0]; }
};

class Comm {
 public:
  // World communicator for `rank`.
  static Comm world(Runtime& rt, int rank);

  int rank() const { return my_index_; }
  int size() const { return static_cast<int>(group_->members.size()); }
  int global_rank() const { return group_->members[my_index_]; }
  std::size_t my_node() const { return rt_->node_of(global_rank()); }
  // Physical rack hosting comm rank `r`. Placement is deterministic
  // knowledge every rank holds locally (block placement), so consulting it
  // is free; rack geometry comes from ClusterConfig::rack_of_node.
  std::size_t rack_of_rank(int r) const {
    check_rank(r);
    return rt_->rack_of(group_->members[r]);
  }
  // The group's node-locality view (NodeLayout above); the topology-aware
  // layers (intra-node collective aggregation) key off it.
  const NodeLayout& layout() const { return group_->layout; }
  Runtime& runtime() const { return *rt_; }
  sim::Engine& engine() const { return rt_->engine(); }
  // Mailbox context id (unique per communicator); diagnostics only.
  std::uint64_t context() const { return group_->context; }

  // --- point to point (ranks are comm-relative) ---
  template <typename T>
  sim::Task<void> send(int dest, int tag, T value, std::uint64_t bytes);
  template <typename T>
  sim::Task<T> recv(int src, int tag);

  // --- collectives ---
  sim::Task<void> barrier();
  // Value is taken from `root` and returned on every rank; `bytes` is the
  // serialized payload size used for costing.
  template <typename T>
  sim::Task<T> bcast(int root, T value, std::uint64_t bytes);
  // Root receives a size()-element vector indexed by comm rank; other ranks
  // receive an empty vector.
  template <typename T>
  sim::Task<std::vector<T>> gather(int root, T mine, std::uint64_t bytes);
  // gather to rank 0 + bcast (n log n messages; robust at any size).
  template <typename T>
  sim::Task<std::vector<T>> allgather(T mine, std::uint64_t bytes);
  // Pairwise exchange; element i of the result came from rank i. Quadratic
  // message count — intended for small comms (e.g. group leaders).
  template <typename T>
  sim::Task<std::vector<T>> alltoall(std::vector<T> to_send, std::uint64_t bytes_each);
  // Binomial reduction with a binary op; result valid on root only.
  template <typename T, typename Op>
  sim::Task<T> reduce(int root, T mine, std::uint64_t bytes, Op op);
  template <typename T, typename Op>
  sim::Task<T> allreduce(T mine, std::uint64_t bytes, Op op);

  // Collective: partitions ranks by `color`; ordering within a group is by
  // (key, rank). Returns this rank's sub-communicator.
  sim::Task<Comm> split(int color, int key);

 private:
  struct Group {
    std::uint64_t context;
    std::vector<int> members;  // global ranks, comm order
    NodeLayout layout;
  };
  Comm(Runtime& rt, std::shared_ptr<const Group> group, int my_index)
      : rt_(&rt), group_(std::move(group)), my_index_(my_index) {}

  // Raw transfer of one message to a comm-relative destination.
  sim::Task<void> send_any(int dest, int tag, std::any payload, std::uint64_t bytes);
  sim::Task<std::any> recv_any(int src, int tag);
  int next_op_tag() { return kCollectiveTagBase + 32 * static_cast<int>(op_counter_++); }
  void check_rank(int r) const {
    if (r < 0 || r >= size()) throw std::out_of_range("Comm: bad rank");
  }

  // All user-visible tags live in registry blocks below this limit
  // (mpisim/tag_registry.h); everything above is ours for collectives.
  static constexpr int kCollectiveTagBase = kCollectiveTagLimit;

  Runtime* rt_;
  std::shared_ptr<const Group> group_;
  int my_index_;
  std::uint32_t op_counter_ = 0;
};

// --- implementation ---

template <typename T>
sim::Task<void> Comm::send(int dest, int tag, T value, std::uint64_t bytes) {
  if (tag >= kCollectiveTagBase) throw std::invalid_argument("Comm::send: reserved tag");
  co_await send_any(dest, tag, std::any(std::move(value)), bytes);
}

template <typename T>
sim::Task<T> Comm::recv(int src, int tag) {
  std::any payload = co_await recv_any(src, tag);
  if (payload.type() != typeid(T)) {
    throw std::runtime_error(std::string("Comm::recv type mismatch: expected ") +
                             typeid(T).name() + " got " + payload.type().name() +
                             " (rank " + std::to_string(rank()) + " src " +
                             std::to_string(src) + " tag " + std::to_string(tag) + ")");
  }
  co_return std::any_cast<T>(std::move(payload));
}

template <typename T>
sim::Task<T> Comm::bcast(int root, T value, std::uint64_t bytes) {
  check_rank(root);
  const int tag = next_op_tag();
  const int n = size();
  const int vrank = (rank() - root + n) % n;
  int mask = 1;
  while (mask < n) {
    if (vrank & mask) {
      const int parent = (vrank - mask + root) % n;
      std::any payload = co_await recv_any(parent, tag);
      value = detail::checked_any_cast<T>(std::move(payload), "bcast");
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if ((vrank & (mask - 1)) == 0 && !(vrank & mask) && vrank + mask < n) {
      const int child = (vrank + mask + root) % n;
      co_await send_any(child, tag, std::any(value), bytes);
    }
    mask >>= 1;
  }
  co_return value;
}

template <typename T>
sim::Task<std::vector<T>> Comm::gather(int root, T mine, std::uint64_t bytes) {
  check_rank(root);
  const int tag = next_op_tag();
  const int n = size();
  const int vrank = (rank() - root + n) % n;
  // Accumulate (vrank, value) pairs up a binomial tree.
  std::vector<std::pair<int, T>> acc;
  acc.emplace_back(vrank, std::move(mine));
  int mask = 1;
  while (mask < n) {
    if (vrank & mask) {
      const int parent = (vrank - mask + root) % n;
      const std::uint64_t vol = bytes * acc.size();
      co_await send_any(parent, tag, std::any(std::move(acc)), vol);
      co_return std::vector<T>{};
    }
    if (vrank + mask < n) {
      const int child = (vrank + mask + root) % n;
      std::any payload = co_await recv_any(child, tag);
      auto chunk = detail::checked_any_cast<std::vector<std::pair<int, T>>>(std::move(payload), "gather");
      for (auto& p : chunk) acc.push_back(std::move(p));
    }
    mask <<= 1;
  }
  // Root: reorder by comm rank.
  std::vector<T> out(n);
  for (auto& [vr, v] : acc) out[(vr + root) % n] = std::move(v);
  co_return out;
}

template <typename T>
sim::Task<std::vector<T>> Comm::allgather(T mine, std::uint64_t bytes) {
  auto gathered = co_await gather(0, std::move(mine), bytes);
  // Broadcasting the full vector costs n * bytes.
  co_return co_await bcast(0, std::move(gathered),
                           bytes * static_cast<std::uint64_t>(size()));
}

template <typename T>
sim::Task<std::vector<T>> Comm::alltoall(std::vector<T> to_send, std::uint64_t bytes_each) {
  if (static_cast<int>(to_send.size()) != size()) {
    throw std::invalid_argument("Comm::alltoall: vector size must equal comm size");
  }
  const int tag = next_op_tag();
  const int n = size();
  std::vector<T> out(n);
  out[rank()] = std::move(to_send[rank()]);
  // Pairwise rounds: in round r exchange with (rank + r) % n / (rank - r + n) % n.
  for (int r = 1; r < n; ++r) {
    const int to = (rank() + r) % n;
    const int from = (rank() - r + n) % n;
    co_await send_any(to, tag + 1, std::any(std::move(to_send[to])), bytes_each);
    std::any payload = co_await recv_any(from, tag + 1);
    out[from] = detail::checked_any_cast<T>(std::move(payload), "alltoall");
  }
  co_return out;
}

template <typename T, typename Op>
sim::Task<T> Comm::reduce(int root, T mine, std::uint64_t bytes, Op op) {
  check_rank(root);
  const int tag = next_op_tag();
  const int n = size();
  const int vrank = (rank() - root + n) % n;
  int mask = 1;
  while (mask < n) {
    if (vrank & mask) {
      const int parent = (vrank - mask + root) % n;
      co_await send_any(parent, tag, std::any(std::move(mine)), bytes);
      co_return T{};
    }
    if (vrank + mask < n) {
      const int child = (vrank + mask + root) % n;
      std::any payload = co_await recv_any(child, tag);
      mine = op(std::move(mine), detail::checked_any_cast<T>(std::move(payload), "reduce"));
    }
    mask <<= 1;
  }
  co_return mine;
}

template <typename T, typename Op>
sim::Task<T> Comm::allreduce(T mine, std::uint64_t bytes, Op op) {
  T reduced = co_await reduce(0, std::move(mine), bytes, op);
  co_return co_await bcast(0, std::move(reduced), bytes);
}

}  // namespace tio::mpi
