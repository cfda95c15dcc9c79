#include "iolib/collective_buffer.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

#include "common/stats.h"
#include "common/trace.h"
#include "iolib/node_agg.h"
#include "mpisim/tag_registry.h"
#include "pfs/extent_map.h"

namespace tio::iolib {

namespace {

// Tags come from the central registry (mpisim/tag_registry.h), which
// statically asserts the blocks are pairwise disjoint and stay below the
// collective-tag base. Successive collective-buffer operations are
// separated by their trailing barrier, so tag reuse across operations can
// never cross-match.
constexpr int kCbTagBase = mpi::kCbReplyTags.base;       // aggregator -> requester (+ j)
constexpr int kCbTagIntraW = mpi::kCbIntraTags.base;     // member -> node leader, write chunks
constexpr int kCbTagIntraR = mpi::kCbIntraTags.base + 1; // member -> node leader, read pieces
constexpr int kCbTagShipW = mpi::kCbShipWriteTags.base;  // leader -> aggregator, merged chunks (+ j)
constexpr int kCbTagShipR = mpi::kCbShipReadTags.base;   // leader -> aggregator, merged ranges (+ j)
constexpr int kCbTagAggReply = mpi::kCbAggReplyTags.base;  // aggregator -> leader, run data (+ j)
constexpr int kCbTagFanout = mpi::kCbFanoutTags.base;    // leader -> member, piece slices

// Observability (PR idiom: resolve the registry once, count relaxed).
// fabric_msgs/local_msgs census every payload message this layer moves
// (gather-tree hops are counted arithmetically on the gather root via
// count_binomial_gather); bytes_shipped counts file data (+16-byte chunk
// headers on the write path) whose source and consumer sit on different
// nodes — the volume that must cross a NIC at least once.
struct CbCounters {
  Counter& writes = counter("iolib.cb.writes");
  Counter& reads = counter("iolib.cb.reads");
  Counter& fabric_msgs = counter("iolib.cb.fabric_msgs");
  Counter& local_msgs = counter("iolib.cb.local_msgs");
  Counter& bytes_shipped = counter("iolib.cb.bytes_shipped");
  Counter& write_runs = counter("iolib.cb.write.runs");
  Counter& read_runs = counter("iolib.cb.read.runs");
  Counter& pfs_ops = counter("iolib.cb.pfs_ops");
  Counter& sieve_joins = counter("iolib.cb.sieve_joins");
  Counter& sieve_hole_bytes = counter("iolib.cb.sieve_hole_bytes");
  Counter& node_reqs_in = counter("iolib.cb.node_reqs_in");
  Counter& node_reqs_out = counter("iolib.cb.node_reqs_out");
};

CbCounters& cbc() {
  static CbCounters counters;
  return counters;
}

struct Extent {
  std::uint64_t lo = ~0ull;
  std::uint64_t hi = 0;
};

sim::Task<Extent> global_extent(mpi::Comm& comm, Extent mine) {
  co_return co_await comm.allreduce(mine, 16, [](Extent a, Extent b) {
    return Extent{std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
  });
}

// Domain of aggregator j: an even split of [lo, hi).
std::pair<std::uint64_t, std::uint64_t> domain_of(const Extent& e, int j, int num) {
  const std::uint64_t span = e.hi - e.lo;
  const std::uint64_t start = e.lo + span * static_cast<std::uint64_t>(j) / num;
  const std::uint64_t end = e.lo + span * (static_cast<std::uint64_t>(j) + 1) / num;
  return {start, end};
}

// Splits [offset, offset+len) across aggregator domains, invoking
// fn(j, piece_offset, piece_len) for each piece in order.
template <typename Fn>
void split_over_domains(const Extent& ext, int num_aggs, std::uint64_t offset,
                        std::uint64_t len, Fn&& fn) {
  std::uint64_t pos = offset;
  const std::uint64_t end = offset + len;
  while (pos < end) {
    int j = static_cast<int>(static_cast<unsigned __int128>(pos - ext.lo) * num_aggs /
                             (ext.hi - ext.lo));
    j = std::min(j, num_aggs - 1);
    auto [d_lo, d_hi] = domain_of(ext, j, num_aggs);
    while (pos >= d_hi && j + 1 < num_aggs) {  // guard integer-division edges
      ++j;
      std::tie(d_lo, d_hi) = domain_of(ext, j, num_aggs);
    }
    const std::uint64_t take = std::min(end, d_hi) - pos;
    fn(j, pos, take);
    pos += take;
  }
}

// Adds [s, e) to a start->end union map, merging overlaps and adjacency.
void merge_range(std::map<std::uint64_t, std::uint64_t>& runs, std::uint64_t s,
                 std::uint64_t e) {
  auto it = runs.lower_bound(s);
  if (it != runs.begin() && std::prev(it)->second >= s) --it;
  std::uint64_t ns = s;
  std::uint64_t ne = e;
  while (it != runs.end() && it->first <= ne) {
    ns = std::min(ns, it->first);
    ne = std::max(ne, it->second);
    it = runs.erase(it);
  }
  runs[ns] = ne;
}

// An extent map's coalesced runs as chunks.
std::vector<CbChunk> chunks_of(const pfs::ExtentMap& map) {
  std::vector<CbChunk> out;
  out.reserve(map.extent_count());
  map.for_each([&out](std::uint64_t off, const DataView& view) {
    out.push_back(CbChunk{off, view});
  });
  return out;
}

// The j this rank aggregates, or -1.
int my_aggregator_slot(const mpi::Comm& comm, const std::vector<int>& aggs) {
  for (std::size_t j = 0; j < aggs.size(); ++j) {
    if (aggs[j] == comm.rank()) return static_cast<int>(j);
  }
  return -1;
}

bool same_node(const mpi::Comm& comm, int a, int b) {
  const std::vector<int>& node_of = comm.layout().node_of;
  return node_of[static_cast<std::size_t>(a)] == node_of[static_cast<std::size_t>(b)];
}

// Classifies and counts one payload message from the caller to `dst`;
// `data_bytes` feeds bytes_shipped when the hop crosses nodes.
void note_msg(const mpi::Comm& comm, int dst, std::uint64_t data_bytes) {
  if (same_node(comm, comm.rank(), dst)) {
    cbc().local_msgs.add();
  } else {
    cbc().fabric_msgs.add();
    cbc().bytes_shipped.add(data_bytes);
  }
}

// Counts the binomial-gather traffic of one comm.gather toward `root`, and
// the caller's data contribution when it lives off the root's node.
void note_gather(const mpi::Comm& comm, int root, std::uint64_t my_data_bytes) {
  if (!same_node(comm, comm.rank(), root)) cbc().bytes_shipped.add(my_data_bytes);
  if (comm.rank() == root) {
    std::uint64_t intra = 0;
    std::uint64_t inter = 0;
    count_binomial_gather(comm, root, &intra, &inter);
    cbc().local_msgs.add(intra);
    cbc().fabric_msgs.add(inter);
  }
}

// Aggregator staging common to both read modes: merge-sieve the requested
// runs, read each group in buffer_bytes-capped operations, stage into
// `staged` (short reads leave holes; ExtentMap zero-fills them on read).
sim::Task<Status> stage_runs(const std::map<std::uint64_t, std::uint64_t>& runs,
                             const CbConfig& config, const ReadFn& read_at,
                             pfs::ExtentMap* staged) {
  std::vector<CbRange> list;
  list.reserve(runs.size());
  for (const auto& [s, e] : runs) list.push_back(CbRange{s, e - s});
  cbc().read_runs.add(list.size());
  CbSieveStats sieve;
  const std::vector<CbRange> groups = cb_sieve_groups(list, config.sieve_threshold, &sieve);
  cbc().sieve_joins.add(sieve.joins);
  cbc().sieve_hole_bytes.add(sieve.hole_bytes);
  for (const auto& g : groups) {
    std::uint64_t pos = g.offset;
    const std::uint64_t end = g.offset + g.len;
    while (pos < end) {
      const std::uint64_t take = std::min<std::uint64_t>(config.buffer_bytes, end - pos);
      cbc().pfs_ops.add();
      auto data = co_await read_at(pos, take);
      if (!data.ok()) co_return data.status();
      std::uint64_t at = pos;
      for (const auto& frag : data->fragments()) {
        staged->write(at, frag);
        at += frag.size();
      }
      // Short read (EOF): the remainder stays as holes (zeros).
      pos += take;
    }
  }
  co_return Status::Ok();
}

}  // namespace

int cb_aggregator_rank(int j, int num_aggregators, int comm_size) {
  return static_cast<int>(static_cast<std::int64_t>(j) * comm_size / num_aggregators);
}

int cb_num_aggregators(const CbConfig& config, const mpi::Comm& comm) {
  if (config.aggregators > 0) return std::min(config.aggregators, comm.size());
  const auto per_node =
      static_cast<int>(comm.runtime().cluster().config().cores_per_node);
  return std::max(1, comm.size() / std::max(1, per_node));
}

std::vector<int> cb_aggregator_ranks(const CbConfig& config, const mpi::Comm& comm,
                                     int num_aggregators) {
  if (config.rack_aware_placement) {
    if (num_aggregators < 1 || num_aggregators > comm.size()) {
      throw std::invalid_argument("cb_aggregator_ranks: bad aggregator count");
    }
    const std::vector<int>& spread = comm.layout().rack_spread;
    return std::vector<int>(spread.begin(), spread.begin() + num_aggregators);
  }
  std::vector<int> aggs(static_cast<std::size_t>(num_aggregators));
  for (int j = 0; j < num_aggregators; ++j) {
    aggs[static_cast<std::size_t>(j)] = cb_aggregator_rank(j, num_aggregators, comm.size());
  }
  return aggs;
}

std::vector<CbRange> cb_sieve_groups(const std::vector<CbRange>& runs, double threshold,
                                     CbSieveStats* stats) {
  if (threshold <= 0 || runs.size() < 2) return runs;
  std::vector<CbRange> out;
  out.reserve(runs.size());
  CbRange cur = runs[0];
  std::uint64_t holes = 0;   // hole bytes inside the current group
  std::uint64_t useful = runs[0].len;
  for (std::size_t i = 1; i < runs.size(); ++i) {
    const CbRange& next = runs[i];
    const std::uint64_t hole = next.offset - (cur.offset + cur.len);
    const std::uint64_t joined_holes = holes + hole;
    const std::uint64_t joined_useful = useful + next.len;
    if (static_cast<double>(joined_holes) <=
        threshold * static_cast<double>(joined_useful)) {
      cur.len = next.offset + next.len - cur.offset;
      holes = joined_holes;
      useful = joined_useful;
      if (stats != nullptr) {
        ++stats->joins;
        stats->hole_bytes += hole;
      }
    } else {
      out.push_back(cur);
      cur = next;
      holes = 0;
      useful = next.len;
    }
  }
  out.push_back(cur);
  return out;
}

sim::Task<Status> cb_write(mpi::Comm& comm, const CbConfig& config, std::vector<CbChunk> mine,
                           const WriteFn& write_at) {
  static const trace::SpanSite kWindow("iolib.cb", "cb.write");
  static const trace::SpanSite kMeta("iolib.cb.phase", "cb.write.meta");
  static const trace::SpanSite kGather("iolib.cb.phase", "cb.write.gather");
  static const trace::SpanSite kShuffle("iolib.cb.phase", "cb.write.shuffle");
  static const trace::SpanSite kPfs("iolib.cb.phase", "cb.write.pfs");
  static const trace::SpanSite kSync("iolib.cb.phase", "cb.write.sync");
  sim::Engine& engine = comm.engine();
  const int grank = comm.global_rank();
  trace::Span window(engine, kWindow, grank);
  if (comm.rank() == 0) cbc().writes.add();

  Extent local;
  for (const auto& c : mine) {
    local.lo = std::min(local.lo, c.offset);
    local.hi = std::max(local.hi, c.offset + c.data.size());
  }
  Extent ext;
  {
    trace::Span meta(engine, kMeta, grank);
    ext = co_await global_extent(comm, local);
  }
  if (ext.hi <= ext.lo) {
    trace::Span sync(engine, kSync, grank);
    co_await comm.barrier();
    co_return Status::Ok();
  }
  const int num_aggs = cb_num_aggregators(config, comm);
  const std::vector<int> aggs = cb_aggregator_ranks(config, comm, num_aggs);

  // Split my chunks across aggregator domains.
  std::vector<std::vector<CbChunk>> outgoing(num_aggs);
  for (auto& c : mine) {
    split_over_domains(ext, num_aggs, c.offset, c.data.size(),
                       [&](int j, std::uint64_t pos, std::uint64_t take) {
                         outgoing[j].push_back(
                             CbChunk{pos, c.data.slice(pos - c.offset, take)});
                       });
  }

  pfs::ExtentMap staged;
  bool i_aggregate = false;

  if (!config.node_aggregation) {
    // Classic phase 1: ship records to their aggregators (one gather per
    // aggregator).
    trace::Span gather(engine, kGather, grank);
    for (int j = 0; j < num_aggs; ++j) {
      const int root = aggs[static_cast<std::size_t>(j)];
      std::uint64_t bytes = 0;
      for (const auto& c : outgoing[j]) bytes += c.data.size() + 16;
      note_gather(comm, root, bytes);
      auto gathered = co_await comm.gather(root, std::move(outgoing[j]), bytes);
      if (comm.rank() == root) {
        i_aggregate = true;
        for (auto& per_rank : gathered) {
          for (auto& c : per_rank) staged.write(c.offset, std::move(c.data));
        }
      }
    }
  } else {
    const mpi::NodeLayout& layout = comm.layout();
    const int me = comm.rank();
    const int my_node = layout.node_of[static_cast<std::size_t>(me)];
    const int leader = layout.leader_of(my_node);
    const int my_j = my_aggregator_slot(comm, aggs);

    // Phase 0: co-residents hand their per-aggregator chunk lists to the
    // node leader over the latency-only intra-node transport; the leader
    // coalesces them per aggregator domain (members merge in comm-rank
    // order, preserving last-writer-wins for overlapping records under
    // block placement).
    {
      trace::Span gather(engine, kGather, grank);
      if (me != leader) {
        std::uint64_t bytes = 0;
        for (const auto& per_agg : outgoing) {
          for (const auto& c : per_agg) bytes += c.data.size() + 16;
        }
        note_msg(comm, leader, bytes);
        co_await comm.send(leader, kCbTagIntraW, std::move(outgoing), bytes);
        outgoing.assign(num_aggs, {});
      } else {
        std::vector<pfs::ExtentMap> merged(num_aggs);
        std::uint64_t chunks_in = 0;
        for (int j = 0; j < num_aggs; ++j) {
          for (auto& c : outgoing[j]) {
            ++chunks_in;
            merged[j].write(c.offset, std::move(c.data));
          }
        }
        const std::vector<int>& residents = layout.members[static_cast<std::size_t>(my_node)];
        for (std::size_t i = 1; i < residents.size(); ++i) {
          auto theirs = co_await comm.recv<std::vector<std::vector<CbChunk>>>(
              residents[i], kCbTagIntraW);
          for (int j = 0; j < num_aggs; ++j) {
            for (auto& c : theirs[j]) {
              ++chunks_in;
              merged[j].write(c.offset, std::move(c.data));
            }
          }
        }
        cbc().node_reqs_in.add(chunks_in);
        for (int j = 0; j < num_aggs; ++j) {
          outgoing[j] = chunks_of(merged[j]);
          cbc().node_reqs_out.add(outgoing[j].size());
        }
      }
    }

    // Phase 1: the inter-node exchange — exactly nodes x aggregators
    // messages (leaders always send, so aggregators know what to expect).
    {
      trace::Span shuffle(engine, kShuffle, grank);
      if (me == leader) {
        for (int j = 0; j < num_aggs; ++j) {
          const int dst = aggs[static_cast<std::size_t>(j)];
          std::uint64_t bytes = 0;
          for (const auto& c : outgoing[j]) bytes += c.data.size() + 16;
          note_msg(comm, dst, bytes);
          co_await comm.send(dst, kCbTagShipW + j, std::move(outgoing[j]), bytes);
        }
      }
      if (my_j >= 0) {
        i_aggregate = true;
        for (int node = 0; node < layout.num_nodes(); ++node) {
          auto part = co_await comm.recv<std::vector<CbChunk>>(layout.leader_of(node),
                                                               kCbTagShipW + my_j);
          for (auto& c : part) staged.write(c.offset, std::move(c.data));
        }
      }
    }
  }

  // Phase 2: aggregators issue large contiguous writes, capped at
  // buffer_bytes per operation.
  {
    trace::Span pfs(engine, kPfs, grank);
    if (i_aggregate) {
      // A named local: the loop body suspends (DESIGN.md §5k).
      const std::vector<CbChunk> runs = chunks_of(staged);
      for (const CbChunk& run : runs) {
        cbc().write_runs.add();
        std::uint64_t pos = 0;
        while (pos < run.data.size()) {
          const std::uint64_t take = std::min<std::uint64_t>(config.buffer_bytes,
                                                             run.data.size() - pos);
          cbc().pfs_ops.add();
          TIO_CO_RETURN_IF_ERROR(
              co_await write_at(run.offset + pos, run.data.slice(pos, take)));
          pos += take;
        }
      }
    }
  }
  {
    trace::Span sync(engine, kSync, grank);
    co_await comm.barrier();
  }
  co_return Status::Ok();
}

sim::Task<Status> cb_read(mpi::Comm& comm, const CbConfig& config, std::vector<CbRange> wants,
                          const ReadFn& read_at, std::vector<FragmentList>* out) {
  static const trace::SpanSite kWindow("iolib.cb", "cb.read");
  static const trace::SpanSite kMeta("iolib.cb.phase", "cb.read.meta");
  static const trace::SpanSite kGather("iolib.cb.phase", "cb.read.gather");
  static const trace::SpanSite kShuffle("iolib.cb.phase", "cb.read.shuffle");
  static const trace::SpanSite kPfs("iolib.cb.phase", "cb.read.pfs");
  static const trace::SpanSite kReply("iolib.cb.phase", "cb.read.reply");
  static const trace::SpanSite kSync("iolib.cb.phase", "cb.read.sync");
  sim::Engine& engine = comm.engine();
  const int grank = comm.global_rank();
  trace::Span window(engine, kWindow, grank);
  if (comm.rank() == 0) cbc().reads.add();

  out->assign(wants.size(), FragmentList{});
  Extent local;
  for (const auto& w : wants) {
    local.lo = std::min(local.lo, w.offset);
    local.hi = std::max(local.hi, w.offset + w.len);
  }
  Extent ext;
  {
    trace::Span meta(engine, kMeta, grank);
    ext = co_await global_extent(comm, local);
  }
  if (ext.hi <= ext.lo) {
    trace::Span sync(engine, kSync, grank);
    co_await comm.barrier();
    co_return Status::Ok();
  }
  const int num_aggs = cb_num_aggregators(config, comm);
  const std::vector<int> aggs = cb_aggregator_ranks(config, comm, num_aggs);

  // A request piece as shipped to an aggregator.
  struct Piece {
    std::uint32_t want;  // index into the requester's `wants`
    std::uint64_t offset;
    std::uint64_t len;
  };
  std::vector<std::vector<Piece>> outgoing(num_aggs);
  for (std::uint32_t i = 0; i < wants.size(); ++i) {
    split_over_domains(ext, num_aggs, wants[i].offset, wants[i].len,
                       [&](int j, std::uint64_t pos, std::uint64_t take) {
                         outgoing[j].push_back(Piece{i, pos, take});
                       });
  }

  if (!config.node_aggregation) {
    // Which aggregators will reply to me, in j order.
    std::vector<int> reply_from;
    for (int j = 0; j < num_aggs; ++j) {
      if (!outgoing[j].empty()) reply_from.push_back(j);
    }

    // Phase 1: gather request pieces per aggregator; aggregators read the
    // merged (optionally sieved) runs once and slice replies per requester.
    struct Reply {
      std::vector<std::pair<Piece, FragmentList>> pieces;
    };
    for (int j = 0; j < num_aggs; ++j) {
      const int root = aggs[static_cast<std::size_t>(j)];
      const std::uint64_t bytes = outgoing[j].size() * 24;
      note_gather(comm, root, 0);  // requests carry no file data
      std::vector<std::vector<Piece>> gathered;
      {
        trace::Span gather(engine, kGather, grank);
        gathered = co_await comm.gather(root, std::move(outgoing[j]), bytes);
      }
      if (comm.rank() != root) continue;

      std::map<std::uint64_t, std::uint64_t> runs;  // start -> end (union)
      for (const auto& per_rank : gathered) {
        for (const auto& p : per_rank) merge_range(runs, p.offset, p.offset + p.len);
      }
      pfs::ExtentMap staged;
      {
        trace::Span pfs(engine, kPfs, grank);
        TIO_CO_RETURN_IF_ERROR(co_await stage_runs(runs, config, read_at, &staged));
      }
      trace::Span reply_span(engine, kReply, grank);
      for (int r = 0; r < comm.size(); ++r) {
        if (gathered[r].empty()) continue;
        Reply reply;
        for (const auto& p : gathered[r]) {
          reply.pieces.emplace_back(p, staged.read(p.offset, p.len));
        }
        std::uint64_t reply_bytes = 0;
        for (const auto& [p, fl] : reply.pieces) reply_bytes += fl.size();
        note_msg(comm, r, reply_bytes);
        co_await comm.send(r, kCbTagBase + j, std::move(reply), reply_bytes);
      }
    }

    // Phase 2: requesters collect replies and reassemble in request order.
    std::vector<std::vector<std::pair<Piece, FragmentList>>> by_want(wants.size());
    {
      trace::Span reply_span(engine, kReply, grank);
      for (const int j : reply_from) {
        const int root = aggs[static_cast<std::size_t>(j)];
        auto reply = co_await comm.recv<Reply>(root, kCbTagBase + j);
        for (auto& [p, fl] : reply.pieces) {
          by_want[p.want].emplace_back(p, std::move(fl));
        }
      }
    }
    for (std::uint32_t i = 0; i < wants.size(); ++i) {
      auto& pieces = by_want[i];
      std::sort(pieces.begin(), pieces.end(),
                [](const auto& a, const auto& b) { return a.first.offset < b.first.offset; });
      for (auto& [p, fl] : pieces) {
        for (const auto& frag : fl.fragments()) (*out)[i].append(frag);
        // Zero-pad pieces the aggregator could not fully satisfy.
        if (fl.size() < p.len) (*out)[i].append(DataView::zeros(p.len - fl.size()));
      }
    }
  } else {
    const mpi::NodeLayout& layout = comm.layout();
    const int me = comm.rank();
    const int my_node = layout.node_of[static_cast<std::size_t>(me)];
    const int leader = layout.leader_of(my_node);
    const int my_j = my_aggregator_slot(comm, aggs);
    // Members keep their piece lists: the leader replies with slices in
    // the same flattened (j-ascending, then list) order.
    const std::vector<std::vector<Piece>> my_pieces = outgoing;
    // Reassembles one rank's (piece, data) pairs into `out`, mirroring the
    // legacy path exactly (offset sort per want, zero-pad short pieces).
    const auto assemble = [&wants, out](std::vector<std::pair<Piece, FragmentList>> pieces) {
      std::vector<std::vector<std::pair<Piece, FragmentList>>> by_want(wants.size());
      for (auto& pr : pieces) by_want[pr.first.want].push_back(std::move(pr));
      for (std::uint32_t i = 0; i < wants.size(); ++i) {
        auto& v = by_want[i];
        std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
          return a.first.offset < b.first.offset;
        });
        for (auto& [p, fl] : v) {
          for (const auto& frag : fl.fragments()) (*out)[i].append(frag);
          if (fl.size() < p.len) (*out)[i].append(DataView::zeros(p.len - fl.size()));
        }
      }
    };

    // Phase 0: co-residents hand piece lists to the node leader, which
    // coalesces them into per-aggregator run lists.
    std::vector<std::vector<std::vector<Piece>>> member_pieces;  // leader only
    std::vector<std::vector<CbRange>> node_runs(num_aggs);       // leader only
    {
      trace::Span gather(engine, kGather, grank);
      if (me != leader) {
        std::uint64_t pieces = 0;
        for (const auto& per_agg : outgoing) pieces += per_agg.size();
        note_msg(comm, leader, 0);
        co_await comm.send(leader, kCbTagIntraR, std::move(outgoing), pieces * 24);
      } else {
        const std::vector<int>& residents = layout.members[static_cast<std::size_t>(my_node)];
        member_pieces.resize(residents.size());
        member_pieces[0] = std::move(outgoing);
        for (std::size_t i = 1; i < residents.size(); ++i) {
          member_pieces[i] = co_await comm.recv<std::vector<std::vector<Piece>>>(
              residents[i], kCbTagIntraR);
        }
        std::uint64_t pieces_in = 0;
        for (int j = 0; j < num_aggs; ++j) {
          std::map<std::uint64_t, std::uint64_t> merged;
          for (const auto& member : member_pieces) {
            for (const auto& p : member[j]) {
              ++pieces_in;
              merge_range(merged, p.offset, p.offset + p.len);
            }
          }
          node_runs[j].reserve(merged.size());
          for (const auto& [s, e] : merged) node_runs[j].push_back(CbRange{s, e - s});
          cbc().node_reqs_out.add(node_runs[j].size());
        }
        cbc().node_reqs_in.add(pieces_in);
      }
    }

    // Phase 1: leaders ship merged run lists — exactly nodes x aggregators
    // request messages; aggregators merge and stage the union.
    std::vector<std::vector<CbRange>> agg_requests;  // aggregator only, per node
    {
      trace::Span shuffle(engine, kShuffle, grank);
      if (me == leader) {
        for (int j = 0; j < num_aggs; ++j) {
          const int dst = aggs[static_cast<std::size_t>(j)];
          note_msg(comm, dst, 0);
          co_await comm.send(dst, kCbTagShipR + j, node_runs[j],
                             node_runs[j].size() * 24);
        }
      }
      if (my_j >= 0) {
        agg_requests.resize(layout.num_nodes());
        for (int node = 0; node < layout.num_nodes(); ++node) {
          agg_requests[node] = co_await comm.recv<std::vector<CbRange>>(
              layout.leader_of(node), kCbTagShipR + my_j);
        }
      }
    }

    pfs::ExtentMap staged;  // aggregator only
    if (my_j >= 0) {
      std::map<std::uint64_t, std::uint64_t> runs;
      for (const auto& per_node : agg_requests) {
        for (const auto& r : per_node) merge_range(runs, r.offset, r.offset + r.len);
      }
      trace::Span pfs(engine, kPfs, grank);
      TIO_CO_RETURN_IF_ERROR(co_await stage_runs(runs, config, read_at, &staged));
    }

    // Phase 2: aggregators answer each requesting leader with data for its
    // runs; leaders restage and fan slices out to their members.
    {
      trace::Span reply_span(engine, kReply, grank);
      if (my_j >= 0) {
        for (int node = 0; node < layout.num_nodes(); ++node) {
          if (agg_requests[node].empty()) continue;
          std::vector<FragmentList> reply;
          reply.reserve(agg_requests[node].size());
          std::uint64_t reply_bytes = 0;
          for (const auto& r : agg_requests[node]) {
            reply.push_back(staged.read(r.offset, r.len));
            reply_bytes += reply.back().size();
          }
          note_msg(comm, layout.leader_of(node), reply_bytes);
          co_await comm.send(layout.leader_of(node), kCbTagAggReply + my_j,
                             std::move(reply), reply_bytes);
        }
      }
      if (me == leader) {
        pfs::ExtentMap restaged;
        for (int j = 0; j < num_aggs; ++j) {
          if (node_runs[j].empty()) continue;
          const int root = aggs[static_cast<std::size_t>(j)];
          auto reply =
              co_await comm.recv<std::vector<FragmentList>>(root, kCbTagAggReply + j);
          for (std::size_t i = 0; i < node_runs[j].size(); ++i) {
            std::uint64_t at = node_runs[j][i].offset;
            for (const auto& frag : reply[i].fragments()) {
              restaged.write(at, frag);
              at += frag.size();
            }
          }
        }
        const std::vector<int>& residents = layout.members[static_cast<std::size_t>(my_node)];
        for (std::size_t i = 1; i < residents.size(); ++i) {
          std::vector<FragmentList> slices;
          std::uint64_t bytes = 0;
          for (int j = 0; j < num_aggs; ++j) {
            for (const auto& p : member_pieces[i][j]) {
              slices.push_back(restaged.read(p.offset, p.len));
              bytes += slices.back().size();
            }
          }
          note_msg(comm, residents[i], bytes);
          co_await comm.send(residents[i], kCbTagFanout, std::move(slices), bytes);
        }
        // The leader's own pieces, straight out of the restaged map.
        std::vector<std::pair<Piece, FragmentList>> mine;
        for (int j = 0; j < num_aggs; ++j) {
          for (const auto& p : member_pieces[0][j]) {
            mine.emplace_back(p, restaged.read(p.offset, p.len));
          }
        }
        assemble(std::move(mine));
      } else {
        auto slices = co_await comm.recv<std::vector<FragmentList>>(leader, kCbTagFanout);
        std::vector<std::pair<Piece, FragmentList>> mine;
        std::size_t k = 0;
        for (int j = 0; j < num_aggs; ++j) {
          for (const auto& p : my_pieces[j]) {
            mine.emplace_back(p, std::move(slices[k]));
            ++k;
          }
        }
        assemble(std::move(mine));
      }
    }
  }
  {
    trace::Span sync(engine, kSync, grank);
    co_await comm.barrier();
  }
  co_return Status::Ok();
}

}  // namespace tio::iolib
