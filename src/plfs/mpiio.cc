#include "plfs/mpiio.h"

#include <cmath>

#include "common/stats.h"
#include "common/trace.h"
#include "plfs/pattern.h"

namespace tio::plfs {

namespace {

// Open-phase spans, tiling every rank's aggregation so the Fig. 4 breakdown
// (index read / merge / exchange / broadcast) can be recovered from a trace
// by summing spans per rank. A phase may open more than once on one rank
// (e.g. "exchange" resumes after the leader merge).
const trace::SpanSite& open_read_site() {
  static const trace::SpanSite site("plfs.open", "plfs.open.index_read");
  return site;
}
const trace::SpanSite& open_merge_site() {
  static const trace::SpanSite site("plfs.open", "plfs.open.merge");
  return site;
}
const trace::SpanSite& open_exchange_site() {
  static const trace::SpanSite site("plfs.open", "plfs.open.exchange");
  return site;
}
const trace::SpanSite& open_broadcast_site() {
  static const trace::SpanSite site("plfs.open", "plfs.open.broadcast");
  return site;
}

// Group size for Parallel Index Read: configured, else ~sqrt(n) so the
// leader tier and the member tier are balanced.
std::size_t group_size_for(const PlfsMount& mount, int nprocs) {
  if (mount.parallel_read_group > 0) return mount.parallel_read_group;
  const auto g = static_cast<std::size_t>(std::lround(std::sqrt(static_cast<double>(nprocs))));
  return std::max<std::size_t>(1, g);
}

// Sentinel broadcast by rank 0 when the flattened index is unusable and
// every rank must degrade to Parallel Index Read instead.
constexpr std::uint64_t kFlattenUnusable = ~std::uint64_t{0};

sim::Task<Result<IndexPtr>> aggregate_parallel(Plfs& plfs, mpi::Comm& comm,
                                               const std::string& logical);

sim::Task<Result<IndexPtr>> aggregate_flatten(Plfs& plfs, mpi::Comm& comm,
                                              const std::string& logical) {
  const pfs::IoCtx ctx{comm.my_node(), comm.global_rank()};
  // Root reads the flattened index; everyone receives it by broadcast. A
  // missing, truncated, or corrupt flattened index (integrity trailer
  // verification failed, or the file never survived its close) is not
  // fatal: the per-writer index logs are still authoritative, so the
  // collective degrades to Parallel Index Read.
  IndexPtr index;
  std::uint64_t bytes = 0;
  if (comm.rank() == 0) {
    auto read = co_await plfs.read_global_index(ctx, logical);
    if (read.ok()) {
      index = std::move(read.value());
      bytes = index->serialized_bytes(plfs.mount().index_wire);
    } else {
      static Counter& index_fallback = counter("plfs.degrade.index_fallback");
      index_fallback.add(1);
      bytes = kFlattenUnusable;
    }
  }
  // Non-root ranks spend the whole open inside this broadcast (waiting for
  // the root's read is part of receiving the index).
  trace::Span bcast_span(comm.engine(), open_broadcast_site(), ctx.rank);
  bytes = co_await comm.bcast(0, bytes, 8);
  if (bytes == kFlattenUnusable) {
    bcast_span.end();
    co_return co_await aggregate_parallel(plfs, comm, logical);
  }
  index = co_await comm.bcast(0, std::move(index), bytes);
  co_return index;
}

sim::Task<Result<IndexPtr>> aggregate_parallel(Plfs& plfs, mpi::Comm& comm,
                                               const std::string& logical) {
  const pfs::IoCtx ctx{comm.my_node(), comm.global_rank()};
  const int n = comm.size();

  // 1. One process enumerates the index logs and broadcasts the work list.
  // (The byte count is broadcast first so every relaying rank charges the
  // correct transfer volume.) Discovery counts as "index read" in the
  // phase breakdown: it is the metadata half of reading the index.
  trace::Span read_span(comm.engine(), open_read_site(), ctx.rank);
  std::vector<Plfs::IndexLogRef> logs;
  if (comm.rank() == 0) {
    auto listed = co_await plfs.list_index_logs(ctx, logical);
    if (!listed.ok()) co_return listed.status();
    logs = std::move(listed.value());
  }
  const std::uint64_t list_bytes =
      co_await comm.bcast(0, static_cast<std::uint64_t>(64 * logs.size()), 8);
  auto shared_logs = co_await comm.bcast(
      0, std::make_shared<const std::vector<Plfs::IndexLogRef>>(std::move(logs)), list_bytes);

  // 2. Each rank reads its disjoint share of the index logs and k-way
  // merges them (each log is a timestamp-sorted run) into one sorted run.
  IndexBuilder my_runs;
  for (std::size_t i = comm.rank(); i < shared_logs->size(); i += n) {
    auto entries = co_await plfs.read_index_log(ctx, logical, (*shared_logs)[i].path);
    if (!entries.ok()) co_return entries.status();
    my_runs.add_run(std::move(entries.value()));
  }
  std::vector<IndexEntry> mine = my_runs.merged_run();
  read_span.end();

  // 3. Two-level aggregation: members -> group leader, leaders <-> leaders.
  trace::Span exchange_span(comm.engine(), open_exchange_site(), ctx.rank);
  const auto gsize = static_cast<int>(group_size_for(plfs.mount(), n));
  // Default: contiguous rank blocks of gsize. Rack-aware: one group per
  // rack, so member gathers never leave a ToR and (with block placement)
  // exactly one leader lands in each occupied rack.
  const int group_color = plfs.mount().rack_aware_groups
                              ? static_cast<int>(comm.rack_of_rank(comm.rank()))
                              : comm.rank() / gsize;
  mpi::Comm group = co_await comm.split(group_color, comm.rank());
  const bool leader = group.rank() == 0;
  mpi::Comm leaders = co_await comm.split(leader ? 0 : 1, comm.rank());

  // Runs travel pattern-compressed under wire v2: the transfer volume every
  // collective below charges is the encoded size, not count * 40.
  const WireFormat wire = plfs.mount().index_wire;
  const std::uint64_t my_bytes = encoded_size(mine, wire);
  auto member_runs = co_await group.gather(0, std::move(mine), my_bytes);

  IndexPtr index;
  if (leader) {
    // Merge the group's member runs into one sorted run; sorted runs (not
    // raw pools) are what leaders exchange.
    IndexBuilder group_builder;
    for (auto& run : member_runs) group_builder.add_entries(std::move(run));
    auto group_run =
        std::make_shared<const std::vector<IndexEntry>>(group_builder.merged_run());
    const std::uint64_t run_bytes = encoded_size(*group_run, wire);
    // Runs travel as shared structure: every leader logically holds the
    // full entry set (and is charged transfer + merge CPU for it), but the
    // simulator keeps one copy — 65,536-rank runs would otherwise
    // materialize hundreds of copies of a million-entry run.
    auto all_runs = co_await leaders.allgather(std::move(group_run), run_bytes);
    std::size_t total = 0;
    for (const auto& r : all_runs) total += r->size();
    // The merge CPU sits between two exchange collectives: close the
    // exchange span across it so the phases stay disjoint.
    exchange_span.end();
    {
      trace::Span merge_span(comm.engine(), open_merge_site(), ctx.rank);
      co_await comm.engine().sleep(plfs.mount().index_cpu_per_entry *
                                   static_cast<std::int64_t>(total));
    }
    exchange_span = trace::Span(comm.engine(), open_exchange_site(), ctx.rank);
    if (leaders.rank() == 0) {
      IndexBuilder global_builder;
      for (const auto& r : all_runs) global_builder.add_run(r);
      index = global_builder.build();
    }
    // Zero-byte structure share among leaders (each already paid the merge).
    index = co_await leaders.bcast(0, std::move(index), 0);
  }
  exchange_span.end();

  // 4. Leaders broadcast the merged global index within their group.
  trace::Span bcast_span(comm.engine(), open_broadcast_site(), ctx.rank);
  const std::uint64_t idx_bytes = leader ? index->serialized_bytes(wire) : 0;
  try {
    const std::uint64_t bytes = co_await group.bcast(0, idx_bytes, 8);
    index = co_await group.bcast(0, std::move(index), bytes);
  } catch (const std::exception& e) {
    throw std::runtime_error(std::string(e.what()) + " [step4 n=" + std::to_string(n) +
                             " gsize=" + std::to_string(gsize) + " grank=" +
                             std::to_string(group.rank()) + " gsizeactual=" +
                             std::to_string(group.size()) + " gctx=" +
                             std::to_string(group.context()) + " lctx=" +
                             std::to_string(leaders.context()) + "]");
  }
  co_return index;
}

}  // namespace

sim::Task<Result<IndexPtr>> aggregate_index(Plfs& plfs, mpi::Comm& comm,
                                            const std::string& logical, ReadStrategy strategy) {
  const pfs::IoCtx ctx{comm.my_node(), comm.global_rank()};
  switch (strategy) {
    case ReadStrategy::original: {
      // Uncoordinated: every rank aggregates on its own.
      auto idx = co_await plfs.build_index_serial(ctx, logical);
      if (!idx.ok()) co_return idx.status();
      co_return std::move(idx.value());
    }
    case ReadStrategy::index_flatten:
      co_return co_await aggregate_flatten(plfs, comm, logical);
    case ReadStrategy::parallel_read:
      co_return co_await aggregate_parallel(plfs, comm, logical);
  }
  co_return error(Errc::invalid, "unknown read strategy");
}

sim::Task<Result<std::unique_ptr<MpiFile>>> MpiFile::open_write(Plfs& plfs, mpi::Comm& comm,
                                                                std::string logical) {
  std::unique_ptr<MpiFile> file(new MpiFile(plfs, comm, logical));
  auto wh = co_await plfs.open_write(file->ctx(), std::move(logical), comm.rank());
  if (!wh.ok()) co_return wh.status();
  file->write_ = std::move(wh.value());
  co_await comm.barrier();  // collective open completes together
  co_return file;
}

sim::Task<Status> MpiFile::write(std::uint64_t offset, DataView data) {
  if (!write_) co_return error(Errc::bad_handle, "not open for write");
  co_return co_await write_->write(offset, std::move(data));
}

sim::Task<Status> MpiFile::close_write(bool flatten) {
  if (!write_) co_return error(Errc::bad_handle, "not open for write");
  // Index Flatten only proceeds when every writer buffered at most the
  // threshold's worth of entries (the paper's condition).
  if (flatten) {
    static const trace::SpanSite kGatherSite("plfs.close", "plfs.close.flatten_gather");
    static const trace::SpanSite kWriteSite("plfs.close", "plfs.close.flatten_write");
    trace::Span gather_span(comm_->engine(), kGatherSite, comm_->global_rank());
    const std::uint64_t my_entries = write_->entries().size();
    const std::uint64_t max_entries = co_await comm_->allreduce(
        my_entries, 8, [](std::uint64_t a, std::uint64_t b) { return std::max(a, b); });
    if (max_entries <= plfs_->mount().flatten_threshold) {
      const std::uint64_t bytes = encoded_size(write_->entries(), plfs_->mount().index_wire);
      auto pools = co_await comm_->gather(0, write_->entries(), bytes);
      gather_span.end();
      if (comm_->rank() == 0) {
        trace::Span write_span(comm_->engine(), kWriteSite, comm_->global_rank());
        // Each writer's entry pool is already a timestamp-sorted run.
        IndexBuilder builder;
        for (auto& p : pools) builder.add_entries(std::move(p));
        co_await comm_->engine().sleep(plfs_->mount().index_cpu_per_entry *
                                       static_cast<std::int64_t>(builder.total_entries()));
        const IndexPtr global = builder.build();
        const Status wrote = co_await plfs_->write_global_index(ctx(), logical_, *global);
        if (!wrote.ok()) {
          // Flatten is an optimization, not the source of truth: the
          // per-writer logs are already durable, so abandon the flattened
          // copy (best-effort removal of any partial file — readers that
          // still find a torn one are caught by the integrity trailer) and
          // let the close finish clean.
          static Counter& flatten_abort = counter("plfs.degrade.flatten_abort");
          flatten_abort.add(1);
          const Status removed = co_await plfs_->backend_fs().unlink(
              ctx(), plfs_->layout(logical_).global_index_path());
          (void)removed;
        }
      }
    }
  }
  TIO_CO_RETURN_IF_ERROR(co_await write_->close());
  write_.reset();
  co_await comm_->barrier();
  co_return Status::Ok();
}

sim::Task<Result<std::unique_ptr<MpiFile>>> MpiFile::open_read(Plfs& plfs, mpi::Comm& comm,
                                                               std::string logical,
                                                               ReadStrategy strategy) {
  std::unique_ptr<MpiFile> file(new MpiFile(plfs, comm, logical));
  auto index = co_await aggregate_index(plfs, comm, file->logical_, strategy);
  if (!index.ok()) co_return index.status();
  auto rh = co_await plfs.open_read(file->ctx(), file->logical_, std::move(index.value()));
  if (!rh.ok()) co_return rh.status();
  file->read_ = std::move(rh.value());
  co_await comm.barrier();
  co_return file;
}

sim::Task<Result<FragmentList>> MpiFile::read(std::uint64_t offset, std::uint64_t len) {
  if (!read_) co_return error(Errc::bad_handle, "not open for read");
  co_return co_await read_->read(offset, len);
}

sim::Task<Status> MpiFile::close_read() {
  if (!read_) co_return error(Errc::bad_handle, "not open for read");
  TIO_CO_RETURN_IF_ERROR(co_await read_->close());
  read_.reset();
  co_await comm_->barrier();
  co_return Status::Ok();
}

}  // namespace tio::plfs
