// ADIO-like collective layer: PLFS + a communicator.
//
// This is the paper's third PLFS interface (Section II): by inheriting the
// job's communicator, PLFS can coordinate processes and transform the read
// I/O workload. The three index-aggregation strategies live here:
//
//   * Original       — no coordination; every reader reads every index log
//                      (N^2 opens on the underlying file system).
//   * Index Flatten  — at collective close, writers' buffered entries are
//                      gathered to a root which writes one global index
//                      file; a read-open is one file read plus a broadcast.
//   * Parallel Index Read — at read-open, ranks read disjoint subsets of
//                      the index logs, group leaders merge, leaders
//                      exchange, and leaders broadcast the global index
//                      (N opens total, no write-path cost).
#pragma once

#include <memory>
#include <string>

#include "mpisim/comm.h"
#include "plfs/plfs.h"

namespace tio::plfs {

// Collective index aggregation; every rank of `comm` must call. Returns the
// same global index on every rank.
sim::Task<Result<IndexPtr>> aggregate_index(Plfs& plfs, mpi::Comm& comm,
                                            const std::string& logical, ReadStrategy strategy);

// A rank's slice of a collectively opened PLFS file.
class MpiFile {
 public:
  // Collective write-mode open (every rank of comm participates).
  static sim::Task<Result<std::unique_ptr<MpiFile>>> open_write(Plfs& plfs, mpi::Comm& comm,
                                                                std::string logical);
  // Independent data-path write (no coordination needed, like MPI_File_write_at).
  sim::Task<Status> write(std::uint64_t offset, DataView data);
  // Collective close. With `flatten`, performs Index Flatten if every
  // writer stayed under the mount's flatten_threshold.
  sim::Task<Status> close_write(bool flatten);

  // Collective read-mode open using the given aggregation strategy.
  static sim::Task<Result<std::unique_ptr<MpiFile>>> open_read(Plfs& plfs, mpi::Comm& comm,
                                                               std::string logical,
                                                               ReadStrategy strategy);
  sim::Task<Result<FragmentList>> read(std::uint64_t offset, std::uint64_t len);
  sim::Task<Status> close_read();

  std::uint64_t logical_size() const { return read_ ? read_->logical_size() : 0; }
  const FlatIndex* index() const { return read_ ? &read_->index() : nullptr; }
  WriteHandle* write_handle() { return write_.get(); }

 private:
  MpiFile(Plfs& plfs, mpi::Comm& comm, std::string logical)
      : plfs_(&plfs), comm_(&comm), logical_(std::move(logical)) {}

  pfs::IoCtx ctx() const {
    return pfs::IoCtx{comm_->my_node(), comm_->global_rank()};
  }

  Plfs* plfs_;
  mpi::Comm* comm_;
  std::string logical_;
  std::unique_ptr<WriteHandle> write_;
  std::unique_ptr<ReadHandle> read_;
};

}  // namespace tio::plfs
