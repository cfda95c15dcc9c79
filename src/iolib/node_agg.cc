#include "iolib/node_agg.h"

namespace tio::iolib {

void count_binomial_gather(const mpi::Comm& comm, int root, std::uint64_t* intra,
                           std::uint64_t* inter) {
  const std::vector<int>& node_of = comm.layout().node_of;
  const int n = comm.size();
  // Virtual rank v sends exactly once, to parent v - lowbit(v) (see
  // Comm::gather); translate back to comm ranks and classify by node.
  for (int v = 1; v < n; ++v) {
    const int src = (v + root) % n;
    const int parent = v - (v & -v);
    const int dst = (parent + root) % n;
    if (node_of[static_cast<std::size_t>(src)] == node_of[static_cast<std::size_t>(dst)]) {
      ++*intra;
    } else {
      ++*inter;
    }
  }
}

}  // namespace tio::iolib
