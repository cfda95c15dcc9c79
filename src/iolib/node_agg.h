// Intra-node request aggregation for the collective-buffering layer.
//
// Kang et al. ("Improving MPI Collective I/O Performance With Intra-node
// Request Aggregation") observe that classic two-phase I/O ships every
// process's request list across the fabric even though most co-resident
// processes could have combined them for free: intra-node transport is
// orders of magnitude cheaper than a NIC crossing. The fix is a phase
// *before* the inter-node exchange — each node elects a leader that
// coalesces its co-residents' requests, so the fabric then carries
// `nodes x aggregators` messages instead of `ranks x aggregators`.
//
// Who lives where, and who leads each node, is the communicator's
// mpi::NodeLayout (Comm::layout), built once when the group forms. This
// header holds the message-census helper the observability counters use
// to classify a binomial gather's traffic without re-running it.
#pragma once

#include <cstdint>

#include "mpisim/comm.h"

namespace tio::iolib {

// Message census of a binomial gather rooted at `root` over `comm`: every
// non-root rank sends exactly once (to its virtual-tree parent), so the
// traffic is a pure function of (size, root, placement). Adds the
// intra-/inter-node split to `intra`/`inter`. The collective layer calls
// this on the gather's root only, once per gather, so each message is
// counted exactly once.
void count_binomial_gather(const mpi::Comm& comm, int root, std::uint64_t* intra,
                           std::uint64_t* inter);

}  // namespace tio::iolib
