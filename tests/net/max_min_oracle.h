// Test-only reference for FlowNet's water-filling: a direct transcription
// of the max-min definition that recounts every link's load from scratch
// each round and scans every link. FlowNet computes the same rates over
// the loaded links only; the differential suites compare the two, and
// nothing outside tests/ links this.
#pragma once

#include <cstdint>
#include <vector>

namespace tio::net {

// Returns one rate per flow, where flow f crosses the links in `paths[f]`.
// Repeatedly finds the bottleneck link (smallest residual capacity /
// unfrozen flow count; ties on the lowest link index), freezes its flows
// at that equal share, and subtracts them from every link they cross.
// Flows with an empty path are unconstrained and get an infinite rate.
std::vector<double> max_min_rates(const std::vector<double>& capacity,
                                  const std::vector<std::vector<std::uint32_t>>& paths);

}  // namespace tio::net
