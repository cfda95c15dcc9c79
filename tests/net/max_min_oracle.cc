#include "net/max_min_oracle.h"

#include <algorithm>
#include <limits>

namespace tio::net {

std::vector<double> max_min_rates(const std::vector<double>& capacity,
                                  const std::vector<std::vector<std::uint32_t>>& paths) {
  const std::size_t num_flows = paths.size();
  const std::size_t num_links = capacity.size();
  std::vector<double> rate(num_flows, 0.0);
  std::vector<char> frozen(num_flows, 0);
  std::vector<double> residual = capacity;
  std::vector<std::uint32_t> load(num_links, 0);

  std::size_t unfrozen = 0;
  for (std::size_t f = 0; f < num_flows; ++f) {
    if (paths[f].empty()) {
      rate[f] = std::numeric_limits<double>::infinity();
      frozen[f] = 1;
    } else {
      ++unfrozen;
    }
  }
  while (unfrozen > 0) {
    std::fill(load.begin(), load.end(), 0u);
    for (std::size_t f = 0; f < num_flows; ++f) {
      if (frozen[f]) continue;
      for (const std::uint32_t l : paths[f]) ++load[l];
    }
    // Bottleneck: the link giving its flows the smallest equal share; the
    // lowest index wins ties, so the fill order is deterministic.
    std::size_t bottleneck = num_links;
    double share = 0;
    for (std::size_t l = 0; l < num_links; ++l) {
      if (load[l] == 0) continue;
      const double s = residual[l] / static_cast<double>(load[l]);
      if (bottleneck == num_links || s < share) {
        bottleneck = l;
        share = s;
      }
    }
    if (bottleneck == num_links) break;  // no loaded link left (unreachable)
    for (std::size_t f = 0; f < num_flows; ++f) {
      if (frozen[f]) continue;
      bool crosses = false;
      for (const std::uint32_t l : paths[f]) crosses = crosses || l == bottleneck;
      if (!crosses) continue;
      rate[f] = share;
      frozen[f] = 1;
      --unfrozen;
      for (const std::uint32_t l : paths[f]) residual[l] = std::max(0.0, residual[l] - share);
    }
  }
  return rate;
}

}  // namespace tio::net
