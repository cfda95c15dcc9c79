#include "common/path_oracle.h"

#include "common/strutil.h"

namespace tio::test {

std::vector<std::string_view> path_components(std::string_view p) {
  std::vector<std::string_view> out;
  for (auto part : split(p, '/')) {
    if (!part.empty() && part != ".") out.push_back(part);
  }
  return out;
}

}  // namespace tio::test
