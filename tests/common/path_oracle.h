// Reference path splitter the component cursor is checked against: the
// vector-returning walk the namespace layers used before PathCursor.
#pragma once

#include <string_view>
#include <vector>

namespace tio::test {

// Components of a '/'-separated path, empty and "." ones skipped
// ("/a/b" -> {"a", "b"}).
std::vector<std::string_view> path_components(std::string_view p);

}  // namespace tio::test
