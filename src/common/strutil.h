// Small string and path helpers shared by the namespace layers.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tio {

std::vector<std::string_view> split(std::string_view s, char sep);
std::string join(const std::vector<std::string>& parts, std::string_view sep);

// POSIX-style path helpers operating on '/'-separated logical paths.
std::string path_join(std::string_view a, std::string_view b);
std::string_view path_dirname(std::string_view p);   // "/a/b/c" -> "/a/b", "/a" -> "/"
std::string_view path_basename(std::string_view p);  // "/a/b/c" -> "c"

// Allocation-free walk over the components of a '/'-separated path:
// empty and "." components are skipped, so "//a/./b/" yields "a", "b" and
// "/" or "" yield nothing. The views point into the walked string, which
// must outlive them.
//
//   std::string_view comp;
//   for (PathCursor cursor(path); cursor.next(&comp);) { ... }
class PathCursor {
 public:
  explicit PathCursor(std::string_view path) : rest_(path) {}

  // Stores the next component in *comp and returns true; false at the end.
  bool next(std::string_view* comp) {
    while (!rest_.empty()) {
      const std::size_t slash = rest_.find('/');
      const std::string_view part = rest_.substr(0, slash);
      rest_.remove_prefix(slash == std::string_view::npos ? rest_.size() : slash + 1);
      if (!part.empty() && part != ".") {
        *comp = part;
        return true;
      }
    }
    return false;
  }

 private:
  std::string_view rest_;
};

// Normalizes to an absolute path with no trailing slash (except root), no
// empty components. Does not resolve "." / "..".
std::string path_normalize(std::string_view p);
// Same, reusing the argument's buffer: an already-normal path is handed
// back untouched, without allocating.
std::string path_normalize(std::string&& p);
inline std::string path_normalize(const char* p) { return path_normalize(std::string_view(p)); }

std::string format_bytes(std::uint64_t bytes);           // "50.0 MiB"
std::string format_si(double v, std::string_view unit);  // "1.25 GB/s"
std::string str_printf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace tio
