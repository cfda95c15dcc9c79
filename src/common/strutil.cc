#include "common/strutil.h"

#include <cstdarg>
#include <cstdio>
#include <utility>

namespace tio {

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

std::string path_join(std::string_view a, std::string_view b) {
  if (a.empty()) return std::string(b);
  if (b.empty()) return std::string(a);
  while (!b.empty() && b.front() == '/') b.remove_prefix(1);
  std::string out;
  out.reserve(a.size() + 1 + b.size());  // one exact allocation
  out += a;
  if (out.back() != '/') out += '/';
  out += b;
  return out;
}

std::string_view path_dirname(std::string_view p) {
  const std::size_t pos = p.rfind('/');
  if (pos == std::string_view::npos) return ".";
  if (pos == 0) return "/";
  return p.substr(0, pos);
}

std::string_view path_basename(std::string_view p) {
  const std::size_t pos = p.rfind('/');
  if (pos == std::string_view::npos) return p;
  return p.substr(pos + 1);
}

std::string path_normalize(std::string_view p) {
  std::string out;
  out.reserve(p.size() + 1);
  out += '/';
  std::string_view comp;
  for (PathCursor cursor(p); cursor.next(&comp);) {
    if (out.size() > 1) out += '/';
    out += comp;
  }
  return out;
}

namespace {

// True when path_normalize would return `p` unchanged: "/" or a leading
// slash followed by non-empty, non-"." components and no trailing slash.
bool path_is_normal(std::string_view p) {
  if (p.empty() || p.front() != '/') return false;
  if (p.size() == 1) return true;
  std::size_t start = 1;
  while (true) {
    const std::size_t slash = p.find('/', start);
    const std::string_view part = p.substr(start, slash - start);
    if (part.empty() || part == ".") return false;
    if (slash == std::string_view::npos) return true;
    start = slash + 1;
  }
}

}  // namespace

std::string path_normalize(std::string&& p) {
  if (path_is_normal(p)) return std::move(p);
  return path_normalize(std::string_view(p));
}

std::string format_bytes(std::uint64_t bytes) {
  static constexpr const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB", "PiB"};
  double v = static_cast<double>(bytes);
  int u = 0;
  while (v >= 1024.0 && u < 5) {
    v /= 1024.0;
    ++u;
  }
  return str_printf(u == 0 ? "%.0f %s" : "%.1f %s", v, kUnits[u]);
}

std::string format_si(double v, std::string_view unit) {
  static constexpr const char* kPrefix[] = {"", "K", "M", "G", "T", "P"};
  int u = 0;
  double a = v < 0 ? -v : v;
  while (a >= 1000.0 && u < 5) {
    a /= 1000.0;
    v /= 1000.0;
    ++u;
  }
  return str_printf("%.2f %s%.*s", v, kPrefix[u], static_cast<int>(unit.size()), unit.data());
}

std::string str_printf(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
  if (n > 0) std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  va_end(ap2);
  return out;
}

}  // namespace tio
