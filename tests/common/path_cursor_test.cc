// PathCursor and path_normalize against the vector-splitting oracle: an
// edge corpus plus seeded random paths over an alphabet dense in '/' and
// '.', so runs of slashes, "." and ".x" components and trailing slashes
// all occur.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/path_oracle.h"
#include "common/strutil.h"

namespace tio {
namespace {

std::vector<std::string_view> cursor_components(std::string_view p) {
  std::vector<std::string_view> out;
  std::string_view comp;
  for (PathCursor cursor(p); cursor.next(&comp);) out.push_back(comp);
  return out;
}

const std::vector<std::string>& edge_corpus() {
  static const std::vector<std::string> corpus = {
      "", "/", "//", "///", ".", "/.", "./", "/./", "//a//b/", "/./a/./b", "/a/b/c",
      "a", "a/b", "./a", "a/./b", "a/b/", "/a/b/", "/a//./b//./", "..", "/../a",
      "/a/.b/c.", "/a/..../b", " / ", "/vol3/x", "vol3", "/a/b/c/d/e/f/g/h/i/j/k"};
  return corpus;
}

std::vector<std::string> random_paths(std::uint64_t seed, std::size_t count) {
  static constexpr char kAlphabet[] = {'/', '/', '.', 'a', 'b', 'c'};
  std::mt19937_64 rng(seed);
  std::vector<std::string> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::string p(rng() % 25, '\0');
    for (char& c : p) c = kAlphabet[rng() % sizeof(kAlphabet)];
    out.push_back(std::move(p));
  }
  return out;
}

std::string oracle_normalize(std::string_view p) {
  std::string out = "/";
  for (const auto comp : test::path_components(p)) {
    if (out.size() > 1) out += '/';
    out += comp;
  }
  return out;
}

TEST(PathComponents, Cases) {
  EXPECT_EQ(test::path_components("/a/b/c"), (std::vector<std::string_view>{"a", "b", "c"}));
  EXPECT_TRUE(test::path_components("/").empty());
  EXPECT_TRUE(test::path_components("").empty());
  EXPECT_EQ(cursor_components("/a/b/c"), (std::vector<std::string_view>{"a", "b", "c"}));
  EXPECT_TRUE(cursor_components("/").empty());
  EXPECT_TRUE(cursor_components("").empty());
}

TEST(PathCursor, MatchesOracleOnEdgeCorpus) {
  for (const std::string& p : edge_corpus()) {
    EXPECT_EQ(cursor_components(p), test::path_components(p)) << '"' << p << '"';
  }
}

TEST(PathCursor, MatchesOracleOnRandomPaths) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    for (const std::string& p : random_paths(seed, 20000)) {
      ASSERT_EQ(cursor_components(p), test::path_components(p))
          << "seed " << seed << ": \"" << p << '"';
    }
  }
}

TEST(PathCursor, ViewsPointIntoTheWalkedString) {
  const std::string path = "//a/./bc/";
  for (const auto comp : cursor_components(path)) {
    EXPECT_GE(comp.data(), path.data());
    EXPECT_LE(comp.data() + comp.size(), path.data() + path.size());
  }
}

TEST(PathNormalize, RvalueMatchesViewOnCorpusAndRandomPaths) {
  std::vector<std::string> inputs = edge_corpus();
  for (const std::string& p : random_paths(7, 20000)) inputs.push_back(p);
  for (const std::string& p : inputs) {
    const std::string by_view = path_normalize(std::string_view(p));
    ASSERT_EQ(by_view, oracle_normalize(p)) << '"' << p << '"';
    ASSERT_EQ(path_normalize(std::string(p)), by_view) << '"' << p << '"';
  }
}

}  // namespace
}  // namespace tio
