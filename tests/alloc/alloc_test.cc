// Allocation pins for the metadata path: resolving a path allocates
// nothing. This is its own test binary because it replaces the global
// operator new with a counting one.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>

#include "common/strutil.h"
#include "common/units.h"
#include "net/cluster.h"
#include "pfs/namespace.h"
#include "pfs/sim_pfs.h"
#include "sim/engine.h"

namespace {

std::atomic<std::uint64_t> g_news{0};
std::string* g_sink = nullptr;  // keeps the calibration allocation observable

void* counted_new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_new(n); }
void* operator new[](std::size_t n) { return counted_new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tio {
namespace {

// operator new calls made while running `fn`.
template <typename Fn>
std::uint64_t news_during(Fn&& fn) {
  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  std::forward<Fn>(fn)();
  return g_news.load(std::memory_order_relaxed) - before;
}

// A file ten directories deep: "/d0/d1/.../d9/leaf".
std::string deep_file(pfs::Namespace& ns) {
  std::string dir;
  for (int i = 0; i < 10; ++i) dir += "/d" + std::to_string(i);
  EXPECT_TRUE(ns.mkdir_all(dir).ok());
  const std::string file = dir + "/leaf";
  EXPECT_TRUE(ns.create_file(file, true).ok());
  return file;
}

TEST(AllocPin, CounterSeesAllocations) {
  // A heap string: the object itself and its out-of-line buffer.
  EXPECT_EQ(news_during([] { g_sink = new std::string(64, 'x'); }), 2u);
  delete g_sink;
  g_sink = nullptr;
}

TEST(AllocPin, NamespaceLookupHit) {
  pfs::Namespace ns;
  const std::string file = deep_file(ns);
  bool hit = false;
  EXPECT_EQ(news_during([&] {
              auto entry = ns.lookup(file);
              hit = entry.ok() && !entry->is_dir;
            }),
            0u);
  EXPECT_TRUE(hit);
}

TEST(AllocPin, NamespaceProbeMiss) {
  pfs::Namespace ns;
  const std::string missing = deep_file(ns) + ".new";
  bool miss = false;
  EXPECT_EQ(news_during([&] { miss = !ns.probe(missing).has_value(); }), 0u);
  EXPECT_TRUE(miss);
}

TEST(AllocPin, CreateExistingNonExcl) {
  pfs::Namespace ns;
  const std::string file = deep_file(ns);
  bool reused = false;
  EXPECT_EQ(news_during([&] {
              auto created = ns.create_file(file, /*excl=*/false);
              reused = created.ok() && !created->created;
            }),
            0u);
  EXPECT_TRUE(reused);
}

TEST(AllocPin, MdsOfPath) {
  sim::Engine engine;
  net::ClusterConfig cc;
  cc.nodes = 4;
  cc.page_cache_per_node = 1_MiB;
  net::Cluster cluster(engine, cc);
  pfs::PfsConfig pc;
  pc.num_mds = 9;
  pfs::SimPfs fs(cluster, pc);
  const std::string realm = "/vol7/container/hostdir.3/data.17";
  const std::string hashed = "//scratch/./run/out.0";
  std::size_t groups[2] = {};
  EXPECT_EQ(news_during([&] {
              groups[0] = fs.mds_of_path(realm);
              groups[1] = fs.mds_of_path(hashed);
            }),
            0u);
  EXPECT_EQ(groups[0], 7u);
  EXPECT_LT(groups[1], 9u);
}

TEST(AllocPin, CursorWalk) {
  const std::string path = "//a/./bb/ccc//dddd/./eeeee/ffffff/";
  std::size_t count = 0;
  std::size_t bytes = 0;
  EXPECT_EQ(news_during([&] {
              std::string_view comp;
              for (PathCursor cursor(path); cursor.next(&comp);) {
                ++count;
                bytes += comp.size();
              }
            }),
            0u);
  EXPECT_EQ(count, 6u);
  EXPECT_EQ(bytes, 21u);
}

TEST(AllocPin, NormalizeInPlace) {
  std::string path = "/a/path/that/is/already/normal/and/long";
  std::string out;
  EXPECT_EQ(news_during([&] { out = path_normalize(std::move(path)); }), 0u);
  EXPECT_EQ(out, "/a/path/that/is/already/normal/and/long");
}

}  // namespace
}  // namespace tio
