// Golden event schedule of SimPfs's metadata mutation routes.
//
// One fixed script of concurrent clients on two volumes (two MDS groups)
// runs creates (two of them racing wr_create_excl on one path), mkdir,
// rmdir, unlink, renames within and across directories, stat and close.
// Every op's status and virtual completion time, the final virtual clock,
// and the mutation counters are pinned in all four batching x replication
// modes, each with the lease cache off and at 50 ms. The values are the
// schedule of the per-kind routes this file was written against; a change
// to how mutations are routed must reproduce them exactly.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/stats.h"
#include "pfs/sim_pfs.h"
#include "sim/sync.h"

namespace tio::pfs {
namespace {

struct Mode {
  std::size_t batch = 0;
  bool replicated = false;
  Duration lease = Duration::zero();
};

struct World {
  explicit World(const Mode& m) : cluster(engine, cluster_config()), fs(cluster, pfs_config(m)) {}
  static net::ClusterConfig cluster_config() {
    net::ClusterConfig c;
    c.nodes = 8;
    c.cores_per_node = 4;
    return c;
  }
  static PfsConfig pfs_config(const Mode& m) {
    PfsConfig c;
    c.num_mds = 4;
    c.num_osts = 4;
    c.mds_batch = m.batch;
    c.meta_lease = m.lease;
    if (m.replicated) c.mds_replication = MdsReplication::raft;
    return c;
  }
  sim::Engine engine;
  net::Cluster cluster;
  SimPfs fs;
};

// Completion log: one line per op, in virtual completion order.
struct Log {
  std::string text;
  void add(sim::Engine& e, int rank, std::string_view op, const std::string& path,
           const Status& st) {
    text += std::to_string(e.now().to_ns()) + " r" + std::to_string(rank) + " " +
            std::string(op) + " " + path + " " + std::string(errc_name(st.code())) + "\n";
  }
};

sim::Task<Status> create_close(SimPfs& fs, IoCtx ctx, std::string path, OpenFlags flags,
                               Log& log) {
  auto fd = co_await fs.open(ctx, path, flags);
  log.add(fs.engine(), ctx.rank, "create", path, fd.status());
  if (!fd.ok()) co_return fd.status();
  const Status st = co_await fs.close(ctx, *fd);
  log.add(fs.engine(), ctx.rank, "close", path, st);
  co_return st;
}

// Two racing exclusive creates of one path: exactly one wins.
sim::Task<void> racer(SimPfs& fs, Log& log, int rank) {
  const IoCtx ctx{static_cast<std::size_t>(rank), rank};
  (void)co_await create_close(fs, ctx, "/vol0/d/race", OpenFlags::wr_create_excl(), log);
}

// mkdir, renames within and across directories, rmdir empty and
// non-empty, stat and unlink, all in one volume.
sim::Task<void> renamer(SimPfs& fs, Log& log) {
  const IoCtx ctx{2, 2};
  sim::Engine& e = fs.engine();
  log.add(e, 2, "mkdir", "/vol0/d/a", co_await fs.mkdir(ctx, "/vol0/d/a"));
  (void)co_await create_close(fs, ctx, "/vol0/d/a/x", OpenFlags::wr_create(), log);
  log.add(e, 2, "rename", "/vol0/d/a/x", co_await fs.rename(ctx, "/vol0/d/a/x", "/vol0/d/a/y"));
  log.add(e, 2, "mkdir", "/vol0/d/b", co_await fs.mkdir(ctx, "/vol0/d/b"));
  log.add(e, 2, "rename", "/vol0/d/a/y", co_await fs.rename(ctx, "/vol0/d/a/y", "/vol0/d/b/y"));
  log.add(e, 2, "rmdir", "/vol0/d/a", co_await fs.rmdir(ctx, "/vol0/d/a"));
  log.add(e, 2, "rmdir", "/vol0/d/b", co_await fs.rmdir(ctx, "/vol0/d/b"));
  auto st = co_await fs.stat(ctx, "/vol0/d/b/y");
  log.add(e, 2, "stat", "/vol0/d/b/y", st.status());
  log.add(e, 2, "unlink", "/vol0/d/b/y", co_await fs.unlink(ctx, "/vol0/d/b/y"));
  log.add(e, 2, "rmdir", "/vol0/d/b", co_await fs.rmdir(ctx, "/vol0/d/b"));
}

// Creates, repeat stats (lease hits when the cache is on), unlink twice,
// and a mkdir that already exists, in the second volume.
sim::Task<void> creator(SimPfs& fs, Log& log) {
  const IoCtx ctx{3, 3};
  sim::Engine& e = fs.engine();
  log.add(e, 3, "mkdir", "/vol1/e/m", co_await fs.mkdir(ctx, "/vol1/e/m"));
  for (int i = 0; i < 3; ++i) {
    (void)co_await create_close(fs, ctx, "/vol1/e/m/f" + std::to_string(i),
                                OpenFlags::wr_create_excl(), log);
  }
  for (int i = 0; i < 2; ++i) {
    auto st = co_await fs.stat(ctx, "/vol1/e/m/f1");
    log.add(e, 3, "stat", "/vol1/e/m/f1", st.status());
  }
  for (int i = 0; i < 2; ++i) {
    log.add(e, 3, "unlink", "/vol1/e/m/f0", co_await fs.unlink(ctx, "/vol1/e/m/f0"));
  }
  log.add(e, 3, "mkdir", "/vol1/e/m", co_await fs.mkdir(ctx, "/vol1/e/m"));
}

// Another node opening what the creator made: its own leases, and the
// non-creating open paths (existing file, excl on an existing path).
sim::Task<void> reader(SimPfs& fs, Log& log) {
  const IoCtx ctx{4, 4};
  sim::Engine& e = fs.engine();
  co_await e.sleep(Duration::ms(100));
  for (int i = 0; i < 2; ++i) {
    auto fd = co_await fs.open(ctx, "/vol1/e/m/f2", OpenFlags::ro());
    log.add(e, 4, "open", "/vol1/e/m/f2", fd.status());
    if (fd.ok()) log.add(e, 4, "close", "/vol1/e/m/f2", co_await fs.close(ctx, *fd));
  }
  auto st = co_await fs.stat(ctx, "/vol0/d/race");
  log.add(e, 4, "stat", "/vol0/d/race", st.status());
  (void)co_await create_close(fs, ctx, "/vol0/d/race", OpenFlags::wr_create_excl(), log);
  (void)co_await create_close(fs, ctx, "/vol1/e/m/nodir/f", OpenFlags::wr_create(), log);
}

std::string run_script(const Mode& m) {
  World w(m);
  EXPECT_TRUE(w.fs.ns().mkdir_all("/vol0/d").ok());
  EXPECT_TRUE(w.fs.ns().mkdir_all("/vol1/e").ok());
  EXPECT_NE(w.fs.mds_of_path("/vol0/d"), w.fs.mds_of_path("/vol1/e"));
  Counter& trips = counter("pfs.meta.mutation_round_trips");
  Counter& rpcs = counter("pfs.batch.rpcs");
  const std::uint64_t trips0 = trips.value();
  const std::uint64_t rpcs0 = rpcs.value();
  Log log;
  w.engine.spawn(racer(w.fs, log, 0));
  w.engine.spawn(racer(w.fs, log, 1));
  w.engine.spawn(renamer(w.fs, log));
  w.engine.spawn(creator(w.fs, log));
  w.engine.spawn(reader(w.fs, log));
  w.engine.run();
  log.text += "now " + std::to_string(w.engine.now().to_ns()) + " round_trips " +
              std::to_string(trips.value() - trips0) + " batch_rpcs " +
              std::to_string(rpcs.value() - rpcs0) + " metadata_ops " +
              std::to_string(w.fs.stats().metadata_ops) + " creates " +
              std::to_string(w.fs.stats().creates) + "\n";
  return log.text;
}

TEST(MetaPath, PerOp) {
  EXPECT_EQ(run_script(Mode{0, false, Duration::zero()}), R"(475000 r3 mkdir /vol1/e/m OK
800000 r0 create /vol0/d/race OK
925000 r0 close /vol0/d/race OK
1275000 r3 create /vol1/e/m/f0 OK
1275000 r1 create /vol0/d/race EXISTS
1400000 r3 close /vol1/e/m/f0 OK
1425049 r2 mkdir /vol0/d/a OK
2200049 r3 create /vol1/e/m/f1 OK
2225049 r2 create /vol0/d/a/x OK
2325049 r3 close /vol1/e/m/f1 OK
2350049 r2 close /vol0/d/a/x OK
2825098 r2 rename /vol0/d/a/x OK
3125147 r3 create /vol1/e/m/f2 OK
3250147 r3 close /vol1/e/m/f2 OK
3300196 r2 mkdir /vol0/d/b OK
3405147 r3 stat /vol1/e/m/f1 OK
3560147 r3 stat /vol1/e/m/f1 OK
4035293 r3 unlink /vol1/e/m/f0 OK
4250245 r2 rename /vol0/d/a/y OK
4510391 r3 unlink /vol1/e/m/f0 NOT_FOUND
4725391 r2 rmdir /vol0/d/a OK
4985440 r3 mkdir /vol1/e/m EXISTS
5200489 r2 rmdir /vol0/d/b NOT_EMPTY
5355489 r2 stat /vol0/d/b/y OK
5830538 r2 unlink /vol0/d/b/y OK
6305636 r2 rmdir /vol0/d/b OK
100195000 r4 open /vol1/e/m/f2 OK
100320000 r4 close /vol1/e/m/f2 OK
100415000 r4 open /vol1/e/m/f2 OK
100540000 r4 close /vol1/e/m/f2 OK
100695000 r4 stat /vol0/d/race OK
100890000 r4 create /vol0/d/race EXISTS
101085000 r4 create /vol1/e/m/nodir/f NOT_FOUND
now 101085000 round_trips 25 batch_rpcs 0 metadata_ops 40 creates 5
)");
}

TEST(MetaPath, PerOpLeased) {
  EXPECT_EQ(run_script(Mode{0, false, Duration::ms(50)}), R"(475000 r3 mkdir /vol1/e/m OK
800000 r0 create /vol0/d/race OK
925000 r0 close /vol0/d/race OK
1275000 r3 create /vol1/e/m/f0 OK
1275000 r1 create /vol0/d/race EXISTS
1400000 r3 close /vol1/e/m/f0 OK
1425049 r2 mkdir /vol0/d/a OK
2200049 r3 create /vol1/e/m/f1 OK
2225049 r2 create /vol0/d/a/x OK
2325049 r3 close /vol1/e/m/f1 OK
2350049 r2 close /vol0/d/a/x OK
2825098 r2 rename /vol0/d/a/x OK
3125147 r3 create /vol1/e/m/f2 OK
3250147 r3 close /vol1/e/m/f2 OK
3300196 r2 mkdir /vol0/d/b OK
3405147 r3 stat /vol1/e/m/f1 OK
3405147 r3 stat /vol1/e/m/f1 OK
3880293 r3 unlink /vol1/e/m/f0 OK
4250245 r2 rename /vol0/d/a/y OK
4355391 r3 unlink /vol1/e/m/f0 NOT_FOUND
4725391 r2 rmdir /vol0/d/a OK
4830440 r3 mkdir /vol1/e/m EXISTS
5200489 r2 rmdir /vol0/d/b NOT_EMPTY
5355489 r2 stat /vol0/d/b/y OK
5830538 r2 unlink /vol0/d/b/y OK
6305636 r2 rmdir /vol0/d/b OK
100195000 r4 open /vol1/e/m/f2 OK
100320000 r4 close /vol1/e/m/f2 OK
100320000 r4 open /vol1/e/m/f2 OK
100445000 r4 close /vol1/e/m/f2 OK
100600000 r4 stat /vol0/d/race OK
100795000 r4 create /vol0/d/race EXISTS
100990000 r4 create /vol1/e/m/nodir/f NOT_FOUND
now 100990000 round_trips 25 batch_rpcs 0 metadata_ops 38 creates 5
)");
}

TEST(MetaPath, Raft) {
  EXPECT_EQ(run_script(Mode{0, true, Duration::zero()}), R"(66161800 r0 create /vol0/d/race OK
66163398 r2 mkdir /vol0/d/a OK
66163398 r1 create /vol0/d/race EXISTS
66242800 r0 close /vol0/d/race OK
66878590 r2 create /vol0/d/a/x OK
66962658 r2 close /vol0/d/a/x OK
67427909 r2 rename /vol0/d/a/x OK
67893197 r2 mkdir /vol0/d/b OK
68758448 r2 rename /vol0/d/a/y OK
69223784 r2 rmdir /vol0/d/a OK
69689072 r2 rmdir /vol0/d/b NOT_EMPTY
69803140 r2 stat /vol0/d/b/y OK
70268381 r2 unlink /vol0/d/b/y OK
70733669 r2 rmdir /vol0/d/b OK
70980934 r3 mkdir /vol1/e/m OK
71699506 r3 create /vol1/e/m/f0 OK
71783574 r3 close /vol1/e/m/f0 OK
72502195 r3 create /vol1/e/m/f1 OK
72586263 r3 close /vol1/e/m/f1 OK
73304933 r3 create /vol1/e/m/f2 OK
73389001 r3 close /vol1/e/m/f2 OK
73503069 r3 stat /vol1/e/m/f1 OK
73617137 r3 stat /vol1/e/m/f1 OK
74085855 r3 unlink /vol1/e/m/f0 OK
74554525 r3 unlink /vol1/e/m/f0 NOT_FOUND
75023138 r3 mkdir /vol1/e/m EXISTS
100154068 r4 open /vol1/e/m/f2 OK
100238136 r4 close /vol1/e/m/f2 OK
100292204 r4 open /vol1/e/m/f2 OK
100376272 r4 close /vol1/e/m/f2 OK
100490340 r4 stat /vol0/d/race OK
100644408 r4 create /vol0/d/race EXISTS
100798476 r4 create /vol1/e/m/nodir/f NOT_FOUND
now 474571649 round_trips 18 batch_rpcs 0 metadata_ops 33 creates 5
)");
}

TEST(MetaPath, RaftLeased) {
  EXPECT_EQ(run_script(Mode{0, true, Duration::ms(50)}), R"(66161800 r0 create /vol0/d/race OK
66163398 r2 mkdir /vol0/d/a OK
66163398 r1 create /vol0/d/race EXISTS
66242800 r0 close /vol0/d/race OK
66878590 r2 create /vol0/d/a/x OK
66962658 r2 close /vol0/d/a/x OK
67427909 r2 rename /vol0/d/a/x OK
67893197 r2 mkdir /vol0/d/b OK
68758448 r2 rename /vol0/d/a/y OK
69223784 r2 rmdir /vol0/d/a OK
69689072 r2 rmdir /vol0/d/b NOT_EMPTY
69803140 r2 stat /vol0/d/b/y OK
70268381 r2 unlink /vol0/d/b/y OK
70733669 r2 rmdir /vol0/d/b OK
70980934 r3 mkdir /vol1/e/m OK
71699506 r3 create /vol1/e/m/f0 OK
71783574 r3 close /vol1/e/m/f0 OK
72502195 r3 create /vol1/e/m/f1 OK
72586263 r3 close /vol1/e/m/f1 OK
73304933 r3 create /vol1/e/m/f2 OK
73389001 r3 close /vol1/e/m/f2 OK
73503069 r3 stat /vol1/e/m/f1 OK
73503069 r3 stat /vol1/e/m/f1 OK
73971787 r3 unlink /vol1/e/m/f0 OK
74440457 r3 unlink /vol1/e/m/f0 NOT_FOUND
74909070 r3 mkdir /vol1/e/m EXISTS
100154068 r4 open /vol1/e/m/f2 OK
100238136 r4 close /vol1/e/m/f2 OK
100238136 r4 open /vol1/e/m/f2 OK
100322204 r4 close /vol1/e/m/f2 OK
100436272 r4 stat /vol0/d/race OK
100590340 r4 create /vol0/d/race EXISTS
100744408 r4 create /vol1/e/m/nodir/f NOT_FOUND
now 474457581 round_trips 18 batch_rpcs 0 metadata_ops 31 creates 5
)");
}

TEST(MetaPath, Batched) {
  EXPECT_EQ(run_script(Mode{8, false, Duration::zero()}), R"(525000 r3 mkdir /vol1/e/m OK
1300000 r3 create /vol1/e/m/f0 OK
1425000 r3 close /vol1/e/m/f0 OK
1825098 r0 create /vol0/d/race OK
1825098 r1 create /vol0/d/race EXISTS
1825098 r2 mkdir /vol0/d/a OK
1950098 r0 close /vol0/d/race OK
2200049 r3 create /vol1/e/m/f1 OK
2325049 r3 close /vol1/e/m/f1 OK
2600098 r2 create /vol0/d/a/x OK
2725098 r2 close /vol0/d/a/x OK
3100147 r3 create /vol1/e/m/f2 OK
3200147 r2 rename /vol0/d/a/x OK
3225147 r3 close /vol1/e/m/f2 OK
3380147 r3 stat /vol1/e/m/f1 OK
3535147 r3 stat /vol1/e/m/f1 OK
3725245 r2 mkdir /vol0/d/b OK
4060293 r3 unlink /vol1/e/m/f0 OK
4585391 r3 unlink /vol1/e/m/f0 NOT_FOUND
4675294 r2 rename /vol0/d/a/y OK
5110440 r3 mkdir /vol1/e/m EXISTS
5150440 r2 rmdir /vol0/d/a OK
5625538 r2 rmdir /vol0/d/b NOT_EMPTY
5780538 r2 stat /vol0/d/b/y OK
6305587 r2 unlink /vol0/d/b/y OK
6780685 r2 rmdir /vol0/d/b OK
100195000 r4 open /vol1/e/m/f2 OK
100320000 r4 close /vol1/e/m/f2 OK
100415000 r4 open /vol1/e/m/f2 OK
100540000 r4 close /vol1/e/m/f2 OK
100695000 r4 stat /vol0/d/race OK
100890000 r4 create /vol0/d/race EXISTS
101085000 r4 create /vol1/e/m/nodir/f NOT_FOUND
now 101085000 round_trips 17 batch_rpcs 11 metadata_ops 32 creates 5
)");
}

TEST(MetaPath, BatchedLeased) {
  EXPECT_EQ(run_script(Mode{8, false, Duration::ms(50)}), R"(525000 r3 mkdir /vol1/e/m OK
1300000 r3 create /vol1/e/m/f0 OK
1425000 r3 close /vol1/e/m/f0 OK
1825098 r0 create /vol0/d/race OK
1825098 r1 create /vol0/d/race EXISTS
1825098 r2 mkdir /vol0/d/a OK
1950098 r0 close /vol0/d/race OK
2200049 r3 create /vol1/e/m/f1 OK
2325049 r3 close /vol1/e/m/f1 OK
2600098 r2 create /vol0/d/a/x OK
2725098 r2 close /vol0/d/a/x OK
3100147 r3 create /vol1/e/m/f2 OK
3200147 r2 rename /vol0/d/a/x OK
3225147 r3 close /vol1/e/m/f2 OK
3380147 r3 stat /vol1/e/m/f1 OK
3380147 r3 stat /vol1/e/m/f1 OK
3725245 r2 mkdir /vol0/d/b OK
3905293 r3 unlink /vol1/e/m/f0 OK
4430391 r3 unlink /vol1/e/m/f0 NOT_FOUND
4675294 r2 rename /vol0/d/a/y OK
4955440 r3 mkdir /vol1/e/m EXISTS
5150440 r2 rmdir /vol0/d/a OK
5625538 r2 rmdir /vol0/d/b NOT_EMPTY
5780538 r2 stat /vol0/d/b/y OK
6305587 r2 unlink /vol0/d/b/y OK
6780685 r2 rmdir /vol0/d/b OK
100195000 r4 open /vol1/e/m/f2 OK
100320000 r4 close /vol1/e/m/f2 OK
100320000 r4 open /vol1/e/m/f2 OK
100445000 r4 close /vol1/e/m/f2 OK
100600000 r4 stat /vol0/d/race OK
100795000 r4 create /vol0/d/race EXISTS
100990000 r4 create /vol1/e/m/nodir/f NOT_FOUND
now 100990000 round_trips 17 batch_rpcs 11 metadata_ops 30 creates 5
)");
}

TEST(MetaPath, BatchedRaft) {
  EXPECT_EQ(run_script(Mode{8, true, Duration::zero()}), R"(67262550 r0 create /vol0/d/race OK
67262550 r1 create /vol0/d/race EXISTS
67262550 r2 mkdir /vol0/d/a OK
67343550 r0 close /vol0/d/race OK
68027774 r2 create /vol0/d/a/x OK
68111842 r2 close /vol0/d/a/x OK
68590957 r2 rename /vol0/d/a/x OK
69120121 r2 mkdir /vol0/d/b OK
69999236 r2 rename /vol0/d/a/y OK
70478448 r2 rmdir /vol0/d/a OK
70957612 r2 rmdir /vol0/d/b NOT_EMPTY
71031510 r3 mkdir /vol1/e/m OK
71071680 r2 stat /vol0/d/b/y OK
71600795 r2 unlink /vol0/d/b/y OK
71817216 r3 create /vol1/e/m/f0 OK
71901284 r3 close /vol1/e/m/f0 OK
72079959 r2 rmdir /vol0/d/b OK
72687039 r3 create /vol1/e/m/f1 OK
72771107 r3 close /vol1/e/m/f1 OK
73556911 r3 create /vol1/e/m/f2 OK
73640979 r3 close /vol1/e/m/f2 OK
73755047 r3 stat /vol1/e/m/f1 OK
73869115 r3 stat /vol1/e/m/f1 OK
74404967 r3 unlink /vol1/e/m/f0 OK
74940771 r3 unlink /vol1/e/m/f0 NOT_FOUND
75476520 r3 mkdir /vol1/e/m EXISTS
100154068 r4 open /vol1/e/m/f2 OK
100238136 r4 close /vol1/e/m/f2 OK
100292204 r4 open /vol1/e/m/f2 OK
100376272 r4 close /vol1/e/m/f2 OK
100490340 r4 stat /vol0/d/race OK
100644408 r4 create /vol0/d/race EXISTS
100798476 r4 create /vol1/e/m/nodir/f NOT_FOUND
now 475007927 round_trips 16 batch_rpcs 11 metadata_ops 31 creates 5
)");
}

TEST(MetaPath, BatchedRaftLeased) {
  EXPECT_EQ(run_script(Mode{8, true, Duration::ms(50)}), R"(67262550 r0 create /vol0/d/race OK
67262550 r1 create /vol0/d/race EXISTS
67262550 r2 mkdir /vol0/d/a OK
67343550 r0 close /vol0/d/race OK
68027774 r2 create /vol0/d/a/x OK
68111842 r2 close /vol0/d/a/x OK
68590957 r2 rename /vol0/d/a/x OK
69120121 r2 mkdir /vol0/d/b OK
69999236 r2 rename /vol0/d/a/y OK
70478448 r2 rmdir /vol0/d/a OK
70957612 r2 rmdir /vol0/d/b NOT_EMPTY
71031510 r3 mkdir /vol1/e/m OK
71071680 r2 stat /vol0/d/b/y OK
71600795 r2 unlink /vol0/d/b/y OK
71817216 r3 create /vol1/e/m/f0 OK
71901284 r3 close /vol1/e/m/f0 OK
72079959 r2 rmdir /vol0/d/b OK
72687039 r3 create /vol1/e/m/f1 OK
72771107 r3 close /vol1/e/m/f1 OK
73556911 r3 create /vol1/e/m/f2 OK
73640979 r3 close /vol1/e/m/f2 OK
73755047 r3 stat /vol1/e/m/f1 OK
73755047 r3 stat /vol1/e/m/f1 OK
74290899 r3 unlink /vol1/e/m/f0 OK
74826703 r3 unlink /vol1/e/m/f0 NOT_FOUND
75362452 r3 mkdir /vol1/e/m EXISTS
100154068 r4 open /vol1/e/m/f2 OK
100238136 r4 close /vol1/e/m/f2 OK
100238136 r4 open /vol1/e/m/f2 OK
100322204 r4 close /vol1/e/m/f2 OK
100436272 r4 stat /vol0/d/race OK
100590340 r4 create /vol0/d/race EXISTS
100744408 r4 create /vol1/e/m/nodir/f NOT_FOUND
now 474893859 round_trips 16 batch_rpcs 11 metadata_ops 29 creates 5
)");
}

}  // namespace
}  // namespace tio::pfs
