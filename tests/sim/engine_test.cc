#include "sim/engine.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "sim/task.h"

namespace tio::sim {
namespace {

TEST(Engine, StartsAtTimeZero) {
  Engine e;
  EXPECT_EQ(e.now().to_ns(), 0);
}

TEST(Engine, EventsFireInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.after(Duration::ms(3), [&] { order.push_back(3); });
  e.after(Duration::ms(1), [&] { order.push_back(1); });
  e.after(Duration::ms(2), [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now().to_ns(), Duration::ms(3).to_ns());
}

TEST(Engine, TiesBreakByInsertionOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    e.after(Duration::ms(5), [&order, i] { order.push_back(i); });
  }
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Engine, SchedulingIntoThePastThrows) {
  Engine e;
  e.after(Duration::ms(1), [&] {
    EXPECT_THROW(e.at(TimePoint::from_ns(0), [] {}), std::logic_error);
  });
  e.run();
}

TEST(Engine, NegativeDelayClampsToNow) {
  Engine e;
  bool ran = false;
  e.after(Duration::ms(-5), [&] { ran = true; });
  e.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(e.now().to_ns(), 0);
}

TEST(Engine, NestedSchedulingAdvancesTime) {
  Engine e;
  TimePoint inner_time;
  e.after(Duration::ms(1), [&] {
    e.after(Duration::ms(2), [&] { inner_time = e.now(); });
  });
  e.run();
  EXPECT_EQ(inner_time.to_ns(), Duration::ms(3).to_ns());
}

Task<void> sleeper(Engine& e, Duration d, int id, std::vector<int>& log) {
  co_await e.sleep(d);
  log.push_back(id);
}

TEST(Engine, SpawnedProcessesRunAndFinish) {
  Engine e;
  std::vector<int> log;
  e.spawn(sleeper(e, Duration::ms(2), 2, log));
  e.spawn(sleeper(e, Duration::ms(1), 1, log));
  EXPECT_EQ(e.processes_alive(), 2u);
  e.run();
  EXPECT_EQ(log, (std::vector<int>{1, 2}));
  EXPECT_EQ(e.processes_alive(), 0u);
}

Task<int> add(Engine& e, int a, int b) {
  co_await e.sleep(Duration::us(10));
  co_return a + b;
}

Task<void> parent(Engine& e, int& out) {
  // Nested awaits: child tasks charge their virtual time to the parent.
  const int x = co_await add(e, 1, 2);
  const int y = co_await add(e, x, 10);
  out = y;
}

TEST(Engine, NestedTaskAwaitPropagatesValues) {
  Engine e;
  int out = 0;
  e.spawn(parent(e, out));
  e.run();
  EXPECT_EQ(out, 13);
  EXPECT_EQ(e.now().to_ns(), Duration::us(20).to_ns());
}

Task<void> thrower(Engine& e) {
  co_await e.sleep(Duration::ms(1));
  throw std::runtime_error("boom");
}

TEST(Engine, ProcessExceptionSurfacesFromRun) {
  Engine e;
  e.spawn(thrower(e));
  EXPECT_THROW(e.run(), std::runtime_error);
}

Task<void> catcher(Engine& e, bool& caught) {
  try {
    co_await thrower(e);
  } catch (const std::runtime_error&) {
    caught = true;
  }
}

TEST(Engine, ChildTaskExceptionPropagatesToAwaiter) {
  Engine e;
  bool caught = false;
  e.spawn(catcher(e, caught));
  e.run();
  EXPECT_TRUE(caught);
}

Task<void> deep_chain(Engine& e, int depth) {
  if (depth == 0) {
    co_await e.sleep(Duration::ns(1));
    co_return;
  }
  co_await deep_chain(e, depth - 1);
}

TEST(Engine, DeepAwaitChainsDoNotOverflowStack) {
  Engine e;
  e.spawn(deep_chain(e, 100000));
  e.run();
  EXPECT_EQ(e.processes_alive(), 0u);
}

TEST(Engine, ManyProcessesScale) {
  Engine e;
  std::vector<int> log;
  constexpr int kProcs = 20000;
  for (int i = 0; i < kProcs; ++i) e.spawn(sleeper(e, Duration::us(i % 97), i, log));
  e.run();
  EXPECT_EQ(log.size(), static_cast<std::size_t>(kProcs));
}

TEST(Engine, DeterministicEventCountAcrossRuns) {
  auto run_once = [] {
    Engine e;
    std::vector<int> log;
    for (int i = 0; i < 100; ++i) e.spawn(sleeper(e, Duration::us(i * 3 % 11), i, log));
    e.run();
    return std::make_pair(e.events_processed(), log);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(Engine, StepReturnsFalseWhenEmpty) {
  Engine e;
  EXPECT_FALSE(e.step());
  e.after(Duration::zero(), [] {});
  EXPECT_TRUE(e.step());
  EXPECT_FALSE(e.step());
}

TEST(Engine, YieldRunsBehindQueuedEvents) {
  Engine e;
  std::vector<int> order;
  e.spawn([](Engine& eng, std::vector<int>& log) -> Task<void> {
    log.push_back(1);
    co_await eng.yield();
    log.push_back(3);
  }(e, order));
  e.after(Duration::zero(), [&] { order.push_back(0); });
  e.run();
  // Spawn's start event precedes the raw event; the post-yield part runs last.
  EXPECT_EQ(order, (std::vector<int>{1, 0, 3}));
}

// Reservations made in one script and plain at() calls made at the same
// points in another must pop in the same order, including against
// same-time FIFO traffic at the target instant.
TEST(Engine, ReservedSeqOrdersLikeImmediateSchedule) {
  const TimePoint target = TimePoint::from_ns(100);
  const auto script = [&](Engine& e, bool reserve, std::vector<int>& log) {
    // Each event at the target logs itself and queues a same-time
    // follow-up, so the FIFO is busy while the heap drains the instant.
    const auto ev = [&e, &log](int id) {
      return [&e, &log, id] {
        log.push_back(id);
        e.after(Duration::zero(), [&log, id] { log.push_back(1000 + id); });
      };
    };
    e.at(target, ev(1));
    std::uint64_t r2 = 0, r4 = 0;
    if (reserve) {
      r2 = e.reserve_seq();
    } else {
      e.at(target, ev(2));
    }
    e.at(target, ev(3));
    e.after(Duration::ns(10), [&, reserve] {
      if (reserve) {
        r4 = e.reserve_seq();
      } else {
        e.at(target, ev(4));
      }
      e.at(target, ev(5));
      e.after(Duration::zero(), [&, reserve] {
        e.at(target, ev(6));
        // Both reservations land late, at a time between their
        // reservation points and the target.
        e.after(Duration::ns(40), [&, reserve] {
          if (reserve) {
            e.at_reserved(target, r4, ev(4));
            e.at_reserved(target, r2, ev(2));
          }
          e.at(target, ev(7));
        });
      });
    });
    e.run();  // inside the script: the callbacks refer to its locals
  };
  Engine immediate, deferred;
  std::vector<int> want, got;
  script(immediate, false, want);
  script(deferred, true, got);
  ASSERT_EQ(want.size(), 14u);
  EXPECT_EQ(want, (std::vector<int>{1, 2, 3, 4, 5, 6, 7, 1001, 1002, 1003, 1004, 1005, 1006,
                                    1007}));
  EXPECT_EQ(got, want);
  EXPECT_EQ(deferred.now(), target);
}

TEST(Engine, AtReservedRejectsTheCurrentInstantAndThePast) {
  Engine e;
  e.after(Duration::ms(1), [&] {
    const std::uint64_t seq = e.reserve_seq();
    EXPECT_THROW(e.at_reserved(e.now(), seq, [] {}), std::logic_error);
    EXPECT_THROW(e.at_reserved(TimePoint::from_ns(0), seq, [] {}), std::logic_error);
    e.at_reserved(e.now() + Duration::ns(1), seq, [] {});
  });
  EXPECT_EQ(e.run(), 2u);
}

}  // namespace
}  // namespace tio::sim
