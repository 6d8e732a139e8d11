// Persistent-executor contract: one pool reused across rounds, chunked
// coverage of the index range, exception propagation to the caller, and
// identical side effects regardless of thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/parallel.hpp"

namespace san {
namespace {

TEST(Executor, CoversEveryIndexExactlyOnce) {
  for (int threads : {0, 1, 2, 7}) {
    const long n = 10007;  // prime, so no chunk size divides it evenly
    std::vector<std::atomic<int>> hits(n);
    parallel_for(0, n, threads, [&](long i) {
      hits[static_cast<size_t>(i)].fetch_add(1, std::memory_order_relaxed);
    });
    for (long i = 0; i < n; ++i)
      ASSERT_EQ(hits[static_cast<size_t>(i)].load(), 1)
          << "index " << i << " with threads=" << threads;
  }
}

TEST(Executor, EmptyAndReversedRangesAreNoOps) {
  std::atomic<int> calls{0};
  parallel_for(5, 5, 0, [&](long) { calls.fetch_add(1); });
  parallel_for(9, 3, 0, [&](long) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(Executor, SerialAndParallelSideEffectsMatch) {
  const long n = 4096;
  std::vector<long> serial(n), parallel(n);
  auto work = [](long i) { return i * i - 3 * i + 7; };
  parallel_for(0, n, 1, [&](long i) { serial[i] = work(i); });
  parallel_for(0, n, 8, [&](long i) { parallel[i] = work(i); });
  EXPECT_EQ(serial, parallel);
}

TEST(Executor, PoolIsReusedAcrossRounds) {
  Executor& exec = Executor::instance();
  // Explicit threads=4 forces a pool even on single-core hosts (the
  // pre-pool parallel_for oversubscribed the same way).
  auto collect_ids = [] {
    std::mutex mu;
    std::set<std::thread::id> ids;
    parallel_for(0, 64, 4, [&](long) {
      std::lock_guard<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
    });
    return ids;
  };
  const std::size_t rounds_before = exec.rounds_dispatched();
  std::set<std::thread::id> ids;
  const int kRounds = 10;
  for (int r = 0; r < kRounds; ++r)
    for (const auto& id : collect_ids()) ids.insert(id);
  EXPECT_GE(exec.pool_size(), 3);
  EXPECT_EQ(exec.rounds_dispatched(), rounds_before + kRounds);
  // Spawn-per-call would mint fresh thread ids every round (up to
  // kRounds * pool_size distinct ids); a persistent pool serves every
  // round from the same pool_size workers plus the caller.
  EXPECT_LE(ids.size(), static_cast<size_t>(exec.pool_size()) + 1);
}

TEST(Executor, ExceptionPropagatesToCaller) {
  for (int threads : {1, 4}) {
    std::atomic<int> calls{0};
    try {
      parallel_for(0, 1000, threads, [&](long i) {
        calls.fetch_add(1, std::memory_order_relaxed);
        if (i == 501) throw std::runtime_error("boom at 501");
      });
      FAIL() << "expected the worker exception to surface (threads="
             << threads << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom at 501");
    }
    EXPECT_GT(calls.load(), 0);
  }
}

TEST(Executor, RecoversAfterException) {
  EXPECT_THROW(
      parallel_for(0, 100, 0, [](long) { throw std::logic_error("x"); }),
      std::logic_error);
  // The pool must come back clean: a follow-up round runs to completion.
  std::atomic<long> sum{0};
  parallel_for(1, 101, 0,
               [&](long i) { sum.fetch_add(i, std::memory_order_relaxed); });
  EXPECT_EQ(sum.load(), 5050);
}

TEST(Executor, NestedCallsRunSerially) {
  // A nested parallel_for from inside a round must not deadlock on the
  // busy pool; it degrades to a serial loop on that participant.
  std::vector<std::atomic<int>> hits(32 * 32);
  parallel_for(0, 32, 0, [&](long outer) {
    parallel_for(0, 32, 0, [&](long inner) {
      hits[static_cast<size_t>(outer * 32 + inner)].fetch_add(1);
    });
  });
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);
}

TEST(Executor, ConcurrentCallersAreSerialized) {
  // Two foreign threads driving rounds at once: rounds must not corrupt
  // each other's ranges.
  auto drive = [](std::vector<int>& out) {
    for (int round = 0; round < 50; ++round)
      parallel_for(0, static_cast<long>(out.size()), 0,
                   [&](long i) { out[static_cast<size_t>(i)] += 1; });
  };
  std::vector<int> a(257, 0), b(509, 0);
  std::thread ta([&] { drive(a); });
  std::thread tb([&] { drive(b); });
  ta.join();
  tb.join();
  for (int v : a) ASSERT_EQ(v, 50);
  for (int v : b) ASSERT_EQ(v, 50);
}

TEST(Executor, ResolveThreads) {
  EXPECT_EQ(resolve_threads(3), 3);
  EXPECT_EQ(resolve_threads(1), 1);
  EXPECT_GE(resolve_threads(0), 1);
}

/// Drives a round on an owned pool through the type-erased interface
/// (parallel_for is hard-wired to the shared instance()).
template <typename Fn>
void run_on(Executor& exec, long begin, long end, int threads, Fn&& fn) {
  using Decayed = std::remove_reference_t<Fn>;
  exec.for_range(begin, end, threads, &fn,
                 [](void* ctx, long i) { (*static_cast<Decayed*>(ctx))(i); });
}

// Shutdown-vs-late-worker stress: destroy the pool immediately after a
// round completes, over and over. A worker that is still waking from the
// posted round must observe the closed slots / stop flag under the lock
// and exit cleanly; any flaw here is a join-on-detached or use-after-free
// that TSan (and often plain ASAN/crash) catches within a few hundred
// iterations.
TEST(Executor, DestructionRacesLateWakingWorkers) {
  for (int iter = 0; iter < 300; ++iter) {
    std::atomic<long> sum{0};
    {
      Executor pool;
      // Tiny range with many participants: most workers wake to find the
      // cursor already drained — exactly the late-waker window.
      run_on(pool, 0, 8, 4, [&](long i) {
        sum.fetch_add(i, std::memory_order_relaxed);
      });
    }  // pool destroyed while its workers may still be mid-wakeup
    ASSERT_EQ(sum.load(), 28) << "iter " << iter;
  }
}

// Regression: when fn throws on the *caller* (or any participant), the
// round must fully quiesce — no fn still executing anywhere — before the
// exception is rethrown to the caller. Otherwise a worker could still be
// touching caller-owned state after for_range returned.
TEST(Executor, ExceptionRethrownOnlyAfterWorkersQuiesce) {
  for (int iter = 0; iter < 50; ++iter) {
    Executor pool;
    std::atomic<int> in_flight{0};
    std::atomic<int> max_seen{0};
    auto body = [&](long i) {
      const int now = in_flight.fetch_add(1, std::memory_order_acq_rel) + 1;
      int prev = max_seen.load(std::memory_order_relaxed);
      while (now > prev &&
             !max_seen.compare_exchange_weak(prev, now,
                                             std::memory_order_relaxed)) {
      }
      if (i == 0) {  // index 0 lands in the caller's first chunk
        in_flight.fetch_sub(1, std::memory_order_acq_rel);
        throw std::runtime_error("caller chunk boom");
      }
      // Give other participants time to be genuinely mid-fn when the
      // throw happens, so a premature rethrow would observe them.
      volatile int spin = 0;
      while (spin < 2000) spin = spin + 1;
      in_flight.fetch_sub(1, std::memory_order_acq_rel);
    };
    bool threw = false;
    try {
      run_on(pool, 0, 2048, 4, body);
    } catch (const std::runtime_error&) {
      threw = true;
      // The contract: rethrow happens only after every participant
      // drained. Nothing may still be inside fn now.
      EXPECT_EQ(in_flight.load(std::memory_order_acquire), 0)
          << "iter " << iter;
    }
    ASSERT_TRUE(threw) << "iter " << iter;
    EXPECT_GE(max_seen.load(), 1);
    // And the pool is still usable after the failed round.
    std::atomic<long> sum{0};
    run_on(pool, 0, 100, 4, [&](long i) {
      sum.fetch_add(i + 1, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 5050);
  }
}

// Owned pools are independent: rounds on two pools from two threads do
// not share round state (instance() serializes via round_mu; two owned
// pools must not need to).
TEST(Executor, OwnedPoolsAreIndependent) {
  Executor pa, pb;
  std::vector<int> a(1001, 0), b(2003, 0);
  std::thread ta([&] {
    for (int r = 0; r < 20; ++r)
      run_on(pa, 0, static_cast<long>(a.size()), 3,
             [&](long i) { a[static_cast<size_t>(i)] += 1; });
  });
  std::thread tb([&] {
    for (int r = 0; r < 20; ++r)
      run_on(pb, 0, static_cast<long>(b.size()), 3,
             [&](long i) { b[static_cast<size_t>(i)] += 1; });
  });
  ta.join();
  tb.join();
  for (int v : a) ASSERT_EQ(v, 20);
  for (int v : b) ASSERT_EQ(v, 20);
}

}  // namespace
}  // namespace san
