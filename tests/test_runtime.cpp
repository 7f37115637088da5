// Parallel runtime tests: pool lifecycle, futures, exception
// propagation, parallel_for correctness on degenerate and large ranges,
// nested sections, seed derivation, and the end-to-end determinism
// guarantee (compare_flows and multi-chain SA are bit-identical at 1
// and N threads).

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <vector>

#include "core/layout_optimizer.hpp"
#include "eval/flows.hpp"
#include "force_pool_lanes.hpp"
#include "gen/suite.hpp"
#include "runtime/thread_pool.hpp"
#include "util/log.hpp"

namespace hidap {
namespace {

// Every test that goes through the free parallel_for/compare_flows path
// genuinely threads, even on single-core CI runners; an explicit
// HIDAP_THREADS (the TSan `ctest -L scheduler` leg) sets the lane count.
const int kForcedPoolLanes = test_support::force_pool_lanes();

TEST(ThreadPool, GlobalPoolHonorsForcedLaneCount) {
  EXPECT_EQ(ThreadPool::default_thread_count(), kForcedPoolLanes);
  EXPECT_EQ(ThreadPool::global().size(), kForcedPoolLanes);
}

TEST(ThreadPool, LifecycleAcrossSizes) {
  for (const int size : {1, 2, 4, 8}) {
    ThreadPool pool(size);
    EXPECT_EQ(pool.size(), size);
    std::atomic<int> ran{0};
    pool.parallel_for(16, [&](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 16);
  }  // destructor joins workers; ASan/TSan watch for leaks and races
}

TEST(ThreadPool, DefaultSizeIsPositive) {
  EXPECT_GE(ThreadPool::default_thread_count(), 1);
}

TEST(ThreadPool, SubmitReturnsFutureValue) {
  ThreadPool pool(4);
  auto f1 = pool.submit([] { return 41 + 1; });
  auto f2 = pool.submit([] { return std::string("ok"); });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "ok");
}

TEST(ThreadPool, SubmitPropagatesExceptionThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("task boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, SubmitRunsInlineOnSingleLanePool) {
  ThreadPool pool(1);
  auto f = pool.submit([] { return 7; });
  // Inline execution: the result is ready without any worker thread.
  EXPECT_EQ(f.get(), 7);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  std::atomic<int> ran{0};
  parallel_for(0, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 0);
}

TEST(ParallelFor, SingleElementRange) {
  std::vector<int> hits(1, 0);
  parallel_for(1, [&](std::size_t i) { hits[i] = 1; });
  EXPECT_EQ(hits[0], 1);
}

TEST(ParallelFor, LargeRangeRunsEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 10000;
  std::vector<int> counts(kN, 0);
  parallel_for(kN, [&](std::size_t i) { ++counts[i]; });  // slot-exclusive writes
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(counts[i], 1) << "index " << i;
}

TEST(ParallelFor, PropagatesLowestIndexException) {
  ThreadPool pool(4);
  for (int trial = 0; trial < 3; ++trial) {
    std::atomic<int> ran{0};
    try {
      pool.parallel_for(64, [&](std::size_t i) {
        ran.fetch_add(1);
        if (i % 2 == 1) throw std::out_of_range("odd index " + std::to_string(i));
      });
      FAIL() << "expected an exception";
    } catch (const std::out_of_range& e) {
      // All indices still execute; the lowest thrower (index 1) wins.
      EXPECT_EQ(ran.load(), 64);
      EXPECT_STREQ(e.what(), "odd index 1");
    }
  }
}

TEST(ParallelFor, MaxThreadsOneMatchesSequentialOrder) {
  std::vector<std::size_t> order;
  parallel_for(8, [&](std::size_t i) { order.push_back(i); }, /*max_threads=*/1);
  ASSERT_EQ(order.size(), 8u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, NestedSectionsDoNotDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> inner_total{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 64);
}

TEST(ParallelInvoke, RunsEveryTask) {
  int a = 0, b = 0, c = 0;
  parallel_invoke({[&] { a = 1; }, [&] { b = 2; }, [&] { c = 3; }});
  EXPECT_EQ(a + b + c, 6);
}

TEST(TaskSeed, DeterministicAndDistinct) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const std::uint64_t s = derive_task_seed(1, i);
    EXPECT_EQ(s, derive_task_seed(1, i));
    seen.insert(s);
  }
  EXPECT_EQ(seen.size(), 1000u);                      // no index collisions
  EXPECT_NE(derive_task_seed(1, 0), derive_task_seed(2, 0));  // root matters
}

FlowOptions quick_flow_options() {
  FlowOptions o;
  o.hidap.layout_anneal.moves_per_temperature = 40;
  o.hidap.layout_anneal.cooling = 0.8;
  o.hidap.layout_anneal.max_stagnant_temperatures = 3;
  o.hidap.shape_fp.anneal.moves_per_temperature = 30;
  o.hidap.shape_fp.anneal.cooling = 0.8;
  o.hidap.shape_fp.anneal.max_stagnant_temperatures = 3;
  o.handfp_effort = 1.0;
  o.handfp_seeds = 2;
  o.eval.place.solver_iterations = 20;
  return o;
}

// The determinism guarantee, in miniature: the full 3-flow comparison
// (one sweep over every configuration, with the recursion scheduler's
// pool sections nested inside) yields identical metrics with 1 thread
// and with every lane of the pool.
TEST(Determinism, CompareFlowsIdenticalAtOneAndManyThreads) {
  set_log_level(LogLevel::Warn);
  const Design design = generate_circuit(fig1_spec());

  FlowOptions serial = quick_flow_options();
  serial.hidap.num_threads = 1;
  FlowOptions parallel = quick_flow_options();
  parallel.hidap.num_threads = 8;

  const FlowComparison a = compare_flows(design, serial);
  const FlowComparison b = compare_flows(design, parallel);

  const auto expect_identical = [](const Metrics& x, const Metrics& y) {
    EXPECT_EQ(x.wl_m, y.wl_m);
    EXPECT_EQ(x.wl_norm, y.wl_norm);
    EXPECT_EQ(x.grc_percent, y.grc_percent);
    EXPECT_EQ(x.wns_percent, y.wns_percent);
    EXPECT_EQ(x.tns_ns, y.tns_ns);
  };
  expect_identical(a.indeda, b.indeda);
  expect_identical(a.hidap, b.hidap);
  expect_identical(a.handfp, b.handfp);
}

TEST(Determinism, MultichainLayoutIdenticalAtOneAndManyThreads) {
  Rng rng(17);
  LayoutProblem problem;
  problem.region = {0, 0, 300, 300};
  AffinityMatrix affinity(8);
  for (int i = 0; i < 8; ++i) {
    BudgetBlock block;
    block.at = rng.next_double(4000, 9000);
    block.am = block.at * 0.7;
    block.gamma = ShapeCurve::for_rect(rng.next_double(20, 50), rng.next_double(20, 50));
    problem.blocks.push_back(std::move(block));
    if (i > 0) affinity.set(static_cast<std::size_t>(i - 1), static_cast<std::size_t>(i), 1.0);
  }
  problem.affinity = &affinity;

  AnnealOptions anneal;
  anneal.moves_per_temperature = 40;
  anneal.cooling = 0.8;
  anneal.max_stagnant_temperatures = 3;
  anneal.chains = 4;
  anneal.seed = 23;

  problem.num_threads = 1;
  const LayoutSolution serial = optimize_layout(problem, anneal);
  problem.num_threads = 8;
  const LayoutSolution parallel = optimize_layout(problem, anneal);

  EXPECT_EQ(serial.cost, parallel.cost);
  EXPECT_EQ(serial.expression.elements(), parallel.expression.elements());
  ASSERT_EQ(serial.rects.size(), parallel.rects.size());
  for (std::size_t i = 0; i < serial.rects.size(); ++i) {
    EXPECT_EQ(serial.rects[i].x, parallel.rects[i].x);
    EXPECT_EQ(serial.rects[i].y, parallel.rects[i].y);
    EXPECT_EQ(serial.rects[i].w, parallel.rects[i].w);
    EXPECT_EQ(serial.rects[i].h, parallel.rects[i].h);
  }
}

// chains=1 must reproduce the pre-multichain optimizer bit-for-bit; the
// flow determinism suites pin that behavior across PRs. Here: more
// chains never produce a worse winner than chain 0 alone, because chain
// 0 of a multi-chain run uses the root seed.
TEST(Multichain, MoreChainsNeverWorse) {
  Rng rng(29);
  LayoutProblem problem;
  problem.region = {0, 0, 200, 200};
  AffinityMatrix affinity(6);
  for (int i = 0; i < 6; ++i) {
    BudgetBlock block;
    block.at = rng.next_double(2000, 6000);
    block.am = block.at * 0.7;
    block.gamma = ShapeCurve::for_rect(rng.next_double(15, 40), rng.next_double(15, 40));
    problem.blocks.push_back(std::move(block));
    if (i > 0) affinity.set(static_cast<std::size_t>(i - 1), static_cast<std::size_t>(i), 1.0);
  }
  problem.affinity = &affinity;

  AnnealOptions anneal;
  anneal.moves_per_temperature = 40;
  anneal.cooling = 0.8;
  anneal.max_stagnant_temperatures = 3;
  anneal.seed = 31;

  anneal.chains = 1;
  const double single = optimize_layout(problem, anneal).cost;
  anneal.chains = 4;
  const double multi = optimize_layout(problem, anneal).cost;
  EXPECT_LE(multi, single + 1e-12);
}

}  // namespace
}  // namespace hidap
