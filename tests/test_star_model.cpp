// Star model differential suite: place_cells -- with a model it builds
// itself or one shared across placements and pool threads -- against the
// reference placer in reference_placer.hpp, bit for bit on every paper
// circuit; plus the model's identity checks and its observability.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/hidap.hpp"
#include "eval/flows.hpp"
#include "force_pool_lanes.hpp"
#include "gen/suite.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "place/density.hpp"
#include "place/quadratic_placer.hpp"
#include "reference_placer.hpp"
#include "route/congestion.hpp"
#include "runtime/thread_pool.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace hidap {
namespace {

const int kForcedPoolLanes = test_support::force_pool_lanes();

HiDaPOptions quick(double lambda) {
  HiDaPOptions o;
  o.lambda = lambda;
  o.layout_anneal.moves_per_temperature = 50;
  o.layout_anneal.max_stagnant_temperatures = 3;
  o.shape_fp.anneal.moves_per_temperature = 40;
  o.shape_fp.anneal.max_stagnant_temperatures = 3;
  return o;
}

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// Cluster by cluster: same members, bit-identical positions.
void expect_matches_reference(const PlacedDesign& placed,
                              const reference::ReferencePlacement& ref,
                              const std::string& what) {
  ASSERT_EQ(placed.clustering().cluster_of, ref.clustering.cluster_of) << what;
  const std::vector<Point>& pos = placed.cluster_positions();
  ASSERT_EQ(pos.size(), ref.positions.size()) << what;
  for (std::size_t i = 0; i < pos.size(); ++i) {
    ASSERT_TRUE(bits_equal(pos[i].x, ref.positions[i].x) &&
                bits_equal(pos[i].y, ref.positions[i].y))
        << what << ": cluster " << i << " at (" << pos[i].x << ", " << pos[i].y
        << "), reference (" << ref.positions[i].x << ", " << ref.positions[i].y << ")";
  }
}

struct Circuit {
  Design design;
  PlacementContext context;
  std::vector<PlacementResult> placements;  ///< lambda 0.2 / 0.8 HiDaP, IndEDA walls

  explicit Circuit(const std::string& name)
      : design(generate_circuit(suite_circuit(name, 0.003).spec)), context(design) {
    set_log_level(LogLevel::Warn);
    placements.push_back(place_macros(design, context, quick(0.2)));
    placements.push_back(place_macros(design, context, quick(0.8)));
    placements.push_back(run_indeda_flow(design, context, FlowOptions{}));
  }
};

class StarModelDifferential : public ::testing::TestWithParam<const char*> {};

TEST_P(StarModelDifferential, PlaceCellsMatchesReferenceBitwise) {
  // Every placement, placed with a model of its own and with one model
  // that all of them share, read concurrently from the pool lanes, must
  // come out exactly as the reference places it.
  const Circuit c(GetParam());
  PlaceOptions options;
  options.solver_iterations = 50;  // the Table II/III setting
  PlaceOptions shared = options;
  shared.model =
      build_star_model(c.design, c.context.ht, options.resolved_target_clusters());

  const std::size_t n = c.placements.size();
  std::vector<std::unique_ptr<PlacedDesign>> concurrent(n);
  parallel_for(n, [&](std::size_t p) {
    concurrent[p] = std::make_unique<PlacedDesign>(
        place_cells(c.design, c.context.ht, c.placements[p], shared));
  });

  for (std::size_t p = 0; p < n; ++p) {
    const reference::ReferencePlacement ref =
        reference::place_cells_reference(c.design, c.context.ht, c.placements[p], options);
    const std::string what = std::string(GetParam()) + " placement " + std::to_string(p);
    expect_matches_reference(place_cells(c.design, c.context.ht, c.placements[p], options),
                             ref, what + " (own model)");
    expect_matches_reference(*concurrent[p], ref, what + " (shared model)");
  }
}

INSTANTIATE_TEST_SUITE_P(PaperCircuits, StarModelDifferential,
                         ::testing::Values("c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8"),
                         [](const auto& info) { return std::string(info.param); });

struct Fig1 {
  Design design;
  PlacementContext context;
  PlacementResult placement;

  Fig1()
      : design(make()), context(design), placement(place_macros(design, context, quick(0.5))) {}
  static Design make() {
    set_log_level(LogLevel::Warn);
    CircuitSpec spec = fig1_spec();
    spec.target_cells = 3000;
    return generate_circuit(spec);
  }
};

TEST(StarModel, ForeignModelIsATypedError) {
  const Fig1 a;
  const Fig1 b;
  PlaceOptions options;
  options.model =
      build_star_model(a.design, a.context.ht, options.resolved_target_clusters());
  const auto expect_invalid = [&](const Design& d, const HierTree& ht,
                                  const PlaceOptions& o, const char* what) {
    try {
      place_cells(d, ht, a.placement, o);
      ADD_FAILURE() << what << ": no error";
    } catch (const HidapError& e) {
      EXPECT_EQ(e.code(), ErrorCode::InvalidRequest) << what;
    }
  };
  expect_invalid(b.design, b.context.ht, options, "another design");
  expect_invalid(a.design, b.context.ht, options, "another hierarchy");
  PlaceOptions retargeted = options;
  retargeted.target_clusters = 64;
  expect_invalid(a.design, a.context.ht, retargeted, "another cluster target");
  PlaceOptions regridded = options;
  regridded.grid = 16;  // the automatic target follows the grid
  expect_invalid(a.design, a.context.ht, regridded, "another automatic target");
  EXPECT_NO_THROW(place_cells(a.design, a.context.ht, a.placement, options));
}

TEST(StarModel, PlacedMacrosAscendingOneEntryPerCell) {
  // The macro-driven metrics read placed_macros(): a placement that lists
  // its macros in another order, one of them twice (the last entry wins),
  // measures exactly like the ordered one.
  const Fig1 fx;
  PlacementResult shuffled = fx.placement;
  std::reverse(shuffled.macros.begin(), shuffled.macros.end());
  MacroPlacement stale = shuffled.macros.back();
  stale.rect.x += 1.0;
  shuffled.macros.insert(shuffled.macros.begin(), stale);

  const PlacedDesign ordered = place_cells(fx.design, fx.context.ht, fx.placement);
  const PlacedDesign listed = place_cells(fx.design, fx.context.ht, shuffled);
  ASSERT_EQ(listed.placed_macros().size(), fx.design.macro_count());
  for (std::size_t i = 1; i < listed.placed_macros().size(); ++i) {
    EXPECT_LT(listed.placed_macros()[i - 1].cell, listed.placed_macros()[i].cell);
  }
  for (const MacroPlacement& m : listed.placed_macros()) {
    EXPECT_EQ(listed.macro_of(m.cell), &m);
    EXPECT_EQ(m.rect, fx.placement.find(m.cell)->rect);
  }
  EXPECT_EQ(listed.cluster_positions(), ordered.cluster_positions());
  EXPECT_EQ(compute_density(listed).macro, compute_density(ordered).macro);
  const CongestionReport a = estimate_congestion(listed);
  const CongestionReport b = estimate_congestion(ordered);
  EXPECT_TRUE(bits_equal(a.grc_percent, b.grc_percent));
  EXPECT_TRUE(bits_equal(a.worst_overflow, b.worst_overflow));
}

std::uint64_t counter_value(const char* name) {
  return obs::default_registry().counter(name).value();
}

void expect_same_quality(const Metrics& a, const Metrics& b) {
  EXPECT_TRUE(bits_equal(a.wl_m, b.wl_m)) << a.flow;
  EXPECT_TRUE(bits_equal(a.wl_norm, b.wl_norm)) << a.flow;
  EXPECT_TRUE(bits_equal(a.grc_percent, b.grc_percent)) << a.flow;
  EXPECT_TRUE(bits_equal(a.wns_percent, b.wns_percent)) << a.flow;
  EXPECT_TRUE(bits_equal(a.tns_ns, b.tns_ns)) << a.flow;
  EXPECT_TRUE(bits_equal(a.peak_density_near_macros, b.peak_density_near_macros)) << a.flow;
}

TEST(StarModelObs, OneModelPerComparisonAndIdenticalWithTracing) {
  set_log_level(LogLevel::Warn);
  const Design design = generate_circuit(suite_circuit("c1", 0.003).spec);
  const FlowOptions options = benchutil::bench_flow_options();

  obs::set_tracing_enabled(false);
  const std::uint64_t builds = counter_value("place.star_model_builds");
  const std::uint64_t evaluations = counter_value("eval.evaluations");
  const FlowComparison off = compare_flows(design, options);
  EXPECT_EQ(counter_value("place.star_model_builds") - builds, 1u);
  // IndEDA 1, HiDaP's lambda sweep + its winner, handFP's seed x lambda
  // sweep + its winner.
  const std::size_t lambdas = std::size(HiDaPOptions::kLambdaSweep);
  const std::uint64_t expected =
      1 + (lambdas + 1) + (static_cast<std::size_t>(options.handfp_seeds) * lambdas + 1);
  EXPECT_EQ(counter_value("eval.evaluations") - evaluations, expected);
  if (!benchutil::env_fast()) {
    EXPECT_EQ(expected, 12u);
  }
  for (const Metrics* m : {&off.indeda, &off.hidap, &off.handfp}) {
    EXPECT_GT(m->eval_s, 0.0) << m->flow;
  }

  obs::set_tracing_enabled(true);
  const FlowComparison on = compare_flows(design, options);
  obs::set_tracing_enabled(false);
  expect_same_quality(on.indeda, off.indeda);
  expect_same_quality(on.hidap, off.hidap);
  expect_same_quality(on.handfp, off.handfp);
  const std::vector<obs::PhaseStat> phases = obs::phase_stats();
  const auto it = std::find_if(phases.begin(), phases.end(),
                               [](const obs::PhaseStat& s) { return s.name == "star_model"; });
  ASSERT_NE(it, phases.end());
  EXPECT_EQ(it->count, 1u);
}

}  // namespace
}  // namespace hidap
