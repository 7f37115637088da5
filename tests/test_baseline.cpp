// Baseline flow tests: the wall packer really packs walls; flat SA
// improves its cost and respects the die.

#include <gtest/gtest.h>

#include "baseline/flat_sa.hpp"
#include "baseline/wall_packer.hpp"
#include "core/hidap.hpp"
#include "gen/suite.hpp"
#include "util/log.hpp"

namespace hidap {
namespace {

struct Fixture {
  Design d;
  PlacementContext ctx;
  Fixture() : d(generate_circuit(fig1_spec())), ctx(d) {
    set_log_level(LogLevel::Warn);
  }
};

Fixture& fixture() {
  static Fixture* fx = new Fixture();
  return *fx;
}

WallPackOptions quick_wall() {
  WallPackOptions o;
  o.anneal.moves_per_temperature = 60;
  o.anneal.cooling = 0.8;
  o.anneal.max_stagnant_temperatures = 3;
  return o;
}

TEST(WallPacker, AllMacrosPlacedInsideDie) {
  auto& fx = fixture();
  const PlacementResult r = place_macros_walls(fx.d, fx.ctx.ht, fx.ctx.seq, quick_wall());
  const Rect die{0, 0, fx.d.die().w, fx.d.die().h};
  const PlacementCheck check = check_placement(fx.d, r, die);
  EXPECT_TRUE(check.all_macros_placed);
  EXPECT_TRUE(check.all_inside_die);
  EXPECT_EQ(r.flow_name, "IndEDA");
}

TEST(WallPacker, MacrosHugTheWalls) {
  auto& fx = fixture();
  const PlacementResult r = place_macros_walls(fx.d, fx.ctx.ht, fx.ctx.seq, quick_wall());
  const double w = fx.d.die().w, h = fx.d.die().h;
  int on_wall = 0;
  for (const MacroPlacement& m : r.macros) {
    const double margin = 0.25 * std::min(w, h);
    const bool near_wall = m.rect.x < margin || m.rect.y < margin ||
                           m.rect.xmax() > w - margin || m.rect.ymax() > h - margin;
    on_wall += near_wall;
  }
  // The defining property of the IndEDA proxy (paper Fig. 9a).
  EXPECT_GE(on_wall, static_cast<int>(r.macros.size() * 0.9));
}

TEST(WallPacker, NoMacroOverlap) {
  auto& fx = fixture();
  const PlacementResult r = place_macros_walls(fx.d, fx.ctx.ht, fx.ctx.seq, quick_wall());
  const PlacementCheck check =
      check_placement(fx.d, r, Rect{0, 0, fx.d.die().w, fx.d.die().h});
  EXPECT_LT(check.overlap_area, 1e-6);
}

TEST(WallPacker, CenterStaysFree) {
  auto& fx = fixture();
  const PlacementResult r = place_macros_walls(fx.d, fx.ctx.ht, fx.ctx.seq, quick_wall());
  const double w = fx.d.die().w, h = fx.d.die().h;
  const Rect center{w * 0.4, h * 0.4, w * 0.2, h * 0.2};
  double covered = 0.0;
  for (const MacroPlacement& m : r.macros) covered += center.overlap_area(m.rect);
  EXPECT_LT(covered, center.area() * 0.05);
}

TEST(FlatSa, LegalAndComplete) {
  auto& fx = fixture();
  FlatSaOptions o;
  o.anneal.moves_per_temperature = 150;
  o.anneal.cooling = 0.85;
  const PlacementResult r = place_macros_flat_sa(fx.d, fx.ctx.seq, o);
  const Rect die{0, 0, fx.d.die().w, fx.d.die().h};
  const PlacementCheck check = check_placement(fx.d, r, die);
  EXPECT_TRUE(check.all_macros_placed);
  double macro_area = 0.0;
  for (const MacroPlacement& m : r.macros) macro_area += m.rect.area();
  EXPECT_LT(check.overlap_area, 0.12 * macro_area);  // penalty-driven legality
  EXPECT_EQ(r.flow_name, "FlatSA");
}

TEST(FlatSa, DeterministicBySeed) {
  auto& fx = fixture();
  FlatSaOptions o;
  o.anneal.moves_per_temperature = 60;
  o.anneal.seed = 21;
  const PlacementResult a = place_macros_flat_sa(fx.d, fx.ctx.seq, o);
  const PlacementResult b = place_macros_flat_sa(fx.d, fx.ctx.seq, o);
  ASSERT_EQ(a.macros.size(), b.macros.size());
  for (std::size_t i = 0; i < a.macros.size(); ++i) {
    EXPECT_EQ(a.macros[i].rect, b.macros[i].rect);
  }
}

}  // namespace
}  // namespace hidap
