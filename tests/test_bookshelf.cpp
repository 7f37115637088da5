// Bookshelf (.nodes/.nets/.pl) round-trip tests.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "core/hidap.hpp"
#include "gen/suite.hpp"
#include "netlist/bookshelf.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace hidap {
namespace {

struct Fixture {
  Design d;
  PlacementResult placement;
  Fixture() : d(generate_circuit([] {
      CircuitSpec spec = fig1_spec();
      spec.target_cells = 2000;
      return spec;
    }())) {
    set_log_level(LogLevel::Warn);
    HiDaPOptions o;
    o.layout_anneal.moves_per_temperature = 50;
    o.shape_fp.anneal.moves_per_temperature = 40;
    placement = place_macros(d, o);
  }
};

Fixture& fixture() {
  static Fixture* fx = new Fixture();
  return *fx;
}

void cleanup(const std::string& base) {
  for (const char* ext : {".nodes", ".nets", ".pl", ".aux"}) {
    std::remove((base + ext).c_str());
  }
}

TEST(Bookshelf, WritesAllFourFiles) {
  auto& fx = fixture();
  const std::string base = "bs_test";
  write_bookshelf(fx.d, fx.placement, base);
  for (const char* ext : {".nodes", ".nets", ".pl", ".aux"}) {
    std::ifstream in(base + std::string(ext));
    EXPECT_TRUE(in.good()) << ext;
  }
  cleanup(base);
}

TEST(Bookshelf, RoundTripCounts) {
  auto& fx = fixture();
  const std::string base = "bs_rt";
  write_bookshelf(fx.d, fx.placement, base);
  const BookshelfDesign loaded = read_bookshelf(base);
  EXPECT_EQ(loaded.design.cell_count(), fx.d.cell_count());
  EXPECT_EQ(loaded.design.macro_count(), fx.d.macro_count());
  // Degenerate (degree<2) nets are dropped on export.
  std::size_t live_nets = 0;
  for (std::size_t n = 0; n < fx.d.net_count(); ++n) {
    live_nets += fx.d.net(static_cast<NetId>(n)).degree() >= 2;
  }
  EXPECT_EQ(loaded.design.net_count(), live_nets);
  EXPECT_TRUE(loaded.design.validate().empty()) << loaded.design.validate();
  cleanup(base);
}

TEST(Bookshelf, PlacementSurvives) {
  auto& fx = fixture();
  const std::string base = "bs_pl";
  write_bookshelf(fx.d, fx.placement, base);
  const BookshelfDesign loaded = read_bookshelf(base);
  ASSERT_EQ(loaded.placement.macros.size(), fx.placement.macros.size());
  // Positions match (macro identity differs by naming, so compare the
  // multisets of lower-left corners).
  double sum_orig = 0, sum_load = 0;
  for (const MacroPlacement& m : fx.placement.macros) sum_orig += m.rect.x + m.rect.y;
  for (const MacroPlacement& m : loaded.placement.macros) sum_load += m.rect.x + m.rect.y;
  EXPECT_NEAR(sum_orig, sum_load, 1e-3);
  cleanup(base);
}

TEST(Bookshelf, TerminalsBecomePorts) {
  auto& fx = fixture();
  const std::string base = "bs_term";
  write_bookshelf(fx.d, fx.placement, base);
  const BookshelfDesign loaded = read_bookshelf(base);
  EXPECT_EQ(loaded.design.ports().size(), fx.d.ports().size());
  for (const CellId p : loaded.design.ports()) {
    EXPECT_TRUE(loaded.design.cell(p).fixed_pos.has_value());
  }
  cleanup(base);
}

TEST(Bookshelf, MissingFileThrows) {
  EXPECT_THROW(read_bookshelf("definitely_not_there"), std::runtime_error);
}

TEST(Bookshelf, MalformedNodesThrows) {
  const std::string base = "bs_bad";
  std::ofstream(base + ".nodes") << "UCLA nodes 1.0\n  broken_line_without_dims\n";
  std::ofstream(base + ".nets") << "UCLA nets 1.0\n";
  std::ofstream(base + ".pl") << "UCLA pl 1.0\n";
  EXPECT_THROW(read_bookshelf(base), std::runtime_error);
  // A malformed row ends in a typed ParseError, never in a defaulted
  // field, a skipped row or an untyped exception.
  const auto expect_parse_error = [&](const char* nodes, const char* pl) {
    std::ofstream(base + ".nodes") << "UCLA nodes 1.0\n" << nodes;
    std::ofstream(base + ".pl") << "UCLA pl 1.0\n" << pl;
    try {
      read_bookshelf(base);
      ADD_FAILURE() << "read: " << nodes << " / " << pl;
    } catch (const HidapError& e) {
      EXPECT_EQ(e.code(), ErrorCode::ParseError) << e.what();
    }
  };
  expect_parse_error("a 1 2x\n", "");         // trailing junk in a height
  expect_parse_error("m 1 1\nm 1 1\n", "");   // duplicate node
  expect_parse_error("a 1 1\n", "a 1.0\n");  // .pl row without y
  expect_parse_error("a 1 1\n", "a x 2\n");  // .pl row with a bad x
  cleanup(base);
}

}  // namespace
}  // namespace hidap
