// DEF I/O tests: write/parse round trip, unit conversion, orientation
// preservation, placement re-binding, malformed input rejection.

#include <gtest/gtest.h>

#include <sstream>

#include "core/hidap.hpp"
#include "gen/suite.hpp"
#include "netlist/def_io.hpp"
#include "util/log.hpp"

namespace hidap {
namespace {

struct Fixture {
  Design d;
  PlacementResult placement;
  Fixture() : d(generate_circuit(fig1_spec())) {
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

TEST(DefIo, RoundTripPreservesPlacement) {
  auto& fx = fixture();
  std::ostringstream text;
  write_def(fx.d, fx.placement, text);
  std::istringstream in(text.str());
  const DefContents def = parse_def(in);

  EXPECT_EQ(def.design_name, fx.d.name());
  EXPECT_NEAR(def.die.w, fx.d.die().w, 1e-3);
  ASSERT_EQ(def.components.size(), fx.placement.macros.size());

  PlacementResult rebound;
  const std::size_t bound = apply_def_placement(fx.d, def, rebound);
  EXPECT_EQ(bound, fx.placement.macros.size());
  for (const MacroPlacement& m : fx.placement.macros) {
    const MacroPlacement* r = rebound.find(m.cell);
    ASSERT_NE(r, nullptr);
    EXPECT_NEAR(r->rect.x, m.rect.x, 1e-3);  // DEF db-unit rounding
    EXPECT_NEAR(r->rect.y, m.rect.y, 1e-3);
    EXPECT_NEAR(r->rect.w, m.rect.w, 1e-9);  // footprint from def+orient
    EXPECT_EQ(r->orientation, m.orientation);
  }
}

TEST(DefIo, OrientationSwapsFootprint) {
  auto& fx = fixture();
  // Force an R90 entry and verify the rebound rect swaps w/h.
  PlacementResult rotated = fx.placement;
  rotated.macros[0].orientation = Orientation::R90;
  const MacroDef& def = fx.d.macro_def_of(rotated.macros[0].cell);
  rotated.macros[0].rect.w = def.h;
  rotated.macros[0].rect.h = def.w;

  std::ostringstream text;
  write_def(fx.d, rotated, text);
  std::istringstream in(text.str());
  PlacementResult rebound;
  apply_def_placement(fx.d, parse_def(in), rebound);
  const MacroPlacement* r = rebound.find(rotated.macros[0].cell);
  ASSERT_NE(r, nullptr);
  EXPECT_DOUBLE_EQ(r->rect.w, def.h);
  EXPECT_DOUBLE_EQ(r->rect.h, def.w);
}

TEST(DefIo, UnitsRespected) {
  auto& fx = fixture();
  DefWriteOptions opt;
  opt.units_per_micron = 100;
  std::ostringstream text;
  write_def(fx.d, fx.placement, text, opt);
  EXPECT_NE(text.str().find("UNITS DISTANCE MICRONS 100 ;"), std::string::npos);
  std::istringstream in(text.str());
  const DefContents def = parse_def(in);
  EXPECT_NEAR(def.die.w, fx.d.die().w, 1e-2);
}

TEST(DefIo, PinsSectionWritten) {
  auto& fx = fixture();
  std::ostringstream text;
  write_def(fx.d, fx.placement, text);
  EXPECT_NE(text.str().find("PINS "), std::string::npos);
  EXPECT_NE(text.str().find("DIRECTION INPUT"), std::string::npos);
  DefWriteOptions no_pins;
  no_pins.include_pins = false;
  std::ostringstream text2;
  write_def(fx.d, fx.placement, text2, no_pins);
  EXPECT_EQ(text2.str().find("PINS "), std::string::npos);
}

TEST(DefIo, UnknownComponentSkipped) {
  auto& fx = fixture();
  DefContents def;
  def.components.push_back({"does/not/exist", "M", Point{1, 2}, Orientation::R0});
  PlacementResult rebound;
  EXPECT_EQ(apply_def_placement(fx.d, def, rebound), 0u);
}

TEST(DefIo, MalformedInputThrows) {
  std::istringstream bad("COMPONENTS 1 ;\n- a B + NOTPLACED ;\n");
  EXPECT_THROW(parse_def(bad), std::runtime_error);
  std::istringstream bad_orient(
      "COMPONENTS 1 ;\n- a B + PLACED ( 0 0 ) SIDEWAYS ;\nEND COMPONENTS\n");
  EXPECT_THROW(parse_def(bad_orient), std::runtime_error);
  // Coordinates are whole, finite, decimal tokens.
  for (const char* coord : {"nan", "inf", "0x10", "12abc"}) {
    EXPECT_THROW(parse_def_text(std::string("DIEAREA ( 0 0 ) ( ") + coord + " 5 ) ;\n"),
                 DefParseError)
        << coord;
  }
}

// The declared COMPONENTS count must equal the entries listed before
// END COMPONENTS: a miscount would silently drop preplaced macros, so it
// is a typed error with the line that exposes it.
TEST(DefIo, ComponentCountMustMatchEntries) {
  const std::string entry = "- a B + PLACED ( 0 0 ) R0 ;\n";
  const struct {
    std::string text;
    int line;
    const char* message;
  } rows[] = {
      {"COMPONENTS 1 ;\n" + entry + entry + entry + "END COMPONENTS\n", 5,
       "declares 1 but lists 3"},
      {"COMPONENTS 3 ;\n" + entry + "END COMPONENTS\n", 3, "declares 3 but lists 1"},
      {"COMPONENTS 1 ;\nEND COMPONENTS\n", 2, "declares 1 but lists 0"},
      {"COMPONENTS -2 ;\n" + entry + entry + "END COMPONENTS\n", 1,
       "negative component count"},
      {"COMPONENTS 1 ;\n" + entry + "END PINS\n", 3, "expected COMPONENTS"},
      {"COMPONENTS 1 ;\n" + entry, 2, "expected '-' or END"},
  };
  for (const auto& row : rows) {
    try {
      parse_def_text(row.text);
      ADD_FAILURE() << "accepted: " << row.text;
    } catch (const DefParseError& e) {
      EXPECT_EQ(e.line(), row.line) << e.what();
      EXPECT_NE(std::string(e.what()).find(row.message), std::string::npos) << e.what();
      EXPECT_EQ(e.code(), ErrorCode::ParseError);
    }
  }
  // Matching counts, including an empty section, still parse.
  EXPECT_EQ(parse_def_text("COMPONENTS 2 ;\n" + entry + entry + "END COMPONENTS\n")
                .components.size(),
            2u);
  EXPECT_TRUE(parse_def_text("COMPONENTS 0 ;\nEND COMPONENTS\n").components.empty());
}

TEST(DefIo, FileRoundTrip) {
  auto& fx = fixture();
  const std::string path = "test_def_io.def";
  write_def_file(fx.d, fx.placement, path);
  const DefContents def = parse_def_file(path);
  EXPECT_EQ(def.components.size(), fx.placement.macros.size());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hidap
