// Structural-Verilog writer/parser tests, including a full round trip on
// a generated circuit.

#include <gtest/gtest.h>

#include <sstream>

#include "gen/circuit_gen.hpp"
#include "netlist/verilog_parser.hpp"
#include "netlist/verilog_writer.hpp"

namespace hidap {
namespace {

TEST(VerilogParser, MinimalModule) {
  const Design d = parse_verilog_string(R"(
    module top ();
      wire n1;
      HIDAP_PIN_IN #(.X(0), .Y(5)) pad (.O0(n1));
      HIDAP_COMB #(.AREA(1.5)) g (.I0(n1));
    endmodule
  )");
  EXPECT_EQ(d.cell_count(), 2u);
  EXPECT_EQ(d.net_count(), 1u);
  EXPECT_EQ(d.cell(1).kind, CellKind::Comb);
  EXPECT_DOUBLE_EQ(d.cell(1).area, 1.5);
  ASSERT_TRUE(d.cell(0).fixed_pos.has_value());
  EXPECT_DOUBLE_EQ(d.cell(0).fixed_pos->y, 5.0);
}

TEST(VerilogParser, HierarchyElaboration) {
  const Design d = parse_verilog_string(R"(
    module leaf (a, y);
      input a;
      output y;
      HIDAP_COMB #(.AREA(1.0)) g (.I0(a), .O0(y));
    endmodule
    module top ();
      wire w1, w2;
      HIDAP_PIN_IN pad (.O0(w1));
      leaf u0 (.a(w1), .y(w2));
      leaf u1 (.a(w2));
    endmodule
  )");
  EXPECT_EQ(d.hier_count(), 3u);  // top + 2 leaf instances
  EXPECT_EQ(d.cell_count(), 3u);
  // w2 is driven inside u0 and consumed inside u1.
  bool found_cross = false;
  for (std::size_t i = 0; i < d.net_count(); ++i) {
    const Net& n = d.net(static_cast<NetId>(i));
    if (n.driver.cell != kInvalidId && !n.sinks.empty() &&
        d.cell(n.driver.cell).hier != d.cell(n.sinks[0].cell).hier) {
      found_cross = true;
    }
  }
  EXPECT_TRUE(found_cross);
}

TEST(VerilogParser, VectorWires) {
  const Design d = parse_verilog_string(R"(
    module top ();
      wire [3:0] bus;
      HIDAP_DFF f0 (.Q0(bus[0]));
      HIDAP_DFF f1 (.D0(bus[0]), .Q0(bus[1]));
    endmodule
  )");
  EXPECT_EQ(d.net_count(), 4u);
  EXPECT_EQ(d.cell_count(), 2u);
}

TEST(VerilogParser, MacroHeaderAndPins) {
  const Design d = parse_verilog_string(R"(
    //HIDAP_MACRO RAM 20 10
    //HIDAP_PIN RAM D0 0 5 8 0
    //HIDAP_PIN RAM Q0 20 5 8 1
    //HIDAP_DIE 500 400
    module top ();
      wire a, b;
      HIDAP_DFF f (.Q0(a), .D0(b));
      RAM mem (.D0(a), .Q0(b));
    endmodule
  )");
  EXPECT_EQ(d.macro_count(), 1u);
  EXPECT_DOUBLE_EQ(d.die().w, 500.0);
  const CellId mac = d.macros()[0];
  EXPECT_DOUBLE_EQ(d.cell(mac).area, 200.0);
  // Q0 drives net b with its pin offset.
  bool q_found = false;
  for (std::size_t i = 0; i < d.net_count(); ++i) {
    const Net& n = d.net(static_cast<NetId>(i));
    if (n.driver.cell == mac) {
      EXPECT_FLOAT_EQ(n.driver.dx, 20.0f);
      q_found = true;
    }
  }
  EXPECT_TRUE(q_found);
}

TEST(VerilogParser, ErrorsCarryLineNumbers) {
  try {
    parse_verilog_string("module top ();\n  BOGUS_PRIM x ();\nendmodule\n");
    FAIL() << "expected parse error";
  } catch (const VerilogParseError& e) {
    EXPECT_EQ(e.line(), 2);
  }
}

TEST(VerilogParser, UnknownMacroPinRejected) {
  EXPECT_THROW(parse_verilog_string(R"(
    //HIDAP_MACRO RAM 20 10
    //HIDAP_PIN RAM D0 0 5 8 0
    module top ();
      wire a;
      RAM mem (.NOPE(a));
    endmodule
  )"),
               VerilogParseError);
}

TEST(VerilogParser, NoTopModuleRejected) {
  // Two modules instantiating each other leave no root.
  EXPECT_THROW(parse_verilog_string(R"(
    module a (); b x (); endmodule
    module b (); a x (); endmodule
  )"),
               VerilogParseError);
}

// Malformed inputs that must end in a VerilogParseError at a known line.
// Numbers are whole tokens of the expected type: bit indices and ranges
// are ints, so "1.5", "3000000000" and "1e300" are errors (casting the
// last two to int would be undefined behaviour), and so is "12-3".
struct BadNetlist {
  const char* name;
  const char* text;
  int line;
};

void PrintTo(const BadNetlist& bad, std::ostream* os) { *os << bad.name; }

class VerilogRejects : public ::testing::TestWithParam<BadNetlist> {};

TEST_P(VerilogRejects, WithTypedErrorAtLine) {
  try {
    parse_verilog_string(GetParam().text);
    FAIL() << "parsed: " << GetParam().text;
  } catch (const VerilogParseError& e) {
    EXPECT_EQ(e.line(), GetParam().line) << e.what();
    EXPECT_EQ(e.code(), ErrorCode::ParseError);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Table, VerilogRejects,
    ::testing::Values(
        BadNetlist{"NonIntegralIndex",
                   "module top ();\n  wire [3:0] b;\n  HIDAP_DFF f (.Q0(b[1.5]));\nendmodule\n", 3},
        BadNetlist{"IndexOutOfIntRange",
                   "module top ();\n  wire [3:0] b;\n  HIDAP_DFF f (.Q0(b[3000000000]));\nendmodule\n",
                   3},
        BadNetlist{"RangeOutOfIntRange", "module top ();\n  wire [1e300:0] b;\nendmodule\n", 2},
        BadNetlist{"RangeTrailingJunk", "module top ();\n\n  wire [12-3:0] b;\nendmodule\n", 3},
        BadNetlist{"ParamTrailingJunk",
                   "module top ();\n  HIDAP_COMB #(.AREA(12-3)) g ();\nendmodule\n", 2},
        BadNetlist{"ParamOutOfRange",
                   "module top ();\n  HIDAP_COMB #(.AREA(1e400)) g ();\nendmodule\n", 2},
        BadNetlist{"DirectiveBadNumber",
                   "//HIDAP_DIE 500 4x0\nmodule top ();\nendmodule\n", 1},
        BadNetlist{"DirectiveTruncated", "\n//HIDAP_MACRO RAM 20\nmodule top ();\nendmodule\n", 2},
        BadNetlist{"DuplicateMacro",
                   "//HIDAP_MACRO RAM 20 10\n//HIDAP_MACRO RAM 20 10\nmodule top ();\nendmodule\n",
                   2},
        BadNetlist{"PinOfUndeclaredMacro",
                   "//HIDAP_PIN RAM D0 0 5 8 0\nmodule top ();\nendmodule\n", 1},
        BadNetlist{"RecursiveInstantiation",
                   "module top (); a u (); endmodule\nmodule a ();\n b u ();\nendmodule\n"
                   "module b ();\n a u ();\nendmodule\n",
                   6}),
    [](const ::testing::TestParamInfo<BadNetlist>& info) { return info.param.name; });

TEST(VerilogRoundTrip, GeneratedCircuitSurvives) {
  CircuitSpec spec;
  spec.name = "rt";
  spec.target_cells = 1500;
  spec.macro_count = 6;
  spec.subsystems = 2;
  spec.bus_width = 16;
  spec.seed = 3;
  const Design original = generate_circuit(spec);
  ASSERT_TRUE(original.validate().empty());

  std::ostringstream text;
  write_verilog(original, text);
  const Design parsed = parse_verilog_string(text.str());

  EXPECT_TRUE(parsed.validate().empty()) << parsed.validate();
  EXPECT_EQ(parsed.cell_count(), original.cell_count());
  EXPECT_EQ(parsed.macro_count(), original.macro_count());
  EXPECT_EQ(parsed.hier_count(), original.hier_count());
  EXPECT_NEAR(parsed.total_cell_area(), original.total_cell_area(), 1e-3);
  EXPECT_NEAR(parsed.die().w, original.die().w, 1e-6);
  // Net *connections* must be preserved: same number of (driver, sink)
  // pairs overall.
  auto pin_pairs = [](const Design& d) {
    std::size_t pairs = 0;
    for (std::size_t i = 0; i < d.net_count(); ++i) {
      const Net& n = d.net(static_cast<NetId>(i));
      if (n.driver.cell != kInvalidId) pairs += n.sinks.size();
    }
    return pairs;
  };
  EXPECT_EQ(pin_pairs(parsed), pin_pairs(original));
}

TEST(VerilogRoundTrip, SecondRoundTripIsStable) {
  CircuitSpec spec;
  spec.name = "rt2";
  spec.target_cells = 400;
  spec.macro_count = 2;
  spec.subsystems = 1;
  spec.bus_width = 8;
  const Design d1 = generate_circuit(spec);
  std::ostringstream t1;
  write_verilog(d1, t1);
  const Design d2 = parse_verilog_string(t1.str());
  std::ostringstream t2;
  write_verilog(d2, t2);
  const Design d3 = parse_verilog_string(t2.str());
  EXPECT_EQ(d2.cell_count(), d3.cell_count());
  EXPECT_EQ(d2.net_count(), d3.net_count());
  EXPECT_EQ(d2.hier_count(), d3.hier_count());
}

}  // namespace
}  // namespace hidap
