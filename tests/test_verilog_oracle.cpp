// Differential oracle for the Verilog front end: the library parser
// against the reference parser it replaced (reference_verilog_parser.hpp).
// On every input both must build field-for-field the same Design (equal
// full-field digests, equal write_verilog bytes) or throw the same
// VerilogParseError at the same line with the same message. The one
// deliberate difference: negative vector bounds and bit indices, which
// the reference accepted and the library rejects.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "design_digest.hpp"
#include "fuzz_corpus.hpp"
#include "gen/circuit_gen.hpp"
#include "gen/suite.hpp"
#include "netlist/verilog_parser.hpp"
#include "netlist/verilog_writer.hpp"
#include "obs/trace.hpp"
#include "reference_verilog_parser.hpp"

namespace hidap {
namespace {

std::string verilog_of(const Design& design) {
  std::ostringstream out;
  write_verilog(design, out);
  return out.str();
}

// One parse: the Design's digest and netlist bytes, or the typed error.
struct Outcome {
  bool parsed = false;
  std::uint64_t digest = 0;
  std::string verilog;
  int line = 0;
  std::string error;
};

template <typename Parse>
Outcome outcome_of(Parse parse, const std::string& text) {
  Outcome out;
  try {
    const Design design = parse(text);
    out.parsed = true;
    out.digest = design_digest(design);
    out.verilog = verilog_of(design);
  } catch (const VerilogParseError& e) {
    out.line = e.line();
    out.error = e.what();
  }
  return out;
}

bool is_negative_bound_error(const Outcome& o) {
  return !o.parsed && (o.error.find("negative bound in vector range") != std::string::npos ||
                       o.error.find("negative bit index") != std::string::npos);
}

// Both parsers agree on `text`. Returns whether the library parsed it.
bool expect_same_outcome(const std::string& text, const std::string& label) {
  const Outcome lean = outcome_of(parse_verilog_string, text);
  const Outcome ref = outcome_of(reference::parse_verilog_string, text);
  if (is_negative_bound_error(lean)) return false;
  EXPECT_EQ(lean.parsed, ref.parsed) << label << ": " << lean.error << " | " << ref.error;
  EXPECT_EQ(lean.digest, ref.digest) << label;
  EXPECT_TRUE(lean.verilog == ref.verilog) << label << ": netlist bytes differ";
  EXPECT_EQ(lean.line, ref.line) << label;
  EXPECT_EQ(lean.error, ref.error) << label;
  return lean.parsed;
}

class VerilogOracleSuite : public ::testing::TestWithParam<const char*> {};

// The paper suite at the scale of the quick SuiteMatrix runs, through a
// write/parse round trip.
TEST_P(VerilogOracleSuite, RoundTripMatchesReference) {
  const Design generated = generate_circuit(suite_circuit(GetParam(), 0.003).spec);
  EXPECT_TRUE(expect_same_outcome(verilog_of(generated), GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Circuits, VerilogOracleSuite,
                         ::testing::Values("c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8"));

// The netlist `hidap_cli gen --cells 200000 --macros 128 --seed 1` writes.
TEST(VerilogOracle, Generated200kNetlistMatchesReference) {
  CircuitSpec spec;
  spec.target_cells = 200000;
  spec.macro_count = 128;
  spec.seed = 1;
  EXPECT_TRUE(expect_same_outcome(verilog_of(generate_circuit(spec)), "gen 200k"));
}

TEST(VerilogOracle, FuzzCorpusMatchesReference) {
  const std::string text = verilog_of(fuzz::sample_design());
  for (const double frac : fuzz::kTruncations) {
    expect_same_outcome(fuzz::truncated(text, frac), "truncated " + std::to_string(frac));
  }
  for (int seed = fuzz::kFirstSeed; seed < fuzz::kEndSeed; ++seed) {
    const auto s = static_cast<std::uint64_t>(seed);
    expect_same_outcome(fuzz::mutated(text, s), "mutated " + std::to_string(seed));
    expect_same_outcome(fuzz::lines_deleted(text, s), "lines deleted " + std::to_string(seed));
  }
}

// Hand-written corners of the grammar and of elaboration, valid and not.
TEST(VerilogOracle, GrammarCornersMatchReference) {
  const char* const header = "//HIDAP_MACRO RAM 20 10\n//HIDAP_PIN RAM D0 0 5 8 0\n"
                             "//HIDAP_PIN RAM Q0 20 5 8 1\n//HIDAP_DIE 500 400\n";
  const char* const cases[] = {
      // Escaped names: `\a[3] ` is the net a[3], also through a port.
      "module top ();\n wire [3:0] a;\n HIDAP_DFF f (.Q0(\\a[3] ), .D0(a[3]));\nendmodule\n",
      "module top ();\n wire \\a[3] ;\n HIDAP_DFF f (.Q0(a[3]), .D0(\\a[03] ), .D1(\\a[-1] ));\n"
      "endmodule\n",
      "module top ();\n wire [2:2] \\b[1] ;\n HIDAP_COMB g (.I0(\\b[1][2] ), .I1(b[1]));\nendmodule\n",
      "module leaf (p);\n input p;\n HIDAP_COMB g (.I0(p), .I1(\\p[0] ));\nendmodule\n"
      "module top ();\n wire [1:0] w;\n leaf u (.p(w[1]), .\\p[0] (w[0]));\nendmodule\n",
      "module top ();\n wire [2147483647:2147483647] w;\n HIDAP_COMB g (.I0(\\w[2147483647] ),"
      " .I1(\\w[2147483648] ));\nendmodule\n",
      // Parameters: the last one given wins; unknown keys are ignored.
      "module top ();\n HIDAP_COMB #(.AREA(1), .AREA(2.5), .K(-3e2)) g ();\n"
      " HIDAP_PIN_IN #(.Y(4), .X(-1.5), .Y(7)) p (.O0(n));\nendmodule\n",
      // Implicit nets, unconnected pins, reversed ranges, comments.
      "/* lead */ module top (a, b); // ports\n input a; output [0:3] b;\n"
      " HIDAP_COMB g (.I0(a), .I1(), .O0(b[2]), .I2(x), .I3(x));\nendmodule\n",
      // Hierarchy: bindings, repeated pins, unbound ports, two instances.
      "module leaf (a, y);\n input a; output y; wire a;\n"
      " HIDAP_COMB g (.I0(a), .O0(y));\nendmodule\n"
      "module top ();\n wire w1, w2;\n leaf u0 (.a(w1), .a(w2), .y(w2));\n leaf u1 (.a(w2));\n"
      "endmodule\n",
      // Macros: pin offsets; an unknown pin; vector port binding refused.
      "module top ();\n wire a, b;\n RAM m (.D0(a), .Q0(b));\n HIDAP_DFF f (.Q0(a), .D0(b));\n"
      "endmodule\n",
      "module top ();\n wire a;\n RAM m (.NOPE(a));\nendmodule\n",
      "module leaf (v);\n input [1:0] v; input v;\nendmodule\n"
      "module top ();\n wire w;\n leaf u (.v(w));\nendmodule\n",
      "module leaf (v);\n input v; input [1:0] v;\nendmodule\n"
      "module top ();\n wire w;\n leaf u (.v(w));\nendmodule\n",
      // Errors in scan and elaboration order.
      "module top ();\n wire [3:0] b;\n HIDAP_DFF f (.Q0(b[4]));\nendmodule\n",
      "module top ();\n wire [1:0] b;\n HIDAP_DFF f (.Q0(c[0]));\nendmodule\n",
      "module top ();\n BOGUS_PRIM x ();\nendmodule\n",
      "module top ();\n HIDAP_BOGUS x ();\nendmodule\n",
      "module a (); endmodule\nmodule b (); endmodule\n",
      "module a (); b x (); endmodule\nmodule b (); a x (); endmodule\n",
      "module top (); a u (); endmodule\nmodule a ();\n b u ();\nendmodule\n"
      "module b ();\n a u ();\nendmodule\n",
      "module top ();\n wire [1.5:0] b;\nendmodule\n",
      "module top ();\n HIDAP_COMB #(.AREA(12-3)) g ();\nendmodule\n",
      "module top ();\n wire w\nendmodule\n",
      "module top ();\n",
      "",
      "//HIDAP_DIE 500 4x0\nmodule top ();\nendmodule\n",
      "//HIDAP_MACRO RAM 20\nmodule top ();\nendmodule\n",
      "//HIDAP_PIN RAM D0 0 5 8 0\nmodule top ();\nendmodule\n",
  };
  for (const char* body : cases) {
    expect_same_outcome(body, body);
    expect_same_outcome(std::string(header) + body, std::string("with header: ") + body);
  }
}

TEST(VerilogOracle, EscapedBitNameIsTheVectorBit) {
  const Design d = parse_verilog_string(
      "module top ();\n wire [3:0] a;\n HIDAP_DFF f (.Q0(\\a[3] ), .D0(a[3]));\nendmodule\n");
  ASSERT_EQ(d.net_count(), 4u);
  const Net& bit3 = d.net(3);
  EXPECT_EQ(bit3.name, "top/a[3]");
  EXPECT_EQ(bit3.driver.cell, 0);
  ASSERT_EQ(bit3.sinks.size(), 1u);
  EXPECT_EQ(bit3.sinks[0].cell, 0);
}

// The one deliberate difference: the reference read a negative msb as a
// scalar and a negative bit as the unsuffixed name.
TEST(VerilogOracle, NegativeBoundsAreTheOnlyDifference) {
  const std::string text =
      "module top ();\n wire [-1:3] w;\n HIDAP_COMB g (.I0(w));\nendmodule\n";
  EXPECT_EQ(reference::parse_verilog_string(text).net_count(), 1u);
  const Outcome lean = outcome_of(parse_verilog_string, text);
  EXPECT_TRUE(is_negative_bound_error(lean)) << lean.error;
  EXPECT_EQ(lean.line, 2);
}

TEST(VerilogOracle, TracedParseRecordsScanAndElaborate) {
  const std::string text = verilog_of(fuzz::sample_design());
  const std::uint64_t untraced = design_digest(parse_verilog_string(text));
  obs::Tracer::instance().clear();
  obs::set_tracing_enabled(true);
  const std::uint64_t traced = design_digest(parse_verilog_string(text));
  obs::set_tracing_enabled(false);
  EXPECT_EQ(traced, untraced);
  const std::vector<obs::TraceEvent> events = obs::Tracer::instance().collect();
  const auto find = [&](std::string_view name) {
    return std::find_if(events.begin(), events.end(),
                        [&](const obs::TraceEvent& e) { return e.name == name; });
  };
  const auto scan = find("verilog.scan");
  const auto elaborate = find("verilog.elaborate");
  ASSERT_NE(scan, events.end());
  ASSERT_NE(elaborate, events.end());
  EXPECT_LE(scan->start_ns + scan->dur_ns, elaborate->start_ns);
}

}  // namespace
}  // namespace hidap
