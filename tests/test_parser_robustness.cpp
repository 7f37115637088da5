// Parser robustness: truncated and mutated inputs in every text format
// the system reads -- Verilog netlists, DEF placements, Bookshelf
// files and hidap_serve request lines -- must either parse into
// something valid or fail with that reader's typed error. Any other
// exception, a crash, a hang or a sanitizer report fails the test.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/hidap.hpp"
#include "fuzz_corpus.hpp"
#include "netlist/bookshelf.hpp"
#include "netlist/def_io.hpp"
#include "netlist/verilog_parser.hpp"
#include "netlist/verilog_writer.hpp"
#include "service/json.hpp"
#include "util/log.hpp"
#include "util/text_cursor.hpp"

namespace hidap {
namespace {

using fuzz::kTruncations;
using fuzz::mutated;
using fuzz::truncated;

// One small generated design, its netlist and a placement of it.
struct Sample {
  Design design;
  std::string verilog;
  PlacementResult placement;
  Sample() : design(fuzz::sample_design()) {
    std::ostringstream out;
    write_verilog(design, out);
    verilog = out.str();
    set_log_level(LogLevel::Warn);
    HiDaPOptions o;
    o.layout_anneal.moves_per_temperature = 20;
    o.shape_fp.anneal.moves_per_temperature = 20;
    placement = place_macros(design, o);
  }
};

const Sample& sample() {
  static const Sample* s = new Sample();
  return *s;
}

std::string sample_netlist() { return sample().verilog; }

std::string sample_def() {
  std::ostringstream out;
  write_def(sample().design, sample().placement, out);
  return out.str();
}

void expect_parse_or_clean_error(const std::string& text) {
  try {
    const Design d = parse_verilog_string(text);
    EXPECT_TRUE(d.validate().empty()) << d.validate();
  } catch (const VerilogParseError&) {
    // acceptable: clean rejection
  }
}

void expect_def_or_clean_error(const std::string& text) {
  try {
    const DefContents def = parse_def_text(text);
    PlacementResult bound;
    apply_def_placement(sample().design, def, bound);
    EXPECT_LE(bound.macros.size(), def.components.size());
  } catch (const DefParseError&) {
    // acceptable: clean rejection
  }
}

// Writes the sample as Bookshelf under a pid-keyed base name (so
// concurrent test processes never share files), replaces the file with
// extension `ext` by `edit(original)`, and reads the set back.
template <typename Edit>
void expect_bookshelf_or_clean_error(const char* ext, const std::string& tag, Edit edit) {
  const std::string base = "fuzz_bs_" + std::to_string(::getpid()) + "_" + tag;
  write_bookshelf(sample().design, sample().placement, base);
  const std::string path = base + ext;
  const std::string original = read_file(path);
  std::ofstream(path, std::ios::binary | std::ios::trunc) << edit(original);
  try {
    const BookshelfDesign loaded = read_bookshelf(base);
    EXPECT_TRUE(loaded.design.validate().empty()) << loaded.design.validate();
  } catch (const HidapError& e) {
    EXPECT_EQ(e.code(), ErrorCode::ParseError) << e.what();
  }
  for (const char* x : {".nodes", ".nets", ".pl", ".aux"}) std::remove((base + x).c_str());
}

const char* const kServeLines[] = {
    R"({"op":"place","id":"j1","verilog":"chip.v","out":"j1.def","lambda":0.5,"seed":3,"effort":0.05,"progress":true})",
    R"({"op":"place","id":"j2","verilog_text":"module top ();\nendmodule\n","timeout_s":1.5e-1,"chains":2})",
    R"({"op":"cancel","id":"j1"})",
    R"({"name":"sa.anneal","ph":"X","ts":12,"dur":3,"args":{"chain":2,"cost":-1.25e2}})",
    R"({"op":"stats","note":"tab\tquote\" A null","flag":null})",
};

void expect_json_or_clean_error(const std::string& line) {
  JsonObject obj;
  std::string error;
  if (!parse_json_object(line, obj, error)) {
    EXPECT_FALSE(error.empty()) << line;
  }
}

TEST(ParserRobustness, TruncationsNeverCrash) {
  const std::string text = sample_netlist();
  for (const double frac : kTruncations) expect_parse_or_clean_error(truncated(text, frac));
}

TEST(ParserRobustness, DefTruncationsNeverCrash) {
  const std::string text = sample_def();
  for (const double frac : kTruncations) expect_def_or_clean_error(truncated(text, frac));
}

TEST(ParserRobustness, BookshelfTruncationsNeverCrash) {
  for (const char* ext : {".nodes", ".nets", ".pl"}) {
    for (const double frac : kTruncations) {
      expect_bookshelf_or_clean_error(ext, "trunc", [frac](const std::string& text) {
        return truncated(text, frac);
      });
    }
  }
}

TEST(ParserRobustness, ServeLineTruncationsNeverCrash) {
  for (const std::string line : kServeLines) {
    JsonObject obj;
    std::string error;
    ASSERT_TRUE(parse_json_object(line, obj, error)) << error << " in " << line;
    for (std::size_t n = 0; n < line.size(); ++n) expect_json_or_clean_error(line.substr(0, n));
  }
}

class ParserFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ParserFuzz, RandomByteMutations) {
  expect_parse_or_clean_error(mutated(sample_netlist(), static_cast<std::uint64_t>(GetParam())));
}

TEST_P(ParserFuzz, RandomLineDeletions) {
  expect_parse_or_clean_error(
      fuzz::lines_deleted(sample_netlist(), static_cast<std::uint64_t>(GetParam())));
}

TEST_P(ParserFuzz, DefByteMutations) {
  expect_def_or_clean_error(mutated(sample_def(), static_cast<std::uint64_t>(GetParam())));
}

TEST_P(ParserFuzz, BookshelfByteMutations) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const char* const exts[] = {".nodes", ".nets", ".pl"};
  const char* const ext = exts[seed % 3];
  expect_bookshelf_or_clean_error(ext, "mut" + std::to_string(seed),
                                  [seed](const std::string& text) {
                                    return mutated(text, seed);
                                  });
}

TEST_P(ParserFuzz, ServeLineMutations) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  for (const std::string line : kServeLines) {
    expect_json_or_clean_error(mutated(line, seed, 3));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Range(fuzz::kFirstSeed, fuzz::kEndSeed));

TEST(ParserRobustness, DeepNestingBounded) {
  // A module chain 64 deep elaborates fine (recursion is depth-bounded by
  // the hierarchy, not the token stream).
  std::string text;
  for (int i = 63; i >= 1; --i) {
    text += "module m" + std::to_string(i) + " ();\n";
    if (i < 63) text += "  m" + std::to_string(i + 1) + " u ();\n";
    text += "endmodule\n";
  }
  const Design d = parse_verilog_string(text);
  EXPECT_EQ(d.hier_count(), 63u);
}

TEST(ParserRobustness, HugeTokenHandled) {
  std::string name(5000, 'x');
  const Design d =
      parse_verilog_string("module top ();\n  HIDAP_COMB " + name + " ();\nendmodule\n");
  EXPECT_EQ(d.cell(0).name.size(), 5000u);
}

TEST(ParserRobustness, HostileVectorWidthRejected) {
  // Each bit of a declared vector becomes a net: a width beyond the input
  // size is refused before any net exists, and so is a negative bound.
  for (const char* decl :
       {"wire [2147483647:0] w;", "wire [0:2147483647] w;", "input [5:-2147483647] w;"}) {
    try {
      parse_verilog_string(std::string("module top ();\n  ") + decl + "\nendmodule\n");
      ADD_FAILURE() << decl << ": accepted";
    } catch (const VerilogParseError& e) {
      EXPECT_EQ(e.code(), ErrorCode::ParseError) << decl;
      EXPECT_EQ(e.line(), 2) << decl;
      EXPECT_NE(std::string(e.what()).find("vector width"), std::string::npos) << e.what();
    }
  }
  // A negative bound or bit index names no net: refused, not read as a
  // scalar (`[-1:3]`) or as the unsuffixed name (`w[-1]`).
  for (const char* stmt :
       {"wire [-1:3] w;", "wire [3:-1] w;", "output [-2147483648:0] w;",
        "wire [3:0] w; HIDAP_COMB g (.I0(w[-1]));"}) {
    try {
      parse_verilog_string(std::string("module top ();\n  ") + stmt + "\nendmodule\n");
      ADD_FAILURE() << stmt << ": accepted";
    } catch (const VerilogParseError& e) {
      EXPECT_EQ(e.code(), ErrorCode::ParseError) << stmt;
      EXPECT_EQ(e.line(), 2) << stmt;
      EXPECT_NE(std::string(e.what()).find("negative"), std::string::npos) << e.what();
    }
  }
  const Design d = parse_verilog_string("module top ();\n  wire [7:0] w;\nendmodule\n");
  EXPECT_EQ(d.net_count(), 8u);
}

TEST(ParserRobustness, GarbageRejected) {
  expect_parse_or_clean_error("%%%###!!!");
  expect_parse_or_clean_error("module module module");
  expect_parse_or_clean_error("module a (); HIDAP_COMB g (.I0(");
}

}  // namespace
}  // namespace hidap
