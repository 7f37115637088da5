#pragma once
// The seeded fuzzer corpus the reader suites share: one small generated
// design, and the truncations, byte mutations and line deletions applied
// to its text. Every function is a pure function of its arguments, so
// two suites fed the same seeds see the same inputs.

#include <cstdint>
#include <sstream>
#include <string>

#include "gen/circuit_gen.hpp"
#include "util/rng.hpp"

namespace hidap::fuzz {

inline constexpr double kTruncations[] = {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99};
/// Seeds [kFirstSeed, kEndSeed) of the mutation and deletion cases.
inline constexpr int kFirstSeed = 1;
inline constexpr int kEndSeed = 17;

inline Design sample_design() {
  CircuitSpec spec;
  spec.name = "fuzz";
  spec.target_cells = 300;
  spec.macro_count = 2;
  spec.subsystems = 1;
  spec.bus_width = 8;
  return generate_circuit(spec);
}

inline std::string truncated(const std::string& text, double frac) {
  return text.substr(0, static_cast<std::size_t>(text.size() * frac));
}

/// Overwrites `count` seeded positions with random printable bytes.
inline std::string mutated(std::string text, std::uint64_t seed, int count = 12) {
  Rng rng(seed * 2654435761ULL + 17);
  for (int m = 0; m < count && !text.empty(); ++m) {
    const std::size_t at = rng.next_below(text.size());
    text[at] = static_cast<char>(' ' + rng.next_below(94));
  }
  return text;
}

/// Drops about 8% of the lines, chosen by `seed`.
inline std::string lines_deleted(const std::string& text, std::uint64_t seed) {
  Rng rng(seed * 40503ULL + 3);
  std::istringstream in(text);
  std::ostringstream kept;
  std::string line;
  while (std::getline(in, line)) {
    if (rng.next_double() > 0.08) kept << line << '\n';
  }
  return kept.str();
}

}  // namespace hidap::fuzz
