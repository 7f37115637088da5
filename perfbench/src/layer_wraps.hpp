#pragma once
// Hooks of the layer wrappers (layer_wraps.cpp).

#include <cstdint>
#include <functional>

#include "core/result.hpp"
#include "netlist/netlist.hpp"

namespace perfbench {

/// Verilog bytes handed to parse_verilog_string while tracing was on.
std::uint64_t parsed_bytes();

/// Gseq graphs built by extract_seq_graph while tracing was on, and
/// their summed edge counts.
struct SeqGraphStats {
  std::uint64_t graphs = 0;
  std::uint64_t edges = 0;
};
SeqGraphStats seq_graph_stats();

/// Called (from any thread) with every placement passed to
/// evaluate_placement, so the benchmark can check placements that
/// compare_flows evaluates but does not return. Must be thread-safe and
/// cheap; nullptr disables it. The observer must outlive its installation.
using PlacementObserver = std::function<void(const hidap::Design&, const hidap::PlacementResult&)>;
void set_placement_observer(PlacementObserver* observer);

}  // namespace perfbench
