// Reproduces paper Fig. 1: the evolution of the multi-level block
// floorplan of a 16-macro design. Emits one SVG per recursion stage
// (out/fig1_stage*.svg) plus the final macro placement (out/fig1_final.svg)
// and prints the recursion trace.

#include <cstdio>

#include "bench_common.hpp"
#include "core/hidap.hpp"
#include "viz/svg.hpp"

using namespace hidap;
using namespace hidap::benchutil;

int main() {
  set_log_level(LogLevel::Warn);
  const CircuitSpec spec = fig1_spec();
  const Design design = generate_circuit(spec);
  std::printf("Reproducing Fig. 1: %zu macros, %zu cells\n", design.macro_count(),
              design.cell_count());

  FlowOptions fo = bench_flow_options();
  const PlacementContext context(design, fo.hidap.seq);
  // HiDaP's best-of-three lambda placement, as the flow comparison picks it.
  const FlowComparison cmp = compare_flows(design, fo);
  const PlacementResult& result = cmp.hidap_placement;

  const std::string dir = out_dir();
  int stage = 0;
  std::printf("%-6s %-24s %8s %8s\n", "stage", "level", "blocks", "macros");
  print_rule(52);
  int max_depth = 0;
  for (const LevelSnapshot& snap : result.snapshots) {
    int macros = 0;
    for (const int c : snap.block_macro_counts) macros += c;
    std::printf("%-6d %-24s %8zu %8d\n", stage, context.ht.path(snap.level).c_str(),
                snap.blocks.size(), macros);
    write_snapshot_svg(design, snap,
                       dir + "/fig1_stage" + std::to_string(stage) + ".svg");
    max_depth = std::max(max_depth, snap.depth);
    ++stage;
  }
  write_placement_svg(design, result, dir + "/fig1_final.svg");
  print_rule(52);
  std::printf("recursion depth: %d levels (paper shows 3 declustering rounds + final)\n",
              max_depth + 1);
  std::printf("wrote %d stage SVGs and %s/fig1_final.svg\n", stage, dir.c_str());

  const PlacementCheck check = check_placement(
      design, result, Rect{0, 0, design.die().w, design.die().h});
  std::printf("all 16 macros placed: %s, inside die: %s, overlap: %.1f um^2\n",
              check.all_macros_placed ? "yes" : "NO",
              check.all_inside_die ? "yes" : "NO", check.overlap_area);
  return 0;
}
