// Reproduces paper Fig. 9: standard-cell density maps of circuit c3
// placed by the three flows (PPM heatmaps), plus the top-level Gdf block
// floorplan with affinity arrows (Fig. 9d).
//
// Paper observation: IndEDA and handFP put macros on the walls, HiDaP
// finds more distributed locations and shows the smallest peak cell
// density near macros.

#include <cstdio>

#include "bench_common.hpp"
#include "core/dataflow_inference.hpp"
#include "core/hidap.hpp"
#include "viz/heatmap.hpp"
#include "viz/svg.hpp"

using namespace hidap;
using namespace hidap::benchutil;

int main() {
  set_log_level(LogLevel::Warn);
  const double scale = env_scale(0.05);
  const SuiteEntry entry = suite_circuit("c3", scale);
  std::printf("Reproducing Fig. 9 on c3 (%d macros, %d cells)\n",
              entry.spec.macro_count, entry.spec.target_cells);

  const Design design = generate_circuit(entry.spec);
  const FlowOptions fo = bench_flow_options();
  const PlacementContext context(design, fo.hidap.seq);
  const std::string dir = out_dir();

  const FlowComparison cmp = compare_flows(design, fo);
  struct Run {
    const char* tag;
    const Metrics& metrics;
    const PlacementResult& result;
  };
  const Run runs[] = {{"indeda", cmp.indeda, cmp.indeda_placement},
                      {"hidap", cmp.hidap, cmp.hidap_placement},
                      {"handfp", cmp.handfp, cmp.handfp_placement}};

  std::printf("%-8s %10s %11s %11s %11s\n", "flow", "WL(m)", "peak dens.",
              "peak@macro", "mean@macro");
  print_rule(58);
  double mean_near[3] = {0, 0, 0};
  for (std::size_t i = 0; i < std::size(runs); ++i) {
    const PlacedDesign placed = place_cells(design, context.ht, runs[i].result, fo.eval.place);
    const DensityMap density = compute_density(placed, 64);
    mean_near[i] = density.mean_density_near_macros();
    write_density_ppm(density, dir + "/fig9_" + runs[i].tag + "_density.ppm");
    write_density_csv(density, dir + "/fig9_" + runs[i].tag + "_density.csv");
    write_placement_svg(design, runs[i].result, dir + "/fig9_" + runs[i].tag + ".svg");
    std::printf("%-8s %10.3f %11.3f %11.3f %11.3f\n", runs[i].tag, runs[i].metrics.wl_m,
                density.peak_cell_density(), density.peak_density_near_macros(),
                mean_near[i]);
  }
  print_rule(58);
  std::printf("paper shape: HiDaP has the lowest cell pile-up near macros -> %s\n",
              (mean_near[1] <= mean_near[0] + 1e-9 || mean_near[1] <= mean_near[2] + 1e-9)
                  ? "reproduced"
                  : "NOT reproduced on this seed");

  // --- Fig. 9d: top-level Gdf block floorplan from the HiDaP run. ------
  const PlacementResult& hidap_run = runs[1].result;
  if (!hidap_run.snapshots.empty()) {
    const LevelSnapshot& top = hidap_run.snapshots.front();
    HiDaPOptions opts = fo.hidap;
    const LevelDataflow flow = infer_level_dataflow(
        design, context.ht, context.seq, top.level, top.blocks, EstimateSnapshot{}, opts);
    write_gdf_svg(*flow.gdf, flow.affinity, top.block_rects, top.region,
                  dir + "/fig9d_gdf_floorplan.svg");
    std::printf("top-level Gdf: %zu blocks, %zu dataflow edges -> %s/fig9d_gdf_floorplan.svg\n",
                top.blocks.size(), flow.gdf->edges().size(), dir.c_str());
  }
  std::printf("wrote density maps to %s/fig9_*_density.ppm\n", dir.c_str());
  return 0;
}
