// SoC pipeline example: generate a realistic hierarchical SoC with the
// built-in generator and compare the three flows of the paper on it.
//
//   $ ./soc_pipeline [macros] [cells]

#include <cstdio>
#include <cstdlib>

#include "eval/flows.hpp"
#include "gen/circuit_gen.hpp"
#include "util/log.hpp"
#include "viz/svg.hpp"

using namespace hidap;

int main(int argc, char** argv) {
  set_log_level(LogLevel::Warn);
  CircuitSpec spec;
  spec.name = "soc";
  spec.macro_count = argc > 1 ? std::atoi(argv[1]) : 24;
  spec.target_cells = argc > 2 ? std::atoi(argv[2]) : 20000;
  spec.subsystems = 3;
  spec.pipeline_depth = 3;
  spec.bus_width = 64;
  spec.seed = 42;

  std::printf("generating %s: %d macros, ~%d cells, %d subsystems\n",
              spec.name.c_str(), spec.macro_count, spec.target_cells, spec.subsystems);
  const Design design = generate_circuit(spec);
  std::printf("die: %.0f x %.0f um\n\n", design.die().w, design.die().h);

  FlowOptions options;
  options.hidap.layout_anneal.moves_per_temperature = 120;
  options.handfp_seeds = 2;
  options.handfp_effort = 2.0;

  const FlowComparison cmp = compare_flows(design, options);
  std::printf("%-8s %10s %8s %8s %8s %10s %10s %10s\n", "flow", "WL(m)", "norm", "GRC%",
              "WNS%", "TNS(ns)", "place(s)", "eval(s)");
  for (const Metrics* m : {&cmp.indeda, &cmp.hidap, &cmp.handfp}) {
    std::printf("%-8s %10.3f %8.3f %8.2f %8.1f %10.0f %10.1f %10.1f\n", m->flow.c_str(),
                m->wl_m, m->wl_norm, m->grc_percent, m->wns_percent, m->tns_ns,
                m->runtime_s, m->eval_s);
  }
  std::printf("\nexpected: HiDaP well below IndEDA in WL/WNS, close to handFP\n");
  return 0;
}
