#pragma once
// The three floorplanning flows compared in the paper's evaluation:
//
//   IndEDA  -- commercial-floorplanner proxy (periphery wall packing),
//   HiDaP   -- this library, best wirelength of lambda in {0.2, 0.5, 0.8},
//   handFP  -- expert-handcrafted proxy: oracle-assisted high-effort
//              search (seed x lambda sweep at ~3x SA effort, winner
//              selected by fully evaluated wirelength).
//
// compare_flows runs them as one sweep: a single parallel_for over every
// configuration, costliest first -- the handfp_seeds x 3 handFP slots,
// the 3 HiDaP lambda slots, then IndEDA with its evaluation -- so the
// cheap tail fills the lanes the long slots leave idle. Each slot writes
// only its own index; after the join the winners are picked in sweep
// order (lowest index wins a tie) and one parallel_invoke evaluates the
// HiDaP and handFP winners. The results are therefore bit-identical at
// any thread count; only the effort/eval seconds are wall-clock.
//
// See DESIGN.md for why the proxies preserve the paper's comparison.

#include "core/hidap.hpp"
#include "eval/metrics.hpp"

namespace hidap {

struct FlowOptions {
  HiDaPOptions hidap;          ///< base options; lambda is swept internally
  EvalOptions eval;
  double indeda_effort = 1.0;  ///< SA effort scale for the wall packer
  double handfp_effort = 3.0;  ///< SA effort scale for the handFP proxy
  int handfp_seeds = 3;
  std::uint64_t seed = 1;
};

PlacementResult run_indeda_flow(const Design& design, const PlacementContext& context,
                                const FlowOptions& options = {});

/// All three flows evaluated; wl_norm is filled relative to handFP
/// (handFP = 1.000, like Table III). A sweep flow's runtime_s sums its
/// configurations' placement seconds and its eval_s their selection
/// evaluations plus the winner's final one.
struct FlowComparison {
  Metrics indeda;
  Metrics hidap;
  Metrics handfp;
  /// The placements those metrics score (a sweep flow's winner).
  PlacementResult indeda_placement;
  PlacementResult hidap_placement;
  PlacementResult handfp_placement;
};
FlowComparison compare_flows(const Design& design, const FlowOptions& options = {});

}  // namespace hidap
