#pragma once
// End-to-end evaluation of a macro placement: standard-cell placement,
// wirelength, congestion, timing, density -- the paper's "metrics after
// placement using the same tool" protocol (Table III columns).

#include <string>

#include "core/result.hpp"
#include "dataflow/seq_graph.hpp"
#include "place/density.hpp"
#include "place/hpwl.hpp"
#include "place/quadratic_placer.hpp"
#include "route/congestion.hpp"
#include "timing/timing.hpp"

namespace hidap {

struct EvalOptions {
  PlaceOptions place;
  CongestionOptions congestion;
  TimingOptions timing;
  int density_grid = 64;
};

struct Metrics {
  std::string flow;
  double wl_m = 0.0;           ///< Table III "WL" (meters)
  double wl_norm = 0.0;        ///< normalized vs a reference (filled later)
  double grc_percent = 0.0;    ///< Table III "Cong. GRC%"
  double wns_percent = 0.0;    ///< Table III "WNS%"
  double tns_ns = 0.0;         ///< Table III "TNS"
  double runtime_s = 0.0;      ///< flow effort: placement seconds only
  /// Evaluation seconds: the flow's selection evaluations plus its final
  /// one (filled by compare_flows).
  double eval_s = 0.0;
  double peak_density_near_macros = 0.0;  ///< Fig. 9 discussion metric
};

/// Places cells under the given macro placement and measures everything.
/// `ht`/`seq` must come from the same design (see PlacementContext).
Metrics evaluate_placement(const Design& design, const HierTree& ht,
                           const SeqGraph& seq, const PlacementResult& placement,
                           const EvalOptions& options = {});

/// Cheap surrogate (no cell placement): bit-weighted Gseq wirelength with
/// registers collapsed to their hierarchy estimate. Used for intermediate
/// flow selection where full evaluation would dominate runtime.
double quick_wirelength(const Design& design, const HierTree& ht, const SeqGraph& seq,
                        const PlacementResult& placement);

}  // namespace hidap
