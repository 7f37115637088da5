#pragma once
// Cluster-level quadratic placement with grid spreading.
//
// Given fixed macro positions and port locations, cell clusters are
// placed by minimizing quadratic (star-model) wirelength -- solved with
// damped Gauss-Seidel sweeps -- and then spread out of overfull grid bins
// whose capacity excludes macro-covered area. The result is the
// PlacedDesign every downstream metric (HPWL, congestion, timing,
// density) reads positions from.
//
// The design-only inputs -- the clustering and the cluster links -- form
// a StarModel (place/star_model.hpp). Pass one through
// PlaceOptions::model to share it across the placements of one design;
// without one, place_cells builds its own.

#include <memory>
#include <vector>

#include "core/result.hpp"
#include "geometry/geometry.hpp"
#include "hier/hier_tree.hpp"
#include "netlist/netlist.hpp"
#include "place/clustering.hpp"
#include "place/star_model.hpp"

namespace hidap {

struct PlaceOptions {
  /// <= 0 selects automatically: ~3 clusters per spreading bin, so every
  /// cluster is legalizable within one bin.
  int target_clusters = 0;
  int solver_iterations = 80;
  int grid = 32;              ///< spreading grid resolution
  int spreading_rounds = 200;
  double bin_capacity_ratio = 0.9;  ///< usable fraction of free bin area
  /// Cache handle, not a knob: a model from build_star_model for the same
  /// design, hierarchy and resolved_target_clusters() (anything else is a
  /// HidapError). Null builds one per call; results are identical.
  std::shared_ptr<const StarModel> model;

  /// The cluster target actually used (target_clusters, or the automatic
  /// one when that is <= 0).
  int resolved_target_clusters() const {
    return target_clusters > 0 ? target_clusters : 3 * grid * grid;
  }
};

class PlacedDesign {
 public:
  PlacedDesign(const Design& design, const HierTree& ht, const PlacementResult& macros,
               std::shared_ptr<const Clustering> clustering, Rect die);

  const Design& design() const { return *design_; }
  const Rect& die() const { return die_; }
  const Clustering& clustering() const { return *clustering_; }
  const std::vector<Point>& cluster_positions() const { return cluster_pos_; }
  std::vector<Point>& cluster_positions() { return cluster_pos_; }

  /// Position of any cell: macro center / port location / cluster site.
  Point cell_position(CellId cell) const;
  /// Position of a specific net endpoint (macro pins use real offsets).
  Point pin_position(const NetPin& pin) const;
  /// Placed macro footprint lookup (nullptr when the cell is not a macro).
  const MacroPlacement* macro_of(CellId cell) const;
  /// The placed macros, one per cell (a cell listed twice keeps its last
  /// entry), in ascending cell id.
  const std::vector<MacroPlacement>& placed_macros() const { return macros_; }

 private:
  const Design* design_;
  const HierTree* ht_;
  std::shared_ptr<const Clustering> clustering_;
  std::vector<Point> cluster_pos_;
  std::vector<int> macro_index_;  ///< per cell: index into macros_, -1 otherwise
  std::vector<MacroPlacement> macros_;
  Rect die_;

  friend PlacedDesign place_cells(const Design&, const HierTree&, const PlacementResult&,
                                  const PlaceOptions&);
};

/// Full pipeline: cluster, solve, spread.
PlacedDesign place_cells(const Design& design, const HierTree& ht,
                         const PlacementResult& macros, const PlaceOptions& options = {});

}  // namespace hidap
