#pragma once
// The design-only half of cell placement: the hierarchy clustering and
// the cluster-level star-model links, built once per (design, hierarchy,
// cluster target) and shared read-only by every placement evaluated on
// that design.
//
// Links are stored in CSR form: cluster i's links are the index range
// [start[i], start[i+1]) of `other` and `weight`. An `other` value >= 0
// is a cluster index; `-1 - k` names fixed endpoint k, the net pin
// `fixed_pin[k]` (a macro pin, a port or an unclustered cell), whose
// position depends on the macro placement and is resolved per placement.
// Each cluster's links appear in net order, so the Gauss-Seidel sums
// over them run in a fixed order on every build.

#include <cstdint>
#include <memory>
#include <vector>

#include "hier/hier_tree.hpp"
#include "netlist/netlist.hpp"
#include "place/clustering.hpp"

namespace hidap {

struct StarModel {
  const Design* design = nullptr;  ///< the design it was built for
  const HierTree* ht = nullptr;    ///< the hierarchy it was built for
  int target_clusters = 0;         ///< the resolved cluster target
  std::shared_ptr<const Clustering> clustering;
  std::vector<std::uint32_t> start;  ///< clusters + 1 offsets
  std::vector<std::int32_t> other;   ///< cluster index, or -1 - fixed endpoint
  std::vector<double> weight;
  std::vector<NetPin> fixed_pin;

  /// Throws HidapError(InvalidRequest) unless this model was built for
  /// exactly this design, hierarchy and resolved cluster target.
  void check_matches(const Design& design, const HierTree& ht, int target_clusters) const;
};

/// Clusters the design into ~`target_clusters` clusters and collects the
/// clique-weighted (1/(p-1)) links of every net at cluster granularity.
std::shared_ptr<const StarModel> build_star_model(const Design& design, const HierTree& ht,
                                                  int target_clusters);

}  // namespace hidap
