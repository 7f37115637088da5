#include "place/star_model.hpp"

#include <algorithm>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace hidap {

void StarModel::check_matches(const Design& d, const HierTree& h, int target) const {
  if (design != &d || ht != &h || target_clusters != target) {
    throw HidapError(ErrorCode::InvalidRequest,
                     "star model was built for another design, hierarchy or cluster "
                     "target (built for " +
                         std::to_string(target_clusters) + " clusters, asked for " +
                         std::to_string(target) + ")");
  }
}

std::shared_ptr<const StarModel> build_star_model(const Design& design, const HierTree& ht,
                                                  int target_clusters) {
  obs::Span span("star_model", "place");
  auto model = std::make_shared<StarModel>();
  model->design = &design;
  model->ht = &ht;
  model->target_clusters = target_clusters;
  model->clustering =
      std::make_shared<const Clustering>(cluster_cells(design, ht, target_clusters));
  const std::vector<int>& cluster_of = model->clustering->cluster_of;
  const std::size_t clusters = model->clustering->clusters.size();

  // Count pass. A net's endpoints at cluster granularity: each cluster
  // once, every unclustered pin on its own. Nets that link no cluster
  // are dropped; the endpoints of the rest are kept for the fill pass.
  std::vector<std::int32_t> ends;  // endpoint codes of the kept nets
  std::vector<std::size_t> net_start = {0};
  std::vector<std::uint32_t>& start = model->start;
  start.assign(clusters + 1, 0);
  std::vector<std::int32_t> net_ends;
  for (const Net& net : design.nets()) {
    net_ends.clear();
    const std::size_t first_fixed = model->fixed_pin.size();
    bool links_cluster = false;
    const auto add_end = [&](const NetPin& p) {
      const int cl = cluster_of[static_cast<std::size_t>(p.cell)];
      if (cl >= 0) {
        if (std::find(net_ends.begin(), net_ends.end(), cl) != net_ends.end()) return;
        net_ends.push_back(cl);
        links_cluster = true;
      } else {
        net_ends.push_back(-1 - static_cast<std::int32_t>(model->fixed_pin.size()));
        model->fixed_pin.push_back(p);
      }
    };
    if (net.driver.cell != kInvalidId) add_end(net.driver);
    for (const NetPin& p : net.sinks) add_end(p);
    if (net_ends.size() < 2 || !links_cluster) {
      model->fixed_pin.resize(first_fixed);
      continue;
    }
    for (std::size_t i = 0; i < net_ends.size(); ++i) {
      for (std::size_t j = i + 1; j < net_ends.size(); ++j) {
        if (net_ends[i] >= 0) ++start[static_cast<std::size_t>(net_ends[i]) + 1];
        if (net_ends[j] >= 0) ++start[static_cast<std::size_t>(net_ends[j]) + 1];
      }
    }
    ends.insert(ends.end(), net_ends.begin(), net_ends.end());
    net_start.push_back(ends.size());
  }
  for (std::size_t c = 0; c < clusters; ++c) start[c + 1] += start[c];

  // Fill pass: the clique model with 1/(p-1) weighting, each link pushed
  // onto its cluster in net order, pair by pair.
  model->other.resize(start[clusters]);
  model->weight.resize(start[clusters]);
  std::vector<std::uint32_t> fill(start.begin(), start.end() - 1);
  const auto put = [&](std::int32_t cl, std::int32_t to, double w) {
    const std::uint32_t slot = fill[static_cast<std::size_t>(cl)]++;
    model->other[slot] = to;
    model->weight[slot] = w;
  };
  for (std::size_t n = 0; n + 1 < net_start.size(); ++n) {
    const std::int32_t* e = ends.data() + net_start[n];
    const std::size_t count = net_start[n + 1] - net_start[n];
    const double w = 1.0 / static_cast<double>(count - 1);
    for (std::size_t i = 0; i < count; ++i) {
      for (std::size_t j = i + 1; j < count; ++j) {
        if (e[i] >= 0 && e[j] >= 0) {
          put(e[i], e[j], w);
          put(e[j], e[i], w);
        } else if (e[i] >= 0) {
          put(e[i], e[j], w);
        } else if (e[j] >= 0) {
          put(e[j], e[i], w);
        }  // fixed-fixed pairs are a constant
      }
    }
  }

  static obs::Counter& builds = obs::default_registry().counter("place.star_model_builds");
  builds.add(1);
  span.arg("clusters", static_cast<std::int64_t>(clusters));
  span.arg("links", static_cast<std::int64_t>(model->other.size()));
  return model;
}

}  // namespace hidap
