#include "place/quadratic_placer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

namespace hidap {

PlacedDesign::PlacedDesign(const Design& design, const HierTree& ht,
                           const PlacementResult& macros,
                           std::shared_ptr<const Clustering> clustering, Rect die)
    : design_(&design), ht_(&ht), clustering_(std::move(clustering)), die_(die) {
  macro_index_.assign(design.cell_count(), -1);
  const std::vector<MacroPlacement>& listed = macros.macros;
  for (std::size_t i = 0; i < listed.size(); ++i) {
    macro_index_[static_cast<std::size_t>(listed[i].cell)] = static_cast<int>(i);
  }
  for (std::size_t i = 0; i < listed.size(); ++i) {
    if (macro_index_[static_cast<std::size_t>(listed[i].cell)] == static_cast<int>(i)) {
      macros_.push_back(listed[i]);
    }
  }
  std::sort(macros_.begin(), macros_.end(),
            [](const MacroPlacement& a, const MacroPlacement& b) { return a.cell < b.cell; });
  for (std::size_t i = 0; i < macros_.size(); ++i) {
    macro_index_[static_cast<std::size_t>(macros_[i].cell)] = static_cast<int>(i);
  }
  cluster_pos_.assign(clustering_->clusters.size(), die_.center());
}

const MacroPlacement* PlacedDesign::macro_of(CellId cell) const {
  const int idx = macro_index_[static_cast<std::size_t>(cell)];
  return idx < 0 ? nullptr : &macros_[static_cast<std::size_t>(idx)];
}

Point PlacedDesign::cell_position(CellId cell) const {
  const Cell& c = design_->cell(cell);
  if (const MacroPlacement* m = macro_of(cell)) return m->rect.center();
  if (c.fixed_pos) return *c.fixed_pos;
  const int cl = clustering_->cluster_of[static_cast<std::size_t>(cell)];
  if (cl >= 0) return cluster_pos_[static_cast<std::size_t>(cl)];
  return die_.center();
}

Point PlacedDesign::pin_position(const NetPin& pin) const {
  if (const MacroPlacement* m = macro_of(pin.cell)) {
    const bool swapped = swaps_dimensions(m->orientation);
    const double w0 = swapped ? m->rect.h : m->rect.w;
    const double h0 = swapped ? m->rect.w : m->rect.h;
    const Point local = transform_pin(Point{pin.dx, pin.dy}, w0, h0, m->orientation);
    return {m->rect.x + local.x, m->rect.y + local.y};
  }
  return cell_position(pin.cell);
}

namespace {

// Gauss-Seidel sweeps on the star model; `fixed` holds the positions of
// the model's fixed endpoints under this placement. When `anchors` is
// non-null each cluster is additionally pulled toward anchors[i] with a
// weight that is `anchor_strength` times its own connectivity weight (the
// SimPL-style legalization pull).
void solve_gauss_seidel(const StarModel& model, const std::vector<Point>& fixed,
                        std::vector<Point>& pos, const Rect& die, int iterations,
                        const std::vector<Point>* anchors = nullptr,
                        double anchor_strength = 0.0) {
  for (int it = 0; it < iterations; ++it) {
    for (std::size_t i = 0; i < pos.size(); ++i) {
      double wx = 0.0, wy = 0.0, wsum = 0.0;
      for (std::uint32_t e = model.start[i]; e < model.start[i + 1]; ++e) {
        const std::int32_t other = model.other[e];
        const Point p = other >= 0 ? pos[static_cast<std::size_t>(other)]
                                   : fixed[static_cast<std::size_t>(-1 - other)];
        wx += model.weight[e] * p.x;
        wy += model.weight[e] * p.y;
        wsum += model.weight[e];
      }
      if (anchors && wsum > 0) {
        const double aw = anchor_strength * wsum;
        wx += aw * (*anchors)[i].x;
        wy += aw * (*anchors)[i].y;
        wsum += aw;
      }
      if (wsum <= 0) continue;
      pos[i].x = std::clamp(wx / wsum, die.x, die.xmax());
      pos[i].y = std::clamp(wy / wsum, die.y, die.ymax());
    }
  }
}

// Spreading-bin capacity: the usable fraction of each bin's area that no
// placed macro covers.
std::vector<double> bin_capacity(const PlacedDesign& placed, const PlaceOptions& options) {
  const Rect die = placed.die();
  const int g = options.grid;
  const double bw = die.w / g, bh = die.h / g;
  std::vector<double> capacity(static_cast<std::size_t>(g) * g, 0.0);
  for (int by = 0; by < g; ++by) {
    for (int bx = 0; bx < g; ++bx) {
      const Rect bin{die.x + bx * bw, die.y + by * bh, bw, bh};
      double blocked = 0.0;
      for (const MacroPlacement& mp : placed.placed_macros()) {
        blocked += bin.overlap_area(mp.rect);
      }
      capacity[static_cast<std::size_t>(by) * g + bx] =
          std::max(0.0, (bin.area() - blocked) * options.bin_capacity_ratio);
    }
  }
  return capacity;
}

// Grid spreading: clusters leave overfull bins for the least-full
// neighbor, iterated; `capacity` comes from bin_capacity.
void spread_clusters(const PlacedDesign& placed, const std::vector<double>& capacity,
                     std::vector<Point>& pos, const PlaceOptions& options) {
  const Rect die = placed.die();
  const int g = options.grid;
  const double bw = die.w / g, bh = die.h / g;

  const auto bin_of = [&](const Point& p) {
    const int bx = std::clamp(static_cast<int>((p.x - die.x) / bw), 0, g - 1);
    const int by = std::clamp(static_cast<int>((p.y - die.y) / bh), 0, g - 1);
    return std::pair{bx, by};
  };

  const auto& clusters = placed.clustering().clusters;
  std::vector<double> load(capacity.size(), 0.0);
  std::vector<std::vector<int>> content(capacity.size());
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    const auto [bx, by] = bin_of(pos[i]);
    load[static_cast<std::size_t>(by) * g + bx] += clusters[i].area;
    content[static_cast<std::size_t>(by) * g + bx].push_back(static_cast<int>(i));
  }

  for (int round = 0; round < options.spreading_rounds; ++round) {
    bool moved = false;
    for (int by = 0; by < g; ++by) {
      for (int bx = 0; bx < g; ++bx) {
        const std::size_t b = static_cast<std::size_t>(by) * g + bx;
        while (load[b] > capacity[b] && !content[b].empty()) {
          // Neighbor with the most free room. Moving toward a *strictly
          // freer* neighbor (even one that is itself overfull) lets
          // clusters diffuse out of zero-capacity macro regions.
          std::size_t best = b;
          double best_free = -1e30;
          for (const auto& [dx, dy] :
               {std::pair{1, 0}, {-1, 0}, {0, 1}, {0, -1}}) {
            const int nx = bx + dx, ny = by + dy;
            if (nx < 0 || ny < 0 || nx >= g || ny >= g) continue;
            const std::size_t nb = static_cast<std::size_t>(ny) * g + nx;
            const double free = capacity[nb] - load[nb];
            if (free > best_free) {
              best_free = free;
              best = nb;
            }
          }
          const double current_free = capacity[b] - load[b];
          if (best == b || best_free <= current_free) break;
          const int cl = content[b].back();
          content[b].pop_back();
          content[best].push_back(cl);
          load[b] -= clusters[static_cast<std::size_t>(cl)].area;
          load[best] += clusters[static_cast<std::size_t>(cl)].area;
          moved = true;
        }
      }
    }
    if (!moved) break;
  }

  // Local diffusion can stall on flat overfull plateaus; a global
  // rebalance evicts the remaining surplus to the nearest bins that still
  // have room (nearest-first keeps the wirelength damage minimal).
  {
    std::vector<int> surplus;
    std::vector<std::size_t> origin;
    for (std::size_t b = 0; b < capacity.size(); ++b) {
      while (load[b] > capacity[b] && !content[b].empty()) {
        const int cl = content[b].back();
        content[b].pop_back();
        load[b] -= clusters[static_cast<std::size_t>(cl)].area;
        surplus.push_back(cl);
        origin.push_back(b);
      }
    }
    for (std::size_t s = 0; s < surplus.size(); ++s) {
      const int ox = static_cast<int>(origin[s]) % g;
      const int oy = static_cast<int>(origin[s]) / g;
      const double area = clusters[static_cast<std::size_t>(surplus[s])].area;
      std::size_t best = origin[s];
      double best_score = -1e30;
      for (int y = 0; y < g; ++y) {
        for (int x = 0; x < g; ++x) {
          const std::size_t b = static_cast<std::size_t>(y) * g + x;
          const double free = capacity[b] - load[b];
          if (free < area * 0.5) continue;
          const double dist = std::abs(x - ox) + std::abs(y - oy);
          const double score = -dist;
          if (score > best_score) {
            best_score = score;
            best = b;
          }
        }
      }
      content[best].push_back(surplus[s]);
      load[best] += area;
    }
  }

  // Final positions: clusters of a bin are arranged on a sub-grid inside
  // it rather than stacked at one point, so downstream density maps and
  // wirelength see a realistic within-bin distribution. Ordering by the
  // quadratic solution keeps locality inside the bin.
  for (int by = 0; by < g; ++by) {
    for (int bx = 0; bx < g; ++bx) {
      const std::size_t b = static_cast<std::size_t>(by) * g + bx;
      auto& members = content[b];
      const std::size_t n = members.size();
      if (n == 0) continue;
      std::sort(members.begin(), members.end(), [&](int a, int c) {
        const Point& pa = pos[static_cast<std::size_t>(a)];
        const Point& pc = pos[static_cast<std::size_t>(c)];
        return pa.y != pc.y ? pa.y < pc.y : pa.x < pc.x;
      });
      const int side = std::max(1, static_cast<int>(std::ceil(std::sqrt(n))));
      for (std::size_t k = 0; k < n; ++k) {
        const int sx = static_cast<int>(k) % side;
        const int sy = static_cast<int>(k) / side;
        pos[static_cast<std::size_t>(members[k])] =
            Point{die.x + bx * bw + (sx + 0.5) * bw / side,
                  die.y + by * bh + (sy + 0.5) * bh / side};
      }
    }
  }
}

}  // namespace

PlacedDesign place_cells(const Design& design, const HierTree& ht,
                         const PlacementResult& macros, const PlaceOptions& options) {
  const int target = options.resolved_target_clusters();
  std::shared_ptr<const StarModel> model = options.model;
  if (model) {
    model->check_matches(design, ht, target);
  } else {
    model = build_star_model(design, ht, target);
  }
  const Rect die{0, 0, design.die().w, design.die().h};
  PlacedDesign placed(design, ht, macros, model->clustering, die);

  // Only the fixed endpoints and the bin capacities depend on the macros.
  std::vector<Point> fixed(model->fixed_pin.size());
  for (std::size_t k = 0; k < fixed.size(); ++k) {
    fixed[k] = placed.pin_position(model->fixed_pin[k]);
  }
  const std::vector<double> capacity = bin_capacity(placed, options);

  std::vector<Point>& pos = placed.cluster_positions();
  solve_gauss_seidel(*model, fixed, pos, die, options.solver_iterations);
  // SimPL-style loop: legalize, then re-solve with a pull toward the
  // legal slots; the interleave preserves connectivity order far better
  // than a single destructive spreading pass.
  for (const double strength : {0.25, 0.6}) {
    std::vector<Point> legal = pos;
    spread_clusters(placed, capacity, legal, options);
    solve_gauss_seidel(*model, fixed, pos, die, options.solver_iterations / 2, &legal,
                       strength);
  }
  spread_clusters(placed, capacity, pos, options);
  return placed;
}

}  // namespace hidap
