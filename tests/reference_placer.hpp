#pragma once
// Reference cell placer for the differential tests: the cluster-level
// quadratic placement as it was before the star model was shared, kept
// as the oracle. It clusters on every call, stores each cluster's links
// as a vector of {other, fixed position, weight} with the fixed endpoint
// positions copied into the links, and computes the spreading capacity
// in every spreading pass, per bin, over the design's macro cells
// (Design::macros()) looked up in the placement. place_cells must
// reproduce its cluster positions bit for bit.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>
#include <vector>

#include "geometry/orientation.hpp"
#include "place/quadratic_placer.hpp"

namespace hidap::reference {

struct ReferencePlacement {
  Clustering clustering;
  std::vector<Point> positions;  ///< per cluster
};

namespace detail {

struct Link {
  int other;  ///< cluster index, or -1 for fixed
  Point fixed;
  double weight;
};

struct Context {
  const Design& design;
  const Clustering& clustering;
  std::vector<const MacroPlacement*> macro_of;  ///< per cell; the last entry wins
  Rect die;
  std::vector<CellId> macro_cells;  ///< Design::macros(), taken once

  Point pin_position(const NetPin& pin) const {
    if (const MacroPlacement* m = macro_of[static_cast<std::size_t>(pin.cell)]) {
      const bool swapped = swaps_dimensions(m->orientation);
      const double w0 = swapped ? m->rect.h : m->rect.w;
      const double h0 = swapped ? m->rect.w : m->rect.h;
      const Point local = transform_pin(Point{pin.dx, pin.dy}, w0, h0, m->orientation);
      return {m->rect.x + local.x, m->rect.y + local.y};
    }
    const Cell& c = design.cell(pin.cell);
    if (c.fixed_pos) return *c.fixed_pos;
    return die.center();  // only called for unclustered endpoints
  }
};

inline std::vector<std::vector<Link>> build_links(const Context& ctx) {
  std::vector<std::vector<Link>> links(ctx.clustering.clusters.size());
  for (std::size_t n = 0; n < ctx.design.net_count(); ++n) {
    const Net& net = ctx.design.net(static_cast<NetId>(n));
    std::vector<std::pair<int, Point>> ends;  // (cluster or -1, fixed pos)
    const auto add_end = [&](const NetPin& p) {
      const int cl = ctx.clustering.cluster_of[static_cast<std::size_t>(p.cell)];
      if (cl >= 0) {
        for (const auto& [c, pos] : ends) {
          if (c == cl) return;
        }
        ends.emplace_back(cl, Point{});
      } else {
        ends.emplace_back(-1, ctx.pin_position(p));
      }
    };
    if (net.driver.cell != kInvalidId) add_end(net.driver);
    for (const NetPin& p : net.sinks) add_end(p);
    if (ends.size() < 2) continue;
    const double w = 1.0 / static_cast<double>(ends.size() - 1);
    for (std::size_t i = 0; i < ends.size(); ++i) {
      for (std::size_t j = i + 1; j < ends.size(); ++j) {
        const auto& [ci, pi] = ends[i];
        const auto& [cj, pj] = ends[j];
        if (ci < 0 && cj < 0) continue;
        if (ci >= 0 && cj >= 0) {
          links[static_cast<std::size_t>(ci)].push_back({cj, {}, w});
          links[static_cast<std::size_t>(cj)].push_back({ci, {}, w});
        } else if (ci >= 0) {
          links[static_cast<std::size_t>(ci)].push_back({-1, pj, w});
        } else {
          links[static_cast<std::size_t>(cj)].push_back({-1, pi, w});
        }
      }
    }
  }
  return links;
}

inline void solve(const std::vector<std::vector<Link>>& links, std::vector<Point>& pos,
                  const Rect& die, int iterations, const std::vector<Point>* anchors = nullptr,
                  double anchor_strength = 0.0) {
  for (int it = 0; it < iterations; ++it) {
    for (std::size_t i = 0; i < pos.size(); ++i) {
      double wx = 0.0, wy = 0.0, wsum = 0.0;
      for (const Link& link : links[i]) {
        const Point p =
            link.other >= 0 ? pos[static_cast<std::size_t>(link.other)] : link.fixed;
        wx += link.weight * p.x;
        wy += link.weight * p.y;
        wsum += link.weight;
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

inline void spread(const Context& ctx, std::vector<Point>& pos, const PlaceOptions& options) {
  const Rect die = ctx.die;
  const int g = options.grid;
  const double bw = die.w / g, bh = die.h / g;

  std::vector<double> capacity(static_cast<std::size_t>(g) * g, 0.0);
  for (int by = 0; by < g; ++by) {
    for (int bx = 0; bx < g; ++bx) {
      const Rect bin{die.x + bx * bw, die.y + by * bh, bw, bh};
      double blocked = 0.0;
      for (const CellId m : ctx.macro_cells) {
        if (const MacroPlacement* mp = ctx.macro_of[static_cast<std::size_t>(m)]) {
          blocked += bin.overlap_area(mp->rect);
        }
      }
      capacity[static_cast<std::size_t>(by) * g + bx] =
          std::max(0.0, (bin.area() - blocked) * options.bin_capacity_ratio);
    }
  }

  const auto bin_of = [&](const Point& p) {
    const int bx = std::clamp(static_cast<int>((p.x - die.x) / bw), 0, g - 1);
    const int by = std::clamp(static_cast<int>((p.y - die.y) / bh), 0, g - 1);
    return std::pair{bx, by};
  };

  const auto& clusters = ctx.clustering.clusters;
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
          std::size_t best = b;
          double best_free = -1e30;
          for (const auto& [dx, dy] : {std::pair{1, 0}, {-1, 0}, {0, 1}, {0, -1}}) {
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
        const double score = -static_cast<double>(std::abs(x - ox) + std::abs(y - oy));
        if (score > best_score) {
          best_score = score;
          best = b;
        }
      }
    }
    content[best].push_back(surplus[s]);
    load[best] += area;
  }

  for (int by = 0; by < g; ++by) {
    for (int bx = 0; bx < g; ++bx) {
      auto& members = content[static_cast<std::size_t>(by) * g + bx];
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

}  // namespace detail

/// The reference pipeline: cluster, build links, solve, two anchored
/// spread/re-solve rounds, final spread.
inline ReferencePlacement place_cells_reference(const Design& design, const HierTree& ht,
                                                const PlacementResult& macros,
                                                const PlaceOptions& options) {
  const int target = options.target_clusters > 0 ? options.target_clusters
                                                 : 3 * options.grid * options.grid;
  ReferencePlacement out{cluster_cells(design, ht, target), {}};
  detail::Context ctx{design, out.clustering, {}, Rect{0, 0, design.die().w, design.die().h},
                      design.macros()};
  ctx.macro_of.assign(design.cell_count(), nullptr);
  for (const MacroPlacement& m : macros.macros) {
    ctx.macro_of[static_cast<std::size_t>(m.cell)] = &m;
  }

  const std::vector<std::vector<detail::Link>> links = detail::build_links(ctx);
  std::vector<Point>& pos = out.positions;
  pos.assign(out.clustering.clusters.size(), ctx.die.center());
  detail::solve(links, pos, ctx.die, options.solver_iterations);
  for (const double strength : {0.25, 0.6}) {
    std::vector<Point> legal = pos;
    detail::spread(ctx, legal, options);
    detail::solve(links, pos, ctx.die, options.solver_iterations / 2, &legal, strength);
  }
  detail::spread(ctx, pos, options);
  return out;
}

}  // namespace hidap::reference
