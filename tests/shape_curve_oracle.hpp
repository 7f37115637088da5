#pragma once
// Reference O(p_a * p_b) shape-curve composers: every pair of points
// combined, each result inserted through ShapeCurve::add. The sweep
// composers (ShapeCurve::compose_horizontal/vertical) must return
// bit-identical point lists; test_shape_curve checks that.

#include <algorithm>

#include "geometry/shape_curve.hpp"

namespace hidap::oracle {

/// Children side by side: widths add, heights max.
inline ShapeCurve compose_horizontal_pairwise(const ShapeCurve& a, const ShapeCurve& b) {
  ShapeCurve out;
  for (const Shape& sa : a.points()) {
    for (const Shape& sb : b.points()) out.add({sa.w + sb.w, std::max(sa.h, sb.h)});
  }
  return out;
}

/// Children stacked: heights add, widths max.
inline ShapeCurve compose_vertical_pairwise(const ShapeCurve& a, const ShapeCurve& b) {
  ShapeCurve out;
  for (const Shape& sa : a.points()) {
    for (const Shape& sb : b.points()) out.add({std::max(sa.w, sb.w), sa.h + sb.h});
  }
  return out;
}

}  // namespace hidap::oracle
