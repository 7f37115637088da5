#pragma once
// Full-field Design digest: one hash over everything a parsed Design
// holds -- names, kinds, the hierarchy tree, areas, fixed port
// positions, macro definitions, the die, and every net's driver and
// sinks with their pin offsets as bit patterns. Two Designs with equal
// digests are, up to a hash collision, field-for-field identical.

#include <bit>
#include <cstdint>

#include "netlist/netlist.hpp"
#include "util/hash.hpp"

namespace hidap {

inline std::uint64_t design_digest(const Design& d) {
  HashBuilder h(0xd16e57);
  h.str(d.name()).f64(d.die().w).f64(d.die().h);
  h.u64(d.library().size());
  for (const MacroDef& def : d.library().defs()) {
    h.str(def.name).f64(def.w).f64(def.h).u64(def.pins.size());
    for (const MacroPin& p : def.pins) {
      h.str(p.name).f64(p.offset.x).f64(p.offset.y).i32(p.bits).i32(p.is_output ? 1 : 0);
    }
  }
  h.u64(d.hier_count());
  for (const HierNode& n : d.hier_nodes()) {
    h.str(n.name).i32(n.parent).u64(n.children.size());
    for (const HierId c : n.children) h.i32(c);
    h.u64(n.cells.size());
    for (const CellId c : n.cells) h.i32(c);
  }
  h.u64(d.cell_count());
  for (const Cell& c : d.cells()) {
    h.str(c.name).i32(static_cast<int>(c.kind)).i32(c.hier).f64(c.area).i32(c.macro_def);
    h.i32(c.fixed_pos.has_value() ? 1 : 0);
    if (c.fixed_pos) h.f64(c.fixed_pos->x).f64(c.fixed_pos->y);
  }
  const auto pin = [&h](const NetPin& p) {
    h.i32(p.cell).u64(std::bit_cast<std::uint32_t>(p.dx)).u64(std::bit_cast<std::uint32_t>(p.dy));
  };
  h.u64(d.net_count());
  for (const Net& n : d.nets()) {
    h.str(n.name);
    pin(n.driver);
    h.u64(n.sinks.size());
    for (const NetPin& s : n.sinks) pin(s);
  }
  return h.digest();
}

}  // namespace hidap
