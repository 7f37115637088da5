#include "netlist/macro_library.hpp"

#include <stdexcept>

namespace hidap {

int MacroDef::pin_index(std::string_view pin_name) const {
  for (std::size_t i = 0; i < pins.size(); ++i) {
    if (pins[i].name == pin_name) return static_cast<int>(i);
  }
  return -1;
}

MacroDefId MacroLibrary::add(MacroDef def) {
  if (contains(def.name)) {
    throw std::invalid_argument("duplicate macro def: " + def.name);
  }
  const MacroDefId id = static_cast<MacroDefId>(defs_.size());
  by_name_.emplace(def.name, id);
  defs_.push_back(std::move(def));
  return id;
}

bool MacroLibrary::contains(std::string_view name) const {
  return by_name_.contains(name);
}

MacroDefId MacroLibrary::id_of(std::string_view name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? kNoMacroDef : it->second;
}

MacroDef MacroLibrary::make_sram(std::string name, double w, double h, int bits) {
  MacroDef def;
  def.name = std::move(name);
  def.w = w;
  def.h = h;
  // Data inputs spread along the left edge, outputs along the right edge,
  // address/control at the bottom. This gives flipping something to chew on.
  const int data_pins = 4;  // pin groups, each representing bits/4 wires
  for (int i = 0; i < data_pins; ++i) {
    const double y = h * (i + 1) / (data_pins + 1);
    def.pins.push_back({"D" + std::to_string(i), {0.0, y}, bits / data_pins, false});
    def.pins.push_back({"Q" + std::to_string(i), {w, y}, bits / data_pins, true});
  }
  def.pins.push_back({"ADDR", {w / 2.0, 0.0}, 16, false});
  def.pins.push_back({"CEN", {w / 4.0, 0.0}, 1, false});
  return def;
}

}  // namespace hidap
