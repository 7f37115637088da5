#pragma once
// Macro (hard block) library: physical footprint plus pin geometry.
//
// Pin geometry matters twice in the paper: wirelength is measured to pin
// locations, and the "memory flipping" post-process chooses orientations
// from the dataflow seen by each macro *side*.

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "geometry/geometry.hpp"

namespace hidap {

using MacroDefId = std::int32_t;
inline constexpr MacroDefId kNoMacroDef = -1;

struct MacroPin {
  std::string name;
  Point offset;   ///< relative to the macro's lower-left corner, R0 frame
  int bits = 1;   ///< logical width the pin belongs to (documentation only)
  bool is_output = false;
};

struct MacroDef {
  std::string name;
  double w = 0.0;
  double h = 0.0;
  std::vector<MacroPin> pins;

  double area() const { return w * h; }
  /// Index of a pin by name, -1 when absent.
  int pin_index(std::string_view pin_name) const;
};

/// Set of macro definitions, looked up by name during parsing/elaboration.
class MacroLibrary {
 public:
  MacroDefId add(MacroDef def);
  bool contains(std::string_view name) const;
  MacroDefId id_of(std::string_view name) const;  ///< kNoMacroDef when absent
  const MacroDef& def(MacroDefId id) const { return defs_.at(static_cast<std::size_t>(id)); }
  std::size_t size() const { return defs_.size(); }
  const std::vector<MacroDef>& defs() const { return defs_; }

  /// Convenience: builds an SRAM-style macro with `bits`-wide data pins on
  /// the left (inputs) and right (outputs) edges.
  static MacroDef make_sram(std::string name, double w, double h, int bits);

 private:
  /// Transparent hash: lookups by string_view allocate nothing.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view name) const {
      return std::hash<std::string_view>{}(name);
    }
  };

  std::vector<MacroDef> defs_;
  std::unordered_map<std::string, MacroDefId, NameHash, std::equal_to<>> by_name_;
};

}  // namespace hidap
