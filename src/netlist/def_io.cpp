#include "netlist/def_io.hpp"

#include <cmath>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "util/failpoint.hpp"
#include "util/log.hpp"
#include "util/text_cursor.hpp"

namespace hidap {

namespace {

long to_db(double microns, int upm) { return std::lround(microns * upm); }

Orientation orientation_from_string(std::string_view s, int line) {
  for (const Orientation o : kAllOrientations) {
    if (to_string(o) == s) return o;
  }
  throw DefParseError("unknown orientation '" + std::string(s) + "'", line);
}

}  // namespace

void write_def(const Design& design, const PlacementResult& placement,
               std::ostream& out, const DefWriteOptions& options) {
  const int upm = options.units_per_micron;
  out << "VERSION 5.8 ;\n";
  out << "DESIGN " << design.name() << " ;\n";
  out << "UNITS DISTANCE MICRONS " << upm << " ;\n";
  out << "DIEAREA ( 0 0 ) ( " << to_db(design.die().w, upm) << ' '
      << to_db(design.die().h, upm) << " ) ;\n";

  out << "COMPONENTS " << placement.macros.size() << " ;\n";
  for (const MacroPlacement& m : placement.macros) {
    out << "- " << design.cell_path(m.cell) << ' ' << design.macro_def_of(m.cell).name
        << "\n  + PLACED ( " << to_db(m.rect.x, upm) << ' ' << to_db(m.rect.y, upm)
        << " ) " << to_string(m.orientation) << " ;\n";
  }
  out << "END COMPONENTS\n";

  if (options.include_pins) {
    const std::vector<CellId> ports = design.ports();
    out << "PINS " << ports.size() << " ;\n";
    for (const CellId p : ports) {
      const Cell& cell = design.cell(p);
      const Point pos = cell.fixed_pos.value_or(Point{});
      out << "- " << design.cell_path(p) << " + NET " << design.cell_path(p)
          << " + DIRECTION " << (cell.kind == CellKind::PortIn ? "INPUT" : "OUTPUT")
          << "\n  + PLACED ( " << to_db(pos.x, upm) << ' ' << to_db(pos.y, upm)
          << " ) N ;\n";
    }
    out << "END PINS\n";
  }
  out << "END DESIGN\n";
}

void write_def_file(const Design& design, const PlacementResult& placement,
                    const std::string& path, const DefWriteOptions& options) {
  std::ofstream out(path);
  if (!out) throw HidapError(ErrorCode::IoError, "cannot write " + path);
  write_def(design, placement, out, options);
}

DefContents parse_def_text(std::string_view text) {
  HIDAP_FAILPOINT("netlist.def_parse");
  DefContents def;
  int upm = 1000;
  TextCursor in(text);
  std::string_view token;
  int line = 1;  // line of the last token read: every failure reports it
  const auto expect = [&](const char* what) {
    token = in.token();
    if (token.empty()) throw DefParseError(std::string("expected ") + what, line);
    line = in.line();
    return token;
  };
  const auto number = [&](auto& out, const char* what) {
    if (parse_number(expect(what), out) != std::errc{}) {
      throw DefParseError(std::string("bad ") + what + " '" + std::string(token) + "'", line);
    }
  };
  while (!(token = in.token()).empty()) {
    line = in.line();
    if (token == "DESIGN") {
      def.design_name = expect("design name");
    } else if (token == "UNITS") {
      expect("DISTANCE");
      expect("MICRONS");
      number(upm, "units");
      if (upm <= 0) throw DefParseError("units must be positive", line);
    } else if (token == "DIEAREA") {
      double x0 = 0, y0 = 0, x1 = 0, y1 = 0;
      expect("(");
      number(x0, "x0");
      number(y0, "y0");
      expect(")");
      expect("(");
      number(x1, "x1");
      number(y1, "y1");
      def.die = Rect{x0 / upm, y0 / upm, (x1 - x0) / upm, (y1 - y0) / upm};
    } else if (token == "COMPONENTS") {
      // The count must match the entries: a miscount would drop macros.
      int count = 0;
      number(count, "component count");
      if (count < 0) throw DefParseError("negative component count", line);
      expect(";");
      const std::size_t first = def.components.size();
      while (expect("'-' or END") != "END") {
        if (token != "-") throw DefParseError("expected '-'", line);
        DefComponent comp;
        comp.name = expect("component name");
        comp.def_name = expect("def name");
        // Scan for "+ PLACED ( x y ) ORIENT ;"
        while (expect("PLACED or +") != "PLACED") {
          if (token == ";") throw DefParseError("component without PLACED", line);
        }
        double x = 0, y = 0;
        expect("(");
        number(x, "x");
        number(y, "y");
        comp.location = Point{x / upm, y / upm};
        expect(")");
        comp.orientation = orientation_from_string(expect("orientation"), line);
        expect(";");
        def.components.push_back(std::move(comp));
      }
      if (expect("COMPONENTS") != "COMPONENTS") throw DefParseError("expected COMPONENTS", line);
      const std::size_t listed = def.components.size() - first;
      if (listed != static_cast<std::size_t>(count)) {
        throw DefParseError("COMPONENTS declares " + std::to_string(count) + " but lists " +
                            std::to_string(listed), line);
      }
    } else if (token == "END") {
      expect("section name");  // COMPONENTS / PINS / DESIGN
    }
    // Everything else (PINS payload etc.) is skipped token-wise.
  }
  return def;
}

DefContents parse_def(std::istream& in) {
  std::ostringstream text;
  text << in.rdbuf();
  return parse_def_text(text.str());
}

DefContents parse_def_file(const std::string& path) {
  HIDAP_FAILPOINT("netlist.def_read");
  return parse_def_text(read_file(path));
}

std::size_t apply_def_placement(const Design& design, const DefContents& def,
                                PlacementResult& placement) {
  std::unordered_map<std::string, CellId> by_path;
  for (const CellId m : design.macros()) by_path.emplace(design.cell_path(m), m);

  placement.macros.clear();
  for (const DefComponent& comp : def.components) {
    const auto it = by_path.find(comp.name);
    if (it == by_path.end()) {
      HIDAP_LOG_WARN("DEF: unknown component '%s' skipped", comp.name.c_str());
      continue;
    }
    const MacroDef& mdef = design.macro_def_of(it->second);
    const Point size = oriented_size(mdef.w, mdef.h, comp.orientation);
    placement.macros.push_back(MacroPlacement{
        it->second, Rect{comp.location.x, comp.location.y, size.x, size.y},
        comp.orientation});
  }
  placement.flow_name = "DEF";
  return placement.macros.size();
}

}  // namespace hidap
