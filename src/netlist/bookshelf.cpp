#include "netlist/bookshelf.hpp"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <map>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/log.hpp"
#include "util/text_cursor.hpp"

namespace hidap {

namespace {

std::string node_name(const Design& d, CellId c) {
  // Bookshelf identifiers cannot contain '/', so path separators are
  // folded; uniqueness is preserved by suffixing the cell id.
  std::string name = d.cell_path(c);
  for (char& ch : name) {
    if (ch == '/' || ch == '[' || ch == ']') ch = '_';
  }
  return name + "_i" + std::to_string(c);
}

std::ofstream open_out(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw HidapError(ErrorCode::IoError, "cannot write " + path);
  return out;
}

}  // namespace

void write_bookshelf(const Design& design, const PlacementResult& placement,
                     const std::string& basename, const BookshelfWriteOptions& options) {
  // ---- .nodes --------------------------------------------------------
  {
    std::ofstream out = open_out(basename + ".nodes");
    out << "UCLA nodes 1.0\n\n";
    std::size_t terminals = 0;
    for (const Cell& c : design.cells()) terminals += is_port(c.kind) ? 1 : 0;
    out << "NumNodes : " << design.cell_count() << "\n";
    out << "NumTerminals : " << terminals << "\n";
    for (std::size_t i = 0; i < design.cell_count(); ++i) {
      const CellId id = static_cast<CellId>(i);
      const Cell& c = design.cell(id);
      double w = 1.0, h = 1.0;
      if (c.kind == CellKind::Macro) {
        w = design.macro_def_of(id).w;
        h = design.macro_def_of(id).h;
      } else if (c.area > 0) {
        w = h = std::sqrt(c.area);
      }
      out << "  " << node_name(design, id) << ' ' << w << ' ' << h
          << (is_port(c.kind) ? " terminal" : "") << '\n';
    }
  }

  // ---- .nets ---------------------------------------------------------
  {
    std::ofstream out = open_out(basename + ".nets");
    out << "UCLA nets 1.0\n\n";
    std::size_t pins = 0, nets = 0;
    for (std::size_t n = 0; n < design.net_count(); ++n) {
      const Net& net = design.net(static_cast<NetId>(n));
      if (net.degree() < 2) continue;
      ++nets;
      pins += static_cast<std::size_t>(net.degree());
    }
    out << "NumNets : " << nets << "\n";
    out << "NumPins : " << pins << "\n";
    for (std::size_t n = 0; n < design.net_count(); ++n) {
      const Net& net = design.net(static_cast<NetId>(n));
      if (net.degree() < 2) continue;
      out << "NetDegree : " << net.degree() << "  n" << n << '\n';
      const auto emit = [&](const NetPin& p, char dir) {
        const Cell& c = design.cell(p.cell);
        double cx = 0.0, cy = 0.0;  // pin offset from node center
        if (c.kind == CellKind::Macro) {
          const MacroDef& def = design.macro_def_of(p.cell);
          cx = p.dx - def.w / 2;
          cy = p.dy - def.h / 2;
        }
        out << "  " << node_name(design, p.cell) << ' ' << dir << " : " << cx << ' '
            << cy << '\n';
      };
      if (net.driver.cell != kInvalidId) emit(net.driver, 'O');
      for (const NetPin& p : net.sinks) emit(p, 'I');
    }
  }

  // ---- .pl -----------------------------------------------------------
  if (options.write_placement) {
    std::ofstream out = open_out(basename + ".pl");
    out << std::setprecision(12);
    out << "UCLA pl 1.0\n\n";
    std::unordered_map<CellId, const MacroPlacement*> placed;
    for (const MacroPlacement& m : placement.macros) placed.emplace(m.cell, &m);
    for (std::size_t i = 0; i < design.cell_count(); ++i) {
      const CellId id = static_cast<CellId>(i);
      const Cell& c = design.cell(id);
      double x = 0.0, y = 0.0;
      std::string suffix;
      if (const auto it = placed.find(id); it != placed.end()) {
        x = it->second->rect.x;
        y = it->second->rect.y;
        suffix = " : " + std::string(to_string(it->second->orientation)) + " /FIXED";
      } else if (c.fixed_pos) {
        x = c.fixed_pos->x;
        y = c.fixed_pos->y;
        suffix = " : N /FIXED";
      } else {
        suffix = " : N";
      }
      out << node_name(design, id) << ' ' << x << ' ' << y << suffix << '\n';
    }
  }

  // ---- .aux ----------------------------------------------------------
  {
    std::ofstream out = open_out(basename + ".aux");
    const auto base = basename.substr(basename.find_last_of('/') + 1);
    out << "RowBasedPlacement : " << base << ".nodes " << base << ".nets " << base
        << ".pl\n";
  }
}

namespace {

// One Bookshelf file, read whole and scanned row by row: '#' starts a
// comment, blank rows are skipped, and the rest splits on whitespace.
class BookshelfRows {
 public:
  explicit BookshelfRows(std::string path)
      : path_(std::move(path)), text_(read_file(path_)), in_(text_) {}
  BookshelfRows(const BookshelfRows&) = delete;  // in_ and row_ view text_
  BookshelfRows& operator=(const BookshelfRows&) = delete;

  /// The next non-blank row's tokens; empty at the end of the file.
  const std::vector<std::string_view>& next() {
    row_.clear();
    while (row_.empty() && !in_.done()) {
      line_ = in_.line();
      const std::string_view rest = in_.take_while([](char c) { return c != '\n'; });
      in_.take();
      TextCursor fields(rest.substr(0, rest.find('#')));
      for (std::string_view t = fields.token(); !t.empty(); t = fields.token()) row_.push_back(t);
    }
    return row_;
  }

  /// Field `i` of the current row as a double, or a ParseError.
  double number(std::size_t i) const {
    double value = 0;
    if (i >= row_.size() || parse_number(row_[i], value) != std::errc{}) fail("bad number");
    return value;
  }

  [[noreturn]] void fail(const std::string& msg) const {
    throw HidapError(ErrorCode::ParseError,
                     "bookshelf: " + path_ + " line " + std::to_string(line_) + ": " + msg);
  }

 private:
  std::string path_;
  std::string text_;
  TextCursor in_;
  int line_ = 0;
  std::vector<std::string_view> row_;
};

}  // namespace

BookshelfDesign read_bookshelf(const std::string& basename,
                               double macro_area_threshold) {
  HIDAP_FAILPOINT("netlist.bookshelf_read");
  BookshelfDesign result;
  Design& design = result.design;

  struct NodeInfo {
    CellId cell = kInvalidId;
    double w = 1.0, h = 1.0;
    bool terminal = false;
  };
  std::map<std::string, NodeInfo, std::less<>> nodes;

  // ---- .nodes: first pass collects sizes -----------------------------
  {
    BookshelfRows in(basename + ".nodes");
    double area_sum = 0.0;
    long movable = 0;
    std::vector<std::pair<const std::string, NodeInfo>*> rows;  // file order
    for (const auto& row = in.next(); !row.empty(); in.next()) {
      const std::string_view first = row[0];
      if (first == "UCLA" || first.starts_with("NumNodes") || first.starts_with("NumTerminals")) {
        continue;
      }
      NodeInfo info;
      info.w = in.number(1);
      info.h = in.number(2);
      info.terminal = row.size() > 3 && row[3] == "terminal";
      if (!info.terminal) {
        area_sum += info.w * info.h;
        ++movable;
      }
      const auto [it, fresh] = nodes.emplace(row[0], info);
      if (!fresh) in.fail("duplicate node '" + std::string(row[0]) + "'");
      rows.push_back(&*it);
    }
    const double avg_area = movable > 0 ? area_sum / movable : 1.0;
    // Second pass: create cells; big movables are macros.
    for (auto* const node : rows) {
      const std::string& name = node->first;
      NodeInfo& info = node->second;
      CellKind kind;
      MacroDefId def = kNoMacroDef;
      if (info.terminal) {
        kind = CellKind::PortIn;  // direction refined from .nets
      } else if (info.w * info.h > macro_area_threshold * avg_area) {
        kind = CellKind::Macro;
        MacroDef md;
        md.name = "BS_" + name;
        md.w = info.w;
        md.h = info.h;
        md.pins.push_back({"P", {info.w / 2, info.h / 2}, 1, false});
        def = design.library().add(std::move(md));
      } else {
        kind = CellKind::Comb;
      }
      info.cell = design.add_cell(design.root(), name, kind, info.w * info.h, def);
    }
  }

  // ---- .nets ---------------------------------------------------------
  {
    BookshelfRows in(basename + ".nets");
    NetId current = kInvalidId;
    for (const auto& row = in.next(); !row.empty(); in.next()) {
      const std::string_view first = row[0];
      if (first == "UCLA" || first.starts_with("NumNets") || first.starts_with("NumPins")) {
        continue;
      }
      if (first.starts_with("NetDegree")) {
        // "NetDegree : <degree> [name]"; the degree must be a number but is unused.
        std::size_t at = row.size() > 1 && row[1] == ":" ? 2 : 1;
        if (at < row.size()) in.number(at++);
        current = design.add_net(at < row.size() ? std::string(row[at]) : "net");
        continue;
      }
      if (current == kInvalidId) in.fail("pin before NetDegree");
      const auto it = nodes.find(row[0]);
      if (it == nodes.end()) in.fail("unknown node '" + std::string(row[0]) + "'");
      const CellId cell = it->second.cell;
      if (row.size() > 1 && row[1] == "O") {
        design.set_driver(current, cell);
      } else {
        design.add_sink(current, cell);
      }
    }
  }

  // ---- .pl -----------------------------------------------------------
  {
    BookshelfRows in(basename + ".pl");
    Rect bbox{0, 0, 0, 0};
    for (const auto& row = in.next(); !row.empty(); in.next()) {
      if (row[0] == "UCLA") continue;
      const double x = in.number(1);
      const double y = in.number(2);
      const auto it = nodes.find(row[0]);
      if (it == nodes.end()) continue;
      const NodeInfo& info = it->second;
      const Cell& cell = design.cell(info.cell);
      if (cell.kind == CellKind::Macro) {
        result.placement.macros.push_back(
            {info.cell, Rect{x, y, info.w, info.h}, Orientation::R0});
      } else if (info.terminal) {
        design.cell_mutable(info.cell).fixed_pos = Point{x, y};
      }
      bbox = bounding_union(bbox, Rect{x, y, info.w, info.h});
    }
    design.set_die(Die{bbox.xmax(), bbox.ymax()});
  }
  result.placement.flow_name = "bookshelf";
  HIDAP_LOG_DEBUG("bookshelf: %zu cells, %zu nets, %zu macros", design.cell_count(),
                  design.net_count(), design.macro_count());
  return result;
}

}  // namespace hidap
