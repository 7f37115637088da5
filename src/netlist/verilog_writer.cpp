#include "netlist/verilog_writer.hpp"

#include <cctype>
#include <charconv>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace hidap {

namespace {

// Direction of a net seen from a hierarchy node's boundary.
enum class PortDir { In, Out };

struct ModulePlan {
  std::vector<std::pair<NetId, PortDir>> ports;  // nets crossing the boundary
  std::vector<NetId> wires;                      // nets declared here (LCA)
};

int depth_of(const Design& d, HierId h) {
  int depth = 0;
  while (h != d.root()) {
    h = d.hier(h).parent;
    ++depth;
  }
  return depth;
}

HierId lca(const Design& d, HierId a, HierId b, const std::vector<int>& depth) {
  while (a != b) {
    if (depth[static_cast<std::size_t>(a)] >= depth[static_cast<std::size_t>(b)]) {
      a = d.hier(a).parent;
    } else {
      b = d.hier(b).parent;
    }
  }
  return a;
}

// Finds, for every hierarchy node, which nets must become ports and which
// are declared locally.
std::vector<ModulePlan> plan_modules(const Design& d) {
  std::vector<ModulePlan> plans(d.hier_count());
  std::vector<int> depth(d.hier_count());
  for (std::size_t h = 0; h < d.hier_count(); ++h) {
    depth[h] = depth_of(d, static_cast<HierId>(h));
  }
  for (std::size_t n = 0; n < d.net_count(); ++n) {
    const Net& net = d.net(static_cast<NetId>(n));
    if (net.driver.cell == kInvalidId && net.sinks.empty()) continue;
    // LCA of all pin hier nodes.
    HierId anchor = kInvalidId;
    auto absorb = [&](CellId c) {
      const HierId h = d.cell(c).hier;
      anchor = (anchor == kInvalidId) ? h : lca(d, anchor, h, depth);
    };
    if (net.driver.cell != kInvalidId) absorb(net.driver.cell);
    for (const NetPin& p : net.sinks) absorb(p.cell);
    plans[static_cast<std::size_t>(anchor)].wires.push_back(static_cast<NetId>(n));
    // Walk each pin's hier chain up to (excluding) the LCA: every node on
    // the way needs a port for this net. Deduplicate with a local set.
    auto add_ports = [&](CellId c, bool is_driver) {
      HierId h = d.cell(c).hier;
      while (h != anchor) {
        auto& ports = plans[static_cast<std::size_t>(h)].ports;
        bool found = false;
        for (auto& [pn, dir] : ports) {
          if (pn == static_cast<NetId>(n)) {
            if (is_driver) dir = PortDir::Out;
            found = true;
            break;
          }
        }
        if (!found) {
          ports.emplace_back(static_cast<NetId>(n),
                             is_driver ? PortDir::Out : PortDir::In);
        }
        h = d.hier(h).parent;
      }
    };
    if (net.driver.cell != kInvalidId) add_ports(net.driver.cell, true);
    for (const NetPin& p : net.sinks) add_ports(p.cell, false);
  }
  return plans;
}

// Pin name of a macro connection recovered from its geometric offset.
// NetPin stores offsets as float, MacroDef as double: match the nearest
// pin within a loose micron tolerance (pin pitches are far larger).
std::string_view macro_pin_name(const MacroDef& def, float dx, float dy) {
  const MacroPin* best = nullptr;
  double best_d2 = 1e-2;  // 0.1 um in each axis, squared
  for (const MacroPin& p : def.pins) {
    const double ex = p.offset.x - dx;
    const double ey = p.offset.y - dy;
    const double d2 = ex * ex + ey * ey;
    if (d2 < best_d2) {
      best_d2 = d2;
      best = &p;
    }
  }
  return best ? std::string_view(best->name) : "PIN";
}

// Identifier-safe local name for a net, the same inside any module.
struct NetToken {
  NetId id;
};
NetToken net_token(NetId id) { return {id}; }

// `name` with every byte that is not alphanumeric or '_' replaced by
// '_', and a '_' in front when it would be empty or start with a digit.
struct Sanitized {
  std::string_view name;
};
Sanitized sanitize(std::string_view name) { return {name}; }

struct ModuleName {
  const Design& design;
  HierId hier;
};
ModuleName module_name(const Design& d, HierId h) { return {d, h}; }

// The whole netlist text, built in memory and written with one call.
// Numbers print as an ostream at setprecision(12) prints them: doubles
// as %.12g, so geometry survives the round trip.
class TextBuffer {
 public:
  TextBuffer& operator<<(std::string_view s) {
    text_.append(s);
    return *this;
  }
  TextBuffer& operator<<(char c) {
    text_.push_back(c);
    return *this;
  }
  TextBuffer& operator<<(int v) { return append_chars(v); }
  TextBuffer& operator<<(double v) { return append_chars(v, std::chars_format::general, 12); }
  TextBuffer& operator<<(NetToken net) { return *this << 'n' << net.id; }
  TextBuffer& operator<<(Sanitized s) {
    if (s.name.empty() || std::isdigit(static_cast<unsigned char>(s.name[0]))) {
      text_.push_back('_');
    }
    for (const char c : s.name) {
      text_.push_back((std::isalnum(static_cast<unsigned char>(c)) || c == '_') ? c : '_');
    }
    return *this;
  }
  TextBuffer& operator<<(ModuleName m) {
    if (m.hier == m.design.root()) return *this << sanitize(m.design.name());
    return *this << sanitize(m.design.hier(m.hier).name) << "_h" << m.hier;
  }

  void write_to(std::ostream& out) const {
    out.write(text_.data(), static_cast<std::streamsize>(text_.size()));
  }

 private:
  template <typename T, typename... Format>
  TextBuffer& append_chars(T v, Format... format) {
    char chars[32];
    text_.append(chars, std::to_chars(chars, chars + sizeof(chars), v, format...).ptr);
    return *this;
  }

  std::string text_;
};

void write_macro_header(const Design& d, TextBuffer& out) {
  // Macro definitions ride along as structured comments the parser reads
  // back, keeping a netlist file self-contained.
  for (const MacroDef& def : d.library().defs()) {
    out << "//HIDAP_MACRO " << def.name << ' ' << def.w << ' ' << def.h << '\n';
    for (const MacroPin& p : def.pins) {
      out << "//HIDAP_PIN " << def.name << ' ' << p.name << ' ' << p.offset.x << ' '
          << p.offset.y << ' ' << p.bits << ' ' << (p.is_output ? 1 : 0) << '\n';
    }
  }
  out << "//HIDAP_DIE " << d.die().w << ' ' << d.die().h << "\n\n";
}

}  // namespace

void write_verilog(const Design& design, std::ostream& out) {
  const std::vector<ModulePlan> plans = plan_modules(design);

  // Per-cell connection lists (pin label + net), built in one sweep. A
  // macro pin is labelled by its name, any other pin by a letter and a
  // per-cell index ("I0", "Q3").
  struct CellConn {
    std::string_view pin;  ///< macro pin name, or the letter
    int index;             ///< -1 for macro pins
    NetId net;
  };
  std::vector<std::vector<CellConn>> conns(design.cell_count());
  std::vector<int> in_count(design.cell_count(), 0), out_count(design.cell_count(), 0);
  for (std::size_t n = 0; n < design.net_count(); ++n) {
    const Net& net = design.net(static_cast<NetId>(n));
    auto connect = [&](const NetPin& p, bool driver) {
      const auto cell = static_cast<std::size_t>(p.cell);
      const Cell& c = design.cell(p.cell);
      CellConn conn{{}, -1, static_cast<NetId>(n)};
      if (c.kind == CellKind::Macro) {
        conn.pin = macro_pin_name(design.macro_def_of(p.cell), p.dx, p.dy);
      } else {
        const bool flop = c.kind == CellKind::Flop;
        conn.pin = driver ? (flop ? "Q" : "O") : (flop ? "D" : "I");
        conn.index = driver ? out_count[cell]++ : in_count[cell]++;
      }
      conns[cell].push_back(conn);
    };
    if (net.driver.cell != kInvalidId) connect(net.driver, true);
    for (const NetPin& p : net.sinks) connect(p, false);
  }

  TextBuffer text;
  write_macro_header(design, text);

  // Emit child modules before parents (post-order) so the file parses in
  // one pass even though our parser does not require it.
  std::vector<HierId> order;
  std::vector<HierId> stack = {design.root()};
  while (!stack.empty()) {
    const HierId h = stack.back();
    stack.pop_back();
    order.push_back(h);
    for (const HierId c : design.hier(h).children) stack.push_back(c);
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const HierId h = *it;
    const ModulePlan& plan = plans[static_cast<std::size_t>(h)];
    text << "module " << module_name(design, h) << " (";
    for (std::size_t i = 0; i < plan.ports.size(); ++i) {
      text << (i ? ", " : "") << net_token(plan.ports[i].first);
    }
    text << ");\n";
    for (const auto& [net, dir] : plan.ports) {
      text << "  " << (dir == PortDir::Out ? "output" : "input") << ' ' << net_token(net)
           << ";\n";
    }
    for (const NetId net : plan.wires) text << "  wire " << net_token(net) << ";\n";

    // Leaf cells.
    for (const CellId cid : design.hier(h).cells) {
      const Cell& c = design.cell(cid);
      switch (c.kind) {
        case CellKind::Macro:
          text << "  " << sanitize(design.macro_def_of(cid).name);
          break;
        case CellKind::Flop:
          text << "  HIDAP_DFF #(.AREA(" << c.area << "))";
          break;
        case CellKind::Comb:
          text << "  HIDAP_COMB #(.AREA(" << c.area << "))";
          break;
        case CellKind::PortIn:
          text << "  HIDAP_PIN_IN #(.X(" << (c.fixed_pos ? c.fixed_pos->x : 0.0) << "), .Y("
               << (c.fixed_pos ? c.fixed_pos->y : 0.0) << "))";
          break;
        case CellKind::PortOut:
          text << "  HIDAP_PIN_OUT #(.X(" << (c.fixed_pos ? c.fixed_pos->x : 0.0)
               << "), .Y(" << (c.fixed_pos ? c.fixed_pos->y : 0.0) << "))";
          break;
      }
      text << ' ' << sanitize(c.name) << " (";
      const auto& cc = conns[static_cast<std::size_t>(cid)];
      for (std::size_t i = 0; i < cc.size(); ++i) {
        text << (i ? ", " : "") << '.' << cc[i].pin;
        if (cc[i].index >= 0) text << cc[i].index;
        text << '(' << net_token(cc[i].net) << ')';
      }
      text << ");\n";
    }

    // Child instances.
    for (const HierId child : design.hier(h).children) {
      const ModulePlan& cplan = plans[static_cast<std::size_t>(child)];
      text << "  " << module_name(design, child) << ' ' << sanitize(design.hier(child).name)
           << " (";
      for (std::size_t i = 0; i < cplan.ports.size(); ++i) {
        text << (i ? ", " : "") << '.' << net_token(cplan.ports[i].first) << '('
             << net_token(cplan.ports[i].first) << ')';
      }
      text << ");\n";
    }
    text << "endmodule\n\n";
  }
  text.write_to(out);
}

void write_verilog_file(const Design& design, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for write: " + path);
  write_verilog(design, out);
}

}  // namespace hidap
