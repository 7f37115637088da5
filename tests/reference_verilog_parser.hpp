#pragma once
// Reference Verilog front end: the straightforward parser the library
// shipped before its allocation-lean rewrite (string-keyed local net
// maps, a std::map of parameters per instance, a copied bindings map per
// module and a hierarchical path rebuilt for every net). It is kept
// verbatim as the differential oracle for netlist/verilog_parser.cpp:
// on every valid input both must build the same Design, and on every
// malformed input both must throw the same VerilogParseError -- except
// for negative vector bounds and bit indices, which this version
// accepts (a negative msb made the vector a scalar) and the library now
// rejects.

#include <algorithm>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "netlist/netlist.hpp"
#include "netlist/verilog_parser.hpp"
#include "util/text_cursor.hpp"

namespace hidap::reference {

// --------------------------------------------------------------- AST types
//
// Names are views into the netlist text, which outlives the parse.

struct NetRef {
  std::string_view name;
  int bit = -1;  ///< -1 = scalar reference
};

struct Connection {
  std::string_view pin;
  std::optional<NetRef> net;  ///< nullopt = unconnected .pin()
};

struct Instance {
  std::string_view def_name;
  std::string_view inst_name;
  std::map<std::string_view, double> params;
  std::vector<Connection> conns;
  int line = 0;
};

struct WireDecl {
  std::string_view name;
  int msb = -1, lsb = -1;  ///< -1/-1 = scalar
  bool is_port = false;
  bool is_output = false;
};

struct ModuleDef {
  std::string_view name;
  std::vector<WireDecl> wires;
  std::vector<Instance> instances;
};

/// `text` as a T, or a VerilogParseError at `line`.
template <typename T>
T to_number(std::string_view text, int line) {
  T value{};
  if (parse_number(text, value) != std::errc{}) {
    const char* kind = std::is_integral_v<T> ? "integer" : "number";
    throw VerilogParseError(std::string("bad ") + kind + " '" + std::string(text) + "'", line);
  }
  return value;
}

// ------------------------------------------------------------------ parser

enum class TokKind { Ident, Number, Punct, End };

struct Token {
  TokKind kind = TokKind::End;
  std::string_view text;
  int line = 1;
};

class Parser {
 public:
  explicit Parser(std::string_view text) : in_(text), text_bytes_(text.size()) { advance(); }

  std::vector<ModuleDef> parse_all() {
    std::vector<ModuleDef> modules;
    while (tok_.kind != TokKind::End) {
      if (tok_.text != "module") fail("expected 'module', got '" + std::string(tok_.text) + "'");
      advance();
      modules.push_back(parse_module());
    }
    return modules;
  }

  /// Macro geometry and die size from the //HIDAP_ comment headers.
  const std::vector<MacroDef>& macro_defs() const { return macro_defs_; }
  const Die& die() const { return die_; }

 private:
  // Lexes the next token into tok_.
  void advance() {
    skip_space_and_comments();
    const int line = in_.line();
    const char c = in_.peek();
    if (in_.done()) {
      tok_ = {TokKind::End, {}, line};
    } else if (c == '\\') {  // escaped identifier: up to whitespace
      in_.take();
      tok_ = {TokKind::Ident, in_.take_while([](char ch) { return !ascii::is_space(ch); }), line};
    } else if (ascii::is_alpha(c) || c == '_') {
      tok_ = {TokKind::Ident, in_.take_while([](char ch) {
                return ascii::is_alpha(ch) || ascii::is_digit(ch) || ch == '_' || ch == '$';
              }),
              line};
    } else if (ascii::is_digit(c) || ((c == '-' || c == '+') &&
                                      (ascii::is_digit(in_.peek(1)) || in_.peek(1) == '.'))) {
      // Only a sign followed by a digit or '.' begins a number; a lone '.'
      // or '-' is punctuation (named connections use '.pin').
      tok_ = {TokKind::Number, in_.take_while(ascii::is_number_char), line};
    } else {
      tok_ = {TokKind::Punct, in_.rest().substr(0, 1), line};
      in_.take();
    }
  }

  void skip_space_and_comments() {
    while (true) {
      in_.skip_ws();
      if (in_.peek() != '/') return;
      if (in_.peek(1) == '/') {
        in_.take();
        in_.take();
        const int line = in_.line();
        const std::string_view rest = in_.take_while([](char ch) { return ch != '\n'; });
        if (rest.starts_with("HIDAP_")) parse_directive(rest, line);
      } else if (in_.peek(1) == '*') {
        in_.take();
        in_.take();
        while (!in_.done() && !(in_.take() == '*' && in_.peek() == '/')) {
        }
        in_.take();  // the closing slash
      } else {
        return;  // a lone '/'
      }
    }
  }

  [[noreturn]] void fail(const std::string& msg) { throw VerilogParseError(msg, tok_.line); }

  Token expect(TokKind kind, const char* what) {
    if (tok_.kind != kind) {
      fail(std::string("expected ") + what + ", got '" + std::string(tok_.text) + "'");
    }
    const Token t = tok_;
    advance();
    return t;
  }

  std::string_view expect_name(const char* what) { return expect(TokKind::Ident, what).text; }

  bool accept_punct(char c) {
    if (tok_.kind == TokKind::Punct && tok_.text[0] == c) {
      advance();
      return true;
    }
    return false;
  }

  void expect_punct(char c) {
    if (!accept_punct(c)) {
      fail(std::string("expected '") + c + "', got '" + std::string(tok_.text) + "'");
    }
  }

  // `item` repeated, separated by ',', up to and including a ')'; the
  // opening '(' is already consumed.
  template <typename Item>
  void parse_list(Item item) {
    if (accept_punct(')')) return;
    while (true) {
      item();
      if (accept_punct(')')) return;
      expect_punct(',');
    }
  }

  template <typename T>
  T expect_number() {
    const Token t = expect(TokKind::Number, "number");
    return to_number<T>(t.text, t.line);
  }

  ModuleDef parse_module() {
    ModuleDef mod;
    mod.name = expect_name("module name");
    // Port directions come from the declarations, not the port list.
    if (accept_punct('(')) parse_list([&] { expect_name("port name"); });
    expect_punct(';');
    while (true) {
      if (tok_.kind == TokKind::End) fail("unexpected end of file inside module");
      if (tok_.kind != TokKind::Ident) {
        fail("expected statement, got '" + std::string(tok_.text) + "'");
      }
      if (tok_.text == "endmodule") {
        advance();
        break;
      }
      if (tok_.text == "wire" || tok_.text == "input" || tok_.text == "output") {
        parse_decl(mod);
      } else {
        mod.instances.push_back(parse_instance());
      }
    }
    return mod;
  }

  void parse_decl(ModuleDef& mod) {
    WireDecl proto;
    proto.is_port = (tok_.text != "wire");
    proto.is_output = (tok_.text == "output");
    advance();
    if (accept_punct('[')) {
      proto.msb = expect_number<int>();
      expect_punct(':');
      proto.lsb = expect_number<int>();
      // Elaboration creates one net per declared bit; a width beyond the
      // input's byte count could only exhaust memory.
      const long long width =
          std::llabs(static_cast<long long>(proto.msb) - proto.lsb) + 1;
      if (proto.msb >= 0 && width > static_cast<long long>(text_bytes_)) {
        fail("vector width " + std::to_string(width) + " exceeds the input size (" +
             std::to_string(text_bytes_) + " bytes)");
      }
      expect_punct(']');
    }
    while (true) {
      WireDecl d = proto;
      d.name = expect_name("wire name");
      mod.wires.push_back(d);
      if (accept_punct(';')) break;
      expect_punct(',');
    }
  }

  Instance parse_instance() {
    Instance inst;
    inst.line = tok_.line;
    inst.def_name = expect_name("instance type");
    if (accept_punct('#')) {
      expect_punct('(');
      parse_list([&] {
        expect_punct('.');
        const std::string_view key = expect_name("parameter name");
        expect_punct('(');
        inst.params[key] = expect_number<double>();
        expect_punct(')');
      });
    }
    inst.inst_name = expect_name("instance name");
    expect_punct('(');
    parse_list([&] {
      expect_punct('.');
      Connection conn;
      conn.pin = expect_name("pin name");
      expect_punct('(');
      if (!accept_punct(')')) {
        NetRef ref;
        ref.name = expect_name("net name");
        if (accept_punct('[')) {
          ref.bit = expect_number<int>();
          expect_punct(']');
        }
        conn.net = ref;
        expect_punct(')');
      }
      inst.conns.push_back(conn);
    });
    expect_punct(';');
    return inst;
  }

  // One //HIDAP_MACRO, //HIDAP_PIN or //HIDAP_DIE header line; other
  // HIDAP_ tags are ignored.
  void parse_directive(std::string_view text, int line) {
    TextCursor in(text);
    const auto word = [&]() {
      const std::string_view w = in.token();
      if (w.empty()) throw VerilogParseError("truncated //" + std::string(text), line);
      return w;
    };
    const auto number = [&](auto& out) {
      out = to_number<std::remove_reference_t<decltype(out)>>(word(), line);
    };
    const std::string_view tag = in.token();
    if (tag == "HIDAP_MACRO") {
      MacroDef def;
      def.name = word();
      if (find_macro(def.name)) throw VerilogParseError("duplicate macro " + def.name, line);
      number(def.w);
      number(def.h);
      macro_defs_.push_back(std::move(def));
    } else if (tag == "HIDAP_PIN") {
      MacroDef* def = find_macro(word());
      if (!def) throw VerilogParseError("pin of an undeclared macro", line);
      MacroPin pin;
      int is_out = 0;
      pin.name = word();
      number(pin.offset.x);
      number(pin.offset.y);
      number(pin.bits);
      number(is_out);
      pin.is_output = is_out != 0;
      def->pins.push_back(pin);
    } else if (tag == "HIDAP_DIE") {
      number(die_.w);
      number(die_.h);
    }
  }

  MacroDef* find_macro(std::string_view name) {
    for (MacroDef& def : macro_defs_) {
      if (def.name == name) return &def;
    }
    return nullptr;
  }

  TextCursor in_;
  std::size_t text_bytes_;  ///< the bound on a declared vector width
  Token tok_;
  std::vector<MacroDef> macro_defs_;
  Die die_;
};

// -------------------------------------------------------------- elaborator

inline bool is_primitive(std::string_view def_name) {
  return def_name.starts_with("HIDAP_");
}

// Output pins: O*, Q* on primitives.
inline bool primitive_pin_is_output(std::string_view pin) {
  return !pin.empty() && (pin[0] == 'O' || pin[0] == 'Q');
}

class Elaborator {
 public:
  Elaborator(const std::vector<ModuleDef>& modules, const std::vector<MacroDef>& macro_defs,
             const Die& die)
      : modules_(modules), macro_defs_(macro_defs), die_(die) {
    for (const ModuleDef& m : modules_) by_name_[m.name] = &m;
  }

  Design elaborate() {
    const ModuleDef& top = find_top();
    Design design{std::string(top.name)};
    design.set_die(die_);
    for (const MacroDef& def : macro_defs_) design.library().add(def);
    std::unordered_map<std::string, NetId> no_bindings;
    elaborate_module(design, top, design.root(), no_bindings);
    return design;
  }

 private:
  const ModuleDef& find_top() const {
    std::unordered_set<std::string_view> instantiated;
    for (const ModuleDef& m : modules_) {
      for (const Instance& inst : m.instances) {
        if (!is_primitive(inst.def_name)) instantiated.insert(inst.def_name);
      }
    }
    const ModuleDef* top = nullptr;
    for (const ModuleDef& m : modules_) {
      if (instantiated.count(m.name)) continue;
      if (top) {
        throw VerilogParseError(
            "multiple top modules: " + std::string(top->name) + ", " + std::string(m.name), 0);
      }
      top = &m;
    }
    if (!top) throw VerilogParseError("no top module found", 0);
    return *top;
  }

  // Bit-blasted local net name.
  static std::string bit_name(std::string_view base, int bit) {
    return bit < 0 ? std::string(base) : std::string(base) + "[" + std::to_string(bit) + "]";
  }

  // Elaborates `mod` into hierarchy node `hier`. `bindings` maps this
  // module's port bit names to already-created parent nets.
  void elaborate_module(Design& design, const ModuleDef& mod, HierId hier,
                        std::unordered_map<std::string, NetId>& bindings) {
    active_.push_back(&mod);
    std::unordered_map<std::string, NetId> local = bindings;
    // Declare local nets for all wires (and unbound ports).
    for (const WireDecl& w : mod.wires) {
      const int lo = w.msb < 0 ? -1 : std::min(w.msb, w.lsb);
      const int hi = w.msb < 0 ? -1 : std::max(w.msb, w.lsb);
      for (long b = lo; b <= hi; ++b) {  // long: hi may be INT_MAX
        const std::string name = bit_name(w.name, static_cast<int>(b));
        if (!local.count(name)) {
          local[name] = design.add_net(design.hier_path(hier) + "/" + name);
        }
      }
    }
    auto resolve = [&](const NetRef& ref, int line) -> NetId {
      const std::string name = bit_name(ref.name, ref.bit);
      auto it = local.find(name);
      if (it != local.end()) return it->second;
      // Implicit scalar net (plain Verilog allows it).
      if (ref.bit >= 0) throw VerilogParseError("undeclared vector net " + name, line);
      const NetId id = design.add_net(design.hier_path(hier) + "/" + name);
      local[name] = id;
      return id;
    };

    for (const Instance& inst : mod.instances) {
      if (is_primitive(inst.def_name)) {
        elaborate_primitive(design, inst, hier, resolve);
      } else if (const MacroDefId mid = design.library().id_of(inst.def_name);
                 mid != kNoMacroDef) {
        elaborate_macro(design, inst, hier, mid, resolve);
      } else {
        const auto it = by_name_.find(inst.def_name);
        if (it == by_name_.end()) {
          throw VerilogParseError("unknown module '" + std::string(inst.def_name) + "'",
                                  inst.line);
        }
        const ModuleDef& child = *it->second;
        if (std::find(active_.begin(), active_.end(), &child) != active_.end()) {
          throw VerilogParseError(
              "recursive instantiation of module '" + std::string(child.name) + "'", inst.line);
        }
        const HierId child_hier = design.add_hier(hier, std::string(inst.inst_name));
        // Bind child's port names to parent nets.
        std::unordered_map<std::string, NetId> child_bind;
        for (const Connection& conn : inst.conns) {
          if (!conn.net) continue;
          // Formal may be a vector port: bind bit 0..n via declared range.
          const WireDecl* decl = nullptr;
          for (const WireDecl& w : child.wires) {
            if (w.is_port && w.name == conn.pin) {
              decl = &w;
              break;
            }
          }
          if (decl && decl->msb >= 0) {
            throw VerilogParseError(
                "vector port binding unsupported for port '" + std::string(conn.pin) + "'",
                inst.line);
          }
          child_bind[std::string(conn.pin)] = resolve(*conn.net, inst.line);
        }
        elaborate_module(design, child, child_hier, child_bind);
      }
    }
    active_.pop_back();
  }

  template <typename Resolve>
  void elaborate_primitive(Design& design, const Instance& inst, HierId hier,
                           Resolve&& resolve) {
    double area = 0.0;
    if (const auto it = inst.params.find("AREA"); it != inst.params.end()) {
      area = it->second;
    }
    CellKind kind;
    if (inst.def_name == "HIDAP_DFF") {
      kind = CellKind::Flop;
    } else if (inst.def_name == "HIDAP_COMB") {
      kind = CellKind::Comb;
    } else if (inst.def_name == "HIDAP_PIN_IN") {
      kind = CellKind::PortIn;
    } else if (inst.def_name == "HIDAP_PIN_OUT") {
      kind = CellKind::PortOut;
    } else {
      throw VerilogParseError("unknown primitive '" + std::string(inst.def_name) + "'",
                              inst.line);
    }
    const CellId cell = design.add_cell(hier, std::string(inst.inst_name), kind, area);
    if (is_port(kind)) {
      Point pos;
      if (const auto it = inst.params.find("X"); it != inst.params.end()) pos.x = it->second;
      if (const auto it = inst.params.find("Y"); it != inst.params.end()) pos.y = it->second;
      design.cell_mutable(cell).fixed_pos = pos;
    }
    for (const Connection& conn : inst.conns) {
      if (!conn.net) continue;
      const NetId net = resolve(*conn.net, inst.line);
      if (primitive_pin_is_output(conn.pin)) {
        design.set_driver(net, cell);
      } else {
        design.add_sink(net, cell);
      }
    }
  }

  template <typename Resolve>
  void elaborate_macro(Design& design, const Instance& inst, HierId hier, MacroDefId mid,
                       Resolve&& resolve) {
    const CellId cell =
        design.add_cell(hier, std::string(inst.inst_name), CellKind::Macro, 0.0, mid);
    const MacroDef& def = design.library().def(mid);
    for (const Connection& conn : inst.conns) {
      if (!conn.net) continue;
      const int pin = def.pin_index(conn.pin);
      if (pin < 0) {
        throw VerilogParseError(
            "macro '" + def.name + "' has no pin '" + std::string(conn.pin) + "'", inst.line);
      }
      const MacroPin& mp = def.pins[static_cast<std::size_t>(pin)];
      const NetId net = resolve(*conn.net, inst.line);
      if (mp.is_output) {
        design.set_driver(net, cell, static_cast<float>(mp.offset.x),
                          static_cast<float>(mp.offset.y));
      } else {
        design.add_sink(net, cell, static_cast<float>(mp.offset.x),
                        static_cast<float>(mp.offset.y));
      }
    }
  }

  const std::vector<ModuleDef>& modules_;
  std::unordered_map<std::string_view, const ModuleDef*> by_name_;
  const std::vector<MacroDef>& macro_defs_;
  Die die_;
  std::vector<const ModuleDef*> active_;  ///< modules being elaborated, outermost first
};

// The reference entry point: the scan-then-elaborate parse as the
// library ran it before the allocation-lean front end.
inline Design parse_verilog_string(const std::string& text) {
  Parser parser(text);
  const std::vector<ModuleDef> modules = parser.parse_all();
  if (modules.empty()) throw VerilogParseError("empty netlist", 0);
  Elaborator elab(modules, parser.macro_defs(), parser.die());
  return elab.elaborate();
}

}  // namespace hidap::reference
