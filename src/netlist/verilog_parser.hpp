#pragma once
// Parser for the hidap structural-Verilog subset (see verilog_writer.hpp).
//
// Supports: module definitions with port lists, input/output/wire
// declarations (scalar and [msb:lsb] vectors), primitive and module
// instances with named connections (.pin(net) / .pin(net[idx]) / .pin()),
// instance parameter lists #(.KEY(value)), and the //HIDAP_MACRO /
// //HIDAP_PIN / //HIDAP_DIE comment headers carrying macro geometry.
//
// The top module is the one never instantiated; it is elaborated
// recursively into a flattened Design with a hierarchy tree mirroring the
// instance tree.

#include <string>

#include "netlist/netlist.hpp"
#include "util/error.hpp"

namespace hidap {

/// Typed as ErrorCode::ParseError in the structured taxonomy
/// (util/error.hpp), so services map it to a machine-readable code.
class VerilogParseError : public HidapError {
 public:
  VerilogParseError(const std::string& msg, int line)
      : HidapError(ErrorCode::ParseError, "verilog parse error at line " +
                                              std::to_string(line) + ": " + msg),
        line_(line) {}
  int line() const { return line_; }

 private:
  int line_;
};

/// Parses netlist text; throws VerilogParseError (with the 1-based
/// line) on malformed input, including any number that is not one whole
/// token of the expected type: "12-3", a "1.5" or "3000000000" bit index.
Design parse_verilog_string(const std::string& text);

/// Reads the whole file, then parses it like parse_verilog_string;
/// throws HidapError (ErrorCode::IoError) when the file cannot be read.
Design parse_verilog_file(const std::string& path);

}  // namespace hidap
