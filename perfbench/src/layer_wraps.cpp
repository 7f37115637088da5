// Spans around calls into HiDaP's public functions, taken from outside
// the library with the linker's --wrap.
//
// For every symbol S named in an asm label "__wrap_S" below, the build
// links with -Wl,--wrap=S (CMakeLists.txt reads the list from this
// file). Every call to S from another object file -- the benchmark's own
// calls and the library's calls across its translation units, e.g.
// compare_flows -> place_macros or evaluate_placement -> place_cells --
// then lands in the wrapper, which opens a span and calls the original
// through "__real_S". Calls inside one translation unit are not
// redirected; that is why compare_flows' run_*_flow calls have no span.
//
// The wrappers declare the exact C++ signature of the function they
// replace, so arguments and results pass through unchanged. A renamed or
// re-typed function leaves "__real_S" undefined and fails the link, so
// the list cannot silently go stale.

#include <atomic>
#include <iosfwd>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "baseline/wall_packer.hpp"
#include "core/hidap.hpp"
#include "core/macro_flipping.hpp"
#include "dataflow/seq_extract.hpp"
#include "eval/metrics.hpp"
#include "gen/circuit_gen.hpp"
#include "hier/hier_tree.hpp"
#include "layer_wraps.hpp"
#include "netlist/def_io.hpp"
#include "netlist/verilog_parser.hpp"
#include "netlist/verilog_writer.hpp"
#include "place/clustering.hpp"
#include "place/density.hpp"
#include "place/hpwl.hpp"
#include "place/quadratic_placer.hpp"
#include "route/congestion.hpp"
#include "spans.hpp"
#include "timing/timing.hpp"

using namespace hidap;

namespace perfbench {
namespace {
std::atomic<std::uint64_t> g_parse_bytes{0};
std::atomic<std::uint64_t> g_seq_graphs{0};
std::atomic<std::uint64_t> g_seq_edges{0};
std::atomic<PlacementObserver*> g_observer{nullptr};
}  // namespace

std::uint64_t parsed_bytes() { return g_parse_bytes.load(std::memory_order_relaxed); }

SeqGraphStats seq_graph_stats() {
  return {g_seq_graphs.load(std::memory_order_relaxed),
          g_seq_edges.load(std::memory_order_relaxed)};
}

void set_placement_observer(PlacementObserver* observer) {
  g_observer.store(observer, std::memory_order_release);
}
}  // namespace perfbench

using perfbench::ScopedSpan;

// --- gen --------------------------------------------------------------
Design real_generate_circuit(const CircuitSpec&) asm(
    "__real__ZN5hidap16generate_circuitERKNS_11CircuitSpecE");
Design wrap_generate_circuit(const CircuitSpec&) asm(
    "__wrap__ZN5hidap16generate_circuitERKNS_11CircuitSpecE");
Design wrap_generate_circuit(const CircuitSpec& spec) {
  const ScopedSpan span("gen.generate_circuit");
  return real_generate_circuit(spec);
}

void real_write_verilog(const Design&, std::ostream&) asm(
    "__real__ZN5hidap13write_verilogERKNS_6DesignERSo");
void wrap_write_verilog(const Design&, std::ostream&) asm(
    "__wrap__ZN5hidap13write_verilogERKNS_6DesignERSo");
void wrap_write_verilog(const Design& design, std::ostream& out) {
  const ScopedSpan span("gen.write_verilog");
  real_write_verilog(design, out);
}

// --- netlist ----------------------------------------------------------
Design real_parse_verilog_string(const std::string&) asm(
    "__real__ZN5hidap20parse_verilog_stringERKNSt7__cxx1112basic_stringIcSt11char_"
    "traitsIcESaIcEEE");
Design wrap_parse_verilog_string(const std::string&) asm(
    "__wrap__ZN5hidap20parse_verilog_stringERKNSt7__cxx1112basic_stringIcSt11char_"
    "traitsIcESaIcEEE");
Design wrap_parse_verilog_string(const std::string& text) {
  const ScopedSpan span("netlist.parse_verilog_string");
  if (perfbench::tracing()) {
    perfbench::g_parse_bytes.fetch_add(text.size(), std::memory_order_relaxed);
  }
  return real_parse_verilog_string(text);
}

void real_write_def(const Design&, const PlacementResult&, std::ostream&,
                    const DefWriteOptions&) asm(
    "__real__ZN5hidap9write_defERKNS_6DesignERKNS_15PlacementResultERSoRKNS_"
    "15DefWriteOptionsE");
void wrap_write_def(const Design&, const PlacementResult&, std::ostream&,
                    const DefWriteOptions&) asm(
    "__wrap__ZN5hidap9write_defERKNS_6DesignERKNS_15PlacementResultERSoRKNS_"
    "15DefWriteOptionsE");
void wrap_write_def(const Design& design, const PlacementResult& placement,
                    std::ostream& out, const DefWriteOptions& options) {
  const ScopedSpan span("netlist.write_def");
  real_write_def(design, placement, out, options);
}

// --- hier / dataflow (the parts of PlacementContext) -------------------
void real_cell_adjacency(CellAdjacency*, const Design&) asm(
    "__real__ZN5hidap13CellAdjacencyC1ERKNS_6DesignE");
void wrap_cell_adjacency(CellAdjacency*, const Design&) asm(
    "__wrap__ZN5hidap13CellAdjacencyC1ERKNS_6DesignE");
void wrap_cell_adjacency(CellAdjacency* self, const Design& design) {
  const ScopedSpan span("dataflow.cell_adjacency");
  real_cell_adjacency(self, design);
}

void real_hier_tree(HierTree*, const Design&) asm(
    "__real__ZN5hidap8HierTreeC1ERKNS_6DesignE");
void wrap_hier_tree(HierTree*, const Design&) asm(
    "__wrap__ZN5hidap8HierTreeC1ERKNS_6DesignE");
void wrap_hier_tree(HierTree* self, const Design& design) {
  const ScopedSpan span("hier.hier_tree");
  real_hier_tree(self, design);
}

SeqGraph real_extract_seq_graph(const Design&, const CellAdjacency&,
                                const SeqExtractOptions&) asm(
    "__real__ZN5hidap17extract_seq_graphERKNS_6DesignERKNS_13CellAdjacencyERKNS_"
    "17SeqExtractOptionsE");
SeqGraph wrap_extract_seq_graph(const Design&, const CellAdjacency&,
                                const SeqExtractOptions&) asm(
    "__wrap__ZN5hidap17extract_seq_graphERKNS_6DesignERKNS_13CellAdjacencyERKNS_"
    "17SeqExtractOptionsE");
SeqGraph wrap_extract_seq_graph(const Design& design, const CellAdjacency& adjacency,
                                const SeqExtractOptions& options) {
  const ScopedSpan span("dataflow.extract_seq_graph");
  SeqGraph seq = real_extract_seq_graph(design, adjacency, options);
  if (perfbench::tracing()) {
    perfbench::g_seq_graphs.fetch_add(1, std::memory_order_relaxed);
    perfbench::g_seq_edges.fetch_add(seq.edges().size(), std::memory_order_relaxed);
  }
  return seq;
}

// --- core / baseline placement ------------------------------------------
PlacementResult real_place_macros(const Design&, const HiDaPOptions&,
                                  std::optional<Rect>) asm(
    "__real__ZN5hidap12place_macrosERKNS_6DesignERKNS_12HiDaPOptionsESt8optionalINS_"
    "4RectEE");
PlacementResult wrap_place_macros(const Design&, const HiDaPOptions&,
                                  std::optional<Rect>) asm(
    "__wrap__ZN5hidap12place_macrosERKNS_6DesignERKNS_12HiDaPOptionsESt8optionalINS_"
    "4RectEE");
PlacementResult wrap_place_macros(const Design& design, const HiDaPOptions& options,
                                  std::optional<Rect> die) {
  const ScopedSpan span("core.place_macros");
  return real_place_macros(design, options, die);
}

PlacementResult real_place_macros_ctx(const Design&, const PlacementContext&,
                                      const HiDaPOptions&, std::optional<Rect>,
                                      PlacementArtifacts*) asm(
    "__real__ZN5hidap12place_macrosERKNS_6DesignERKNS_16PlacementContextERKNS_"
    "12HiDaPOptionsESt8optionalINS_4RectEEPNS_18PlacementArtifactsE");
PlacementResult wrap_place_macros_ctx(const Design&, const PlacementContext&,
                                      const HiDaPOptions&, std::optional<Rect>,
                                      PlacementArtifacts*) asm(
    "__wrap__ZN5hidap12place_macrosERKNS_6DesignERKNS_16PlacementContextERKNS_"
    "12HiDaPOptionsESt8optionalINS_4RectEEPNS_18PlacementArtifactsE");
PlacementResult wrap_place_macros_ctx(const Design& design, const PlacementContext& context,
                                      const HiDaPOptions& options, std::optional<Rect> die,
                                      PlacementArtifacts* artifacts) {
  const ScopedSpan span("core.place_macros");
  return real_place_macros_ctx(design, context, options, die, artifacts);
}

FlippingStats real_flip_macros(const Design&, const HierTree&, const std::vector<Rect>&,
                               const std::vector<std::uint8_t>&,
                               std::vector<MacroPlacement>&, int,
                               const std::set<CellId>*) asm(
    "__real__ZN5hidap11flip_macrosERKNS_6DesignERKNS_8HierTreeERKSt6vectorINS_"
    "4RectESaIS7_EERKS6_IhSaIhEERS6_INS_14MacroPlacementESaISG_EEiPKSt3setIiSt4lessIiESaIiEE");
FlippingStats wrap_flip_macros(const Design&, const HierTree&, const std::vector<Rect>&,
                               const std::vector<std::uint8_t>&,
                               std::vector<MacroPlacement>&, int,
                               const std::set<CellId>*) asm(
    "__wrap__ZN5hidap11flip_macrosERKNS_6DesignERKNS_8HierTreeERKSt6vectorINS_"
    "4RectESaIS7_EERKS6_IhSaIhEERS6_INS_14MacroPlacementESaISG_EEiPKSt3setIiSt4lessIiESaIiEE");
FlippingStats wrap_flip_macros(const Design& design, const HierTree& ht,
                               const std::vector<Rect>& region,
                               const std::vector<std::uint8_t>& region_valid,
                               std::vector<MacroPlacement>& macros, int max_passes,
                               const std::set<CellId>* skip) {
  const ScopedSpan span("core.flip_macros");
  return real_flip_macros(design, ht, region, region_valid, macros, max_passes, skip);
}

PlacementResult real_place_macros_walls(const Design&, const HierTree&, const SeqGraph&,
                                        const WallPackOptions&) asm(
    "__real__ZN5hidap18place_macros_wallsERKNS_6DesignERKNS_8HierTreeERKNS_"
    "8SeqGraphERKNS_15WallPackOptionsE");
PlacementResult wrap_place_macros_walls(const Design&, const HierTree&, const SeqGraph&,
                                        const WallPackOptions&) asm(
    "__wrap__ZN5hidap18place_macros_wallsERKNS_6DesignERKNS_8HierTreeERKNS_"
    "8SeqGraphERKNS_15WallPackOptionsE");
PlacementResult wrap_place_macros_walls(const Design& design, const HierTree& ht,
                                        const SeqGraph& seq, const WallPackOptions& options) {
  const ScopedSpan span("baseline.place_macros_walls");
  return real_place_macros_walls(design, ht, seq, options);
}

// --- eval and its parts (place / route / timing) ------------------------
Metrics real_evaluate_placement(const Design&, const HierTree&, const SeqGraph&,
                                const PlacementResult&, const EvalOptions&) asm(
    "__real__ZN5hidap18evaluate_placementERKNS_6DesignERKNS_8HierTreeERKNS_"
    "8SeqGraphERKNS_15PlacementResultERKNS_11EvalOptionsE");
Metrics wrap_evaluate_placement(const Design&, const HierTree&, const SeqGraph&,
                                const PlacementResult&, const EvalOptions&) asm(
    "__wrap__ZN5hidap18evaluate_placementERKNS_6DesignERKNS_8HierTreeERKNS_"
    "8SeqGraphERKNS_15PlacementResultERKNS_11EvalOptionsE");
Metrics wrap_evaluate_placement(const Design& design, const HierTree& ht,
                                const SeqGraph& seq, const PlacementResult& placement,
                                const EvalOptions& options) {
  if (perfbench::PlacementObserver* observer =
          perfbench::g_observer.load(std::memory_order_acquire)) {
    (*observer)(design, placement);
  }
  const ScopedSpan span("eval.evaluate_placement");
  return real_evaluate_placement(design, ht, seq, placement, options);
}

Clustering real_cluster_cells(const Design&, const HierTree&, int) asm(
    "__real__ZN5hidap13cluster_cellsERKNS_6DesignERKNS_8HierTreeEi");
Clustering wrap_cluster_cells(const Design&, const HierTree&, int) asm(
    "__wrap__ZN5hidap13cluster_cellsERKNS_6DesignERKNS_8HierTreeEi");
Clustering wrap_cluster_cells(const Design& design, const HierTree& ht, int target) {
  const ScopedSpan span("place.cluster_cells");
  return real_cluster_cells(design, ht, target);
}

PlacedDesign real_place_cells(const Design&, const HierTree&, const PlacementResult&,
                              const PlaceOptions&) asm(
    "__real__ZN5hidap11place_cellsERKNS_6DesignERKNS_8HierTreeERKNS_15PlacementResultERKNS_"
    "12PlaceOptionsE");
PlacedDesign wrap_place_cells(const Design&, const HierTree&, const PlacementResult&,
                              const PlaceOptions&) asm(
    "__wrap__ZN5hidap11place_cellsERKNS_6DesignERKNS_8HierTreeERKNS_15PlacementResultERKNS_"
    "12PlaceOptionsE");
PlacedDesign wrap_place_cells(const Design& design, const HierTree& ht,
                              const PlacementResult& placement, const PlaceOptions& options) {
  const ScopedSpan span("place.place_cells");
  return real_place_cells(design, ht, placement, options);
}

WirelengthReport real_total_hpwl(const PlacedDesign&) asm(
    "__real__ZN5hidap10total_hpwlERKNS_12PlacedDesignE");
WirelengthReport wrap_total_hpwl(const PlacedDesign&) asm(
    "__wrap__ZN5hidap10total_hpwlERKNS_12PlacedDesignE");
WirelengthReport wrap_total_hpwl(const PlacedDesign& placed) {
  const ScopedSpan span("place.total_hpwl");
  return real_total_hpwl(placed);
}

DensityMap real_compute_density(const PlacedDesign&, int) asm(
    "__real__ZN5hidap15compute_densityERKNS_12PlacedDesignEi");
DensityMap wrap_compute_density(const PlacedDesign&, int) asm(
    "__wrap__ZN5hidap15compute_densityERKNS_12PlacedDesignEi");
DensityMap wrap_compute_density(const PlacedDesign& placed, int grid) {
  const ScopedSpan span("place.compute_density");
  return real_compute_density(placed, grid);
}

CongestionReport real_estimate_congestion(const PlacedDesign&,
                                          const CongestionOptions&) asm(
    "__real__ZN5hidap19estimate_congestionERKNS_12PlacedDesignERKNS_17CongestionOptionsE");
CongestionReport wrap_estimate_congestion(const PlacedDesign&,
                                          const CongestionOptions&) asm(
    "__wrap__ZN5hidap19estimate_congestionERKNS_12PlacedDesignERKNS_17CongestionOptionsE");
CongestionReport wrap_estimate_congestion(const PlacedDesign& placed,
                                          const CongestionOptions& options) {
  const ScopedSpan span("route.estimate_congestion");
  return real_estimate_congestion(placed, options);
}

TimingReport real_analyze_timing(const PlacedDesign&, const SeqGraph&,
                                 const TimingOptions&) asm(
    "__real__ZN5hidap14analyze_timingERKNS_12PlacedDesignERKNS_8SeqGraphERKNS_"
    "13TimingOptionsE");
TimingReport wrap_analyze_timing(const PlacedDesign&, const SeqGraph&,
                                 const TimingOptions&) asm(
    "__wrap__ZN5hidap14analyze_timingERKNS_12PlacedDesignERKNS_8SeqGraphERKNS_"
    "13TimingOptionsE");
TimingReport wrap_analyze_timing(const PlacedDesign& placed, const SeqGraph& seq,
                                 const TimingOptions& options) {
  const ScopedSpan span("timing.analyze_timing");
  return real_analyze_timing(placed, seq, options);
}
