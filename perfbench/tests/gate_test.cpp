// The benchmark's gates must pass a real placement and reject broken
// ones. Run by ctest in the benchmark's build (see perfbench/test.py).

#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "core/hidap.hpp"
#include "gates.hpp"
#include "gen/circuit_gen.hpp"
#include "gen/suite.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s: %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

}  // namespace

int main() {
  using namespace hidap;
  using namespace perfbench;

  const Design design = generate_circuit(fig1_spec());
  HiDaPOptions options;
  options.scale_effort(0.2);
  const PlacementResult good = place_macros(design, options);
  expect(placement_error(design, good).empty(), "a real placement passes");

  PlacementResult outside = good;
  outside.macros[0].rect.x = design.die().w + 10.0;
  expect(!placement_error(design, outside).empty(), "a macro moved outside the die is rejected");

  PlacementResult overlap = good;
  overlap.macros[1].rect.x = overlap.macros[0].rect.x;
  overlap.macros[1].rect.y = overlap.macros[0].rect.y;
  expect(!placement_error(design, overlap).empty(), "two stacked macros are rejected");

  PlacementResult missing = good;
  missing.macros.pop_back();
  expect(!placement_error(design, missing).empty(), "a missing macro is rejected");

  PlacementResult twice = good;
  twice.macros.back() = twice.macros.front();
  expect(!placement_error(design, twice).empty(), "a macro placed twice is rejected");

  PlacementResult stopped = good;
  stopped.status = JobStatus::Cancelled;
  expect(!placement_error(design, stopped).empty(), "a cancelled job is rejected");

  FlowOptions vacuous = benchutil::bench_flow_options();
  vacuous.handfp_seeds = 1;
  vacuous.handfp_effort = 1.0;
  expect(!flow_config_error(vacuous).empty(), "a handFP equal to HiDaP is refused");
  expect(flow_config_error(benchutil::bench_flow_options()).empty(),
         "the benchmark's flow options are distinct");

  FlowComparison same;
  for (Metrics* m : {&same.indeda, &same.hidap, &same.handfp}) {
    m->wl_m = 2.0;
    m->wns_percent = -10.0;
    m->grc_percent = 1.0;
  }
  expect(!flow_result_error(same).empty(), "identical HiDaP and handFP results are refused");
  FlowComparison distinct = same;
  distinct.handfp.wl_m = 1.9;
  expect(flow_result_error(distinct).empty(), "distinct flow results pass");

  DigestBook book;
  expect(book.record("a", 1).empty() && book.record("a", 1).empty(), "a stable digest passes");
  expect(!book.record("a", 2).empty(), "a changed digest is rejected");

  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}
