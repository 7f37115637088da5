#include "core/hidap.hpp"

#include <set>
#include <stdexcept>

#include "core/recursive_floorplan.hpp"
#include "floorplan/legalizer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace hidap {

namespace {

// Once-per-phase wall clocks, flushed to the process registry and the
// job's MetricScope (when one rides on the control). A handful of
// counter adds per placement -- never on any per-move path.
void post_phase_micros(const JobControl* control, const char* name, double seconds) {
  const auto micros = static_cast<std::uint64_t>(seconds * 1e6);
  obs::default_registry().counter(name).add(micros);
  if (control != nullptr) {
    if (obs::MetricsRegistry* job = control->job_metrics()) {
      job->counter(name).add(micros);
    }
  }
}

// One pipeline phase in scope: its trace span (inert unless tracing is
// on) and its wall clock, posted to `counter` on scope exit.
class Phase {
 public:
  Phase(const char* span, const char* counter, const JobControl* control)
      : span_(span, "pipeline"), counter_(counter), control_(control) {}
  ~Phase() { post_phase_micros(control_, counter_, timer_.seconds()); }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

 private:
  obs::Span span_;
  Timer timer_;
  const char* counter_;
  const JobControl* control_;
};

}  // namespace

PlacementResult place_macros(const Design& design, const HiDaPOptions& options,
                             std::optional<Rect> die_override) {
  const PlacementContext context(design, options.seq);
  return place_macros(design, context, options, die_override);
}

PlacementResult place_macros(const Design& design, const PlacementContext& context,
                             const HiDaPOptions& options,
                             std::optional<Rect> die_override,
                             PlacementArtifacts* artifacts) {
  obs::Span place_span("place", "pipeline");
  Timer timer;
  JobControl* control = options.job.control;
  const Rect die = die_override.value_or(Rect{0, 0, design.die().w, design.die().h});
  if (die.area() <= 0) throw std::invalid_argument("place_macros: empty die");
  if (design.macro_count() == 0) throw std::invalid_argument("place_macros: no macros");

  RecursiveFloorplanner floorplanner(design, context.adjacency, context.ht, context.seq,
                                     options);
  bool curves_adopted = false;
  if (artifacts != nullptr) {
    if (artifacts->shape_curves) {
      floorplanner.adopt_shape_curves(*artifacts->shape_curves);
      curves_adopted = true;
    }
    if (artifacts->recursion_plan) {
      floorplanner.adopt_recursion_plan(*artifacts->recursion_plan);
    }
  }
  // Curve generation is left to run(): with more than one lane the shards
  // run as a pool task overlapped with the recursion front (joined at
  // the level-0 anneal's first curve read), and with one lane run()
  // generates eagerly -- both with the same per-node seeds, so results
  // are bit-identical to the old eager call. The curve clock comes from
  // the floorplanner itself (an outer timer would misattribute the
  // overlapped span). Adopted curves cost nothing and report nothing.
  PlacementResult result;
  {
    const Phase phase("recursion", "phase.recursion_us", control);
    result = floorplanner.run(die);
  }
  if (!curves_adopted) {
    post_phase_micros(control, "phase.curves_us", floorplanner.curves_seconds());
  }

  const bool stopped = control != nullptr && control->should_stop();
  if (artifacts != nullptr && !stopped) {
    // Export this run's precomputes for the caller to cache. Stopped
    // runs are excluded: their curve anneals exited early, so the
    // curves are not the pure function of the cache key that a hit
    // must be byte-equal to.
    if (!artifacts->shape_curves) {
      artifacts->shape_curves =
          std::make_shared<std::vector<ShapeCurve>>(floorplanner.shape_curves());
    }
    if (!artifacts->recursion_plan) {
      artifacts->recursion_plan =
          std::make_shared<RecursionPlan>(floorplanner.recursion_plan());
    }
  }

  if (stopped) {
    // Wind down promptly: the flipping and legalization post-passes are
    // refinement only, so a cancelled job skips them and returns the
    // recursion's coarse-but-complete placement as-is.
    if (control != nullptr) {
      control->post_progress("stopped (%s): returning partial placement of %zu macros",
                             to_string(status_from_stop(control->stop_reason())),
                             result.macros.size());
    }
    result.status = status_from_stop(control->stop_reason());
    result.runtime_seconds = timer.seconds();
    result.flow_name = "HiDaP";
    return result;
  }

  std::set<CellId> preplaced;
  for (const MacroPlacement& m : options.job.preplaced) preplaced.insert(m.cell);
  {
    const Phase phase("flip", "phase.flip_us", control);
    flip_macros(design, context.ht, floorplanner.region_of_node(),
                floorplanner.region_valid(), result.macros, options.flipping_passes,
                preplaced.empty() ? nullptr : &preplaced);
  }

  // Final legality pass: snapping and preplacement can leave small
  // overlaps or halo violations; clean them with minimal displacement.
  if (options.macro_halo > 0.0 ||
      total_overlap(result.macros, options.macro_halo) > 0.0) {
    const Phase phase("legalize", "phase.legalize_us", control);
    LegalizeOptions legal;
    legal.halo = options.macro_halo;
    legal.fixed = preplaced;
    legalize_macros(design, result.macros, legal);
  }

  // A stop requested after the recursion finished still reports its
  // status (the refinement passes above ran; the placement is full
  // quality, but callers polling for cancellation must see it honored).
  result.status =
      control != nullptr ? status_from_stop(control->stop_reason()) : JobStatus::Completed;
  result.runtime_seconds = timer.seconds();
  result.flow_name = "HiDaP";
  HIDAP_LOG_INFO("HiDaP placed %zu macros in %.2fs (lambda=%.2f)", result.macros.size(),
                 result.runtime_seconds, options.lambda);
  return result;
}

PlacementCheck check_placement(const Design& design, const PlacementResult& result,
                               const Rect& die, double tolerance) {
  PlacementCheck check;
  check.all_macros_placed = result.macros.size() == design.macro_count();
  check.all_inside_die = true;
  const Rect grown{die.x - tolerance, die.y - tolerance, die.w + 2 * tolerance,
                   die.h + 2 * tolerance};
  for (const MacroPlacement& m : result.macros) {
    if (!grown.contains(m.rect)) check.all_inside_die = false;
  }
  for (std::size_t i = 0; i < result.macros.size(); ++i) {
    for (std::size_t j = i + 1; j < result.macros.size(); ++j) {
      check.overlap_area += result.macros[i].rect.overlap_area(result.macros[j].rect);
    }
  }
  return check;
}

}  // namespace hidap
