#include "eval/flows.hpp"

#include <cstddef>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "baseline/wall_packer.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace hidap {

namespace {

// One configuration of a sweep: its placement and full evaluation,
// written only by the pool task that runs it.
struct SweepSlot {
  PlacementResult result;
  Metrics metrics;
  double seconds = 0.0;       ///< this configuration's place_macros wall time
  double eval_seconds = 0.0;  ///< this configuration's evaluation wall time
};

// Places one sweep configuration and evaluates it into `slot`.
void run_slot(SweepSlot& slot, const Design& design, const PlacementContext& context,
              const HiDaPOptions& opts, const EvalOptions& eval) {
  const Timer place_timer;
  slot.result = place_macros(design, context, opts);
  slot.seconds = place_timer.seconds();
  const Timer eval_timer;
  slot.metrics = evaluate_placement(design, context.ht, context.seq, slot.result, eval);
  slot.eval_seconds = eval_timer.seconds();
}

// The flow's reported effort is the SUM of its configurations' own
// placement times, not the fork-join span: on a shared pool the span
// overlaps the other flows' and circuits' work, which would inflate the
// Table II/III effort columns and make them thread-count dependent. The
// selection evaluations are summed apart, into `eval_seconds`.
PlacementResult take_best(std::span<SweepSlot> slots, const char* flow_name,
                          double& eval_seconds) {
  PlacementResult best;
  double effort = 0.0;
  double evaluation = 0.0;
  std::size_t winner = slots.size();
  double best_wl = std::numeric_limits<double>::max();
  for (std::size_t i = 0; i < slots.size(); ++i) {
    effort += slots[i].seconds;
    evaluation += slots[i].eval_seconds;
    if (slots[i].metrics.wl_m < best_wl) {
      best_wl = slots[i].metrics.wl_m;
      winner = i;
    }
  }
  if (winner < slots.size()) best = std::move(slots[winner].result);
  best.runtime_seconds = effort;
  best.flow_name = flow_name;
  eval_seconds = evaluation;
  return best;
}

}  // namespace

PlacementResult run_indeda_flow(const Design& design, const PlacementContext& context,
                                const FlowOptions& options) {
  WallPackOptions wp;
  wp.anneal = options.hidap.layout_anneal;
  wp.anneal.seed = options.seed ^ 0x1aed;
  // The job handle reaches every flow's SA loop: a cancelled comparison
  // winds down the wall packer just like the HiDaP sweeps.
  wp.anneal.control = options.hidap.job.control;
  wp.anneal.moves_per_temperature = static_cast<int>(
      wp.anneal.moves_per_temperature * options.indeda_effort);
  PlacementResult result = place_macros_walls(design, context.ht, context.seq, wp);
  // Industrial floorplanners orient macros too: flip with die-level
  // position estimates for the standard cells.
  std::vector<Rect> region(context.ht.size());
  std::vector<std::uint8_t> region_valid(context.ht.size(), 0);
  region[static_cast<std::size_t>(context.ht.root())] =
      Rect{0, 0, design.die().w, design.die().h};
  region_valid[static_cast<std::size_t>(context.ht.root())] = 1;
  flip_macros(design, context.ht, region, region_valid, result.macros,
              options.hidap.flipping_passes);
  if (const JobControl* control = options.hidap.job.control) {
    result.status = status_from_stop(control->stop_reason());
  }
  return result;
}

FlowComparison compare_flows(const Design& design, const FlowOptions& flow_options) {
  if (flow_options.handfp_seeds < 0) {
    throw HidapError(ErrorCode::InvalidRequest, "handfp_seeds must not be negative");
  }
  const PlacementContext context(design, flow_options.hidap.seq);
  // Every evaluation of the comparison shares one clustering and one set
  // of cluster links. A model passed in cannot match this function's own
  // HierTree, so the comparison always builds its own.
  FlowOptions options = flow_options;
  options.eval.place.model = build_star_model(
      design, context.ht, options.eval.place.resolved_target_clusters());
  const int lanes = effective_thread_count(options.hidap.num_threads);
  FlowComparison cmp;
  const auto evaluate = [&](Metrics& out, const PlacementResult& placement,
                            double selection_seconds) {
    const Timer eval_timer;
    out = evaluate_placement(design, context.ht, context.seq, placement, options.eval);
    out.eval_s = selection_seconds + eval_timer.seconds();
  };

  // The one sweep (see flows.hpp): indices [0, handfp_slots) are handFP's
  // slots, the next kLambdas HiDaP's, the last one IndEDA. Each index is
  // an obs span `flow_config` tagged flow (0 IndEDA, 1 HiDaP, 2 handFP)
  // and slot (its index within that flow).
  constexpr std::size_t kLambdas = std::size(HiDaPOptions::kLambdaSweep);
  const std::size_t handfp_slots = static_cast<std::size_t>(options.handfp_seeds) * kLambdas;
  std::vector<SweepSlot> slots(handfp_slots + kLambdas);
  parallel_for(
      slots.size() + 1,
      [&](std::size_t i) {
        obs::Span span("flow_config", "flows");
        if (i == slots.size()) {
          span.arg("flow", 0);
          cmp.indeda_placement = run_indeda_flow(design, context, options);
          evaluate(cmp.indeda, cmp.indeda_placement, 0.0);
          return;
        }
        const bool handfp = i < handfp_slots;
        const std::size_t t = handfp ? i : i - handfp_slots;
        span.arg("flow", handfp ? 2 : 1);
        span.arg("slot", static_cast<std::int64_t>(t));
        HiDaPOptions opts = options.hidap;  // copies the job state too
        opts.lambda = HiDaPOptions::kLambdaSweep[t % kLambdas];
        opts.job.seed = options.seed;
        if (handfp) {
          // Seed 0 re-runs the tool's own configuration at expert effort
          // (the engineer starts from the tool output); later seeds explore.
          const std::uint64_t s = t / kLambdas;
          if (s > 0) opts.job.seed = options.seed * 7919 + s * 104729 + 13;
          opts.scale_effort(options.handfp_effort);
        }
        run_slot(slots[i], design, context, opts, options.eval);
        if (JobControl* control = options.hidap.job.control; control != nullptr && !handfp) {
          control->post_progress("hidap lambda=%.1f: WL=%.3f m (%.2fs)", opts.lambda,
                                 slots[i].metrics.wl_m, slots[i].seconds);
        }
      },
      lanes);
  for (std::size_t i = 0; i < kLambdas; ++i) {
    HIDAP_LOG_INFO("HiDaP lambda=%.1f: WL=%.3f m", HiDaPOptions::kLambdaSweep[i],
                   slots[handfp_slots + i].metrics.wl_m);
  }
  double hidap_eval = 0.0;  // each sweep's selection evaluations
  double handfp_eval = 0.0;
  const std::span<SweepSlot> sweep(slots);
  cmp.hidap_placement = take_best(sweep.subspan(handfp_slots), "HiDaP", hidap_eval);
  cmp.handfp_placement = take_best(sweep.first(handfp_slots), "handFP", handfp_eval);
  parallel_invoke({[&] { evaluate(cmp.hidap, cmp.hidap_placement, hidap_eval); },
                   [&] { evaluate(cmp.handfp, cmp.handfp_placement, handfp_eval); }},
                  lanes);

  const double ref = cmp.handfp.wl_m > 0 ? cmp.handfp.wl_m : 1.0;
  cmp.indeda.wl_norm = cmp.indeda.wl_m / ref;
  cmp.hidap.wl_norm = cmp.hidap.wl_m / ref;
  cmp.handfp.wl_norm = 1.0;
  return cmp;
}

}  // namespace hidap
