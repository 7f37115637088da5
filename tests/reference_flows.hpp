#pragma once
// Reference flow comparison: the nested schedule compare_flows ran
// before it became one costliest-first sweep, kept verbatim as the
// differential oracle for it (test_eval). Three flows run under one
// parallel_invoke, and the HiDaP lambda sweep and the handFP
// seed x lambda sweep each open their own parallel_for. The production
// compare_flows must return bitwise-equal quality Metrics and call
// evaluate_placement as many times.

#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "eval/flows.hpp"
#include "runtime/thread_pool.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace hidap::reference {

struct SweepSlot {
  PlacementResult result;
  Metrics metrics;
  double seconds = 0.0;       ///< this configuration's place_macros wall time
  double eval_seconds = 0.0;  ///< this configuration's evaluation wall time
};

inline void run_slot(SweepSlot& slot, const Design& design, const PlacementContext& context,
                     const HiDaPOptions& opts, const EvalOptions& eval) {
  const Timer place_timer;
  slot.result = place_macros(design, context, opts);
  slot.seconds = place_timer.seconds();
  const Timer eval_timer;
  slot.metrics = evaluate_placement(design, context.ht, context.seq, slot.result, eval);
  slot.eval_seconds = eval_timer.seconds();
}

inline PlacementResult take_best(std::vector<SweepSlot>& slots, const char* flow_name,
                                 double* eval_seconds) {
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
  if (eval_seconds != nullptr) *eval_seconds = evaluation;
  return best;
}

inline PlacementResult run_hidap_flow(const Design& design, const PlacementContext& context,
                                      const FlowOptions& options,
                                      double* eval_seconds = nullptr) {
  std::vector<SweepSlot> slots(std::size(HiDaPOptions::kLambdaSweep));
  parallel_for(
      slots.size(),
      [&](std::size_t i) {
        HiDaPOptions opts = options.hidap;  // copies the job state too
        opts.lambda = HiDaPOptions::kLambdaSweep[i];
        opts.job.seed = options.seed;
        run_slot(slots[i], design, context, opts, options.eval);
        if (JobControl* control = options.hidap.job.control) {
          control->post_progress("hidap lambda=%.1f: WL=%.3f m (%.2fs)",
                                 HiDaPOptions::kLambdaSweep[i], slots[i].metrics.wl_m,
                                 slots[i].seconds);
        }
      },
      effective_thread_count(options.hidap.num_threads));
  for (std::size_t i = 0; i < slots.size(); ++i) {
    HIDAP_LOG_INFO("HiDaP lambda=%.1f: WL=%.3f m", HiDaPOptions::kLambdaSweep[i],
                   slots[i].metrics.wl_m);
  }
  return take_best(slots, "HiDaP", eval_seconds);
}

inline PlacementResult run_handfp_flow(const Design& design, const PlacementContext& context,
                                       const FlowOptions& options,
                                       double* eval_seconds = nullptr) {
  constexpr std::size_t kLambdas = std::size(HiDaPOptions::kLambdaSweep);
  std::vector<SweepSlot> slots(static_cast<std::size_t>(options.handfp_seeds) * kLambdas);
  parallel_for(
      slots.size(),
      [&](std::size_t t) {
        const int s = static_cast<int>(t / kLambdas);
        HiDaPOptions opts = options.hidap;  // copies the job state too
        opts.lambda = HiDaPOptions::kLambdaSweep[t % kLambdas];
        // Seed 0 re-runs the tool's own configuration at expert effort (the
        // engineer starts from the tool output); later seeds explore.
        opts.job.seed =
            s == 0 ? options.seed
                   : options.seed * 7919 + static_cast<std::uint64_t>(s) * 104729 + 13;
        opts.scale_effort(options.handfp_effort);
        run_slot(slots[t], design, context, opts, options.eval);
      },
      effective_thread_count(options.hidap.num_threads));
  return take_best(slots, "handFP", eval_seconds);
}

inline FlowComparison compare_flows(const Design& design, const FlowOptions& flow_options) {
  const PlacementContext context(design, flow_options.hidap.seq);
  // Every evaluation of the comparison shares one clustering and one set
  // of cluster links. A model passed in cannot match this function's own
  // HierTree, so the comparison always builds its own.
  FlowOptions options = flow_options;
  options.eval.place.model = build_star_model(
      design, context.ht, options.eval.place.resolved_target_clusters());
  FlowComparison cmp;

  // The three flows only read the shared design/context/model; each task
  // fills its own Metrics member. Inner sweeps nest on the same pool.
  const auto run_into = [&](Metrics& out, auto flow) {
    return [&out, &design, &context, &options, flow]() {
      double eval_seconds = 0.0;  // the flow's selection evaluations
      const PlacementResult result = flow(design, context, options, &eval_seconds);
      const Timer eval_timer;
      out = evaluate_placement(design, context.ht, context.seq, result, options.eval);
      out.eval_s = eval_seconds + eval_timer.seconds();
    };
  };
  const auto indeda = [](const Design& d, const PlacementContext& c, const FlowOptions& o,
                         double*) { return run_indeda_flow(d, c, o); };
  parallel_invoke({run_into(cmp.indeda, indeda), run_into(cmp.hidap, run_hidap_flow),
                   run_into(cmp.handfp, run_handfp_flow)},
                  effective_thread_count(options.hidap.num_threads));

  const double ref = cmp.handfp.wl_m > 0 ? cmp.handfp.wl_m : 1.0;
  cmp.indeda.wl_norm = cmp.indeda.wl_m / ref;
  cmp.hidap.wl_norm = cmp.hidap.wl_m / ref;
  cmp.handfp.wl_norm = 1.0;
  return cmp;
}

}  // namespace hidap::reference
