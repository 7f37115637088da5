#include "gates.hpp"

#include <cmath>
#include <set>

#include "core/hidap.hpp"

namespace perfbench {

using namespace hidap;

std::string placement_error(const Design& design, const PlacementResult& result) {
  if (result.status != JobStatus::Completed) {
    return std::string("job ended ") + to_string(result.status);
  }
  std::set<CellId> seen;
  for (const MacroPlacement& m : result.macros) {
    if (!seen.insert(m.cell).second) {
      return "macro " + std::to_string(m.cell) + " placed twice";
    }
  }
  const Rect die{0.0, 0.0, design.die().w, design.die().h};
  const PlacementCheck check = check_placement(design, result, die);
  if (!check.all_macros_placed) {
    return "placed " + std::to_string(result.macros.size()) + " of " +
           std::to_string(design.macro_count()) + " macros";
  }
  if (!check.all_inside_die) return "a macro lies outside the die";
  if (!(check.overlap_area < 1e-6)) {
    return "macros overlap by " + std::to_string(check.overlap_area) + " um^2";
  }
  return {};
}

std::string flow_config_error(const FlowOptions& options) {
  if (options.handfp_seeds <= 1 && options.handfp_effort == 1.0) {
    return "handFP configuration equals HiDaP's (1 seed at effort 1): comparison is vacuous";
  }
  return {};
}

std::string flow_result_error(const FlowComparison& cmp) {
  for (const Metrics* m : {&cmp.indeda, &cmp.hidap, &cmp.handfp}) {
    if (!(std::isfinite(m->wl_m) && m->wl_m > 0.0) || !std::isfinite(m->wns_percent) ||
        !std::isfinite(m->grc_percent)) {
      return "flow " + m->flow + " has non-finite or empty metrics";
    }
  }
  if (cmp.hidap.wl_m == cmp.handfp.wl_m && cmp.hidap.wns_percent == cmp.handfp.wns_percent &&
      cmp.hidap.grc_percent == cmp.handfp.grc_percent) {
    return "handFP result equals HiDaP's: comparison is vacuous";
  }
  return {};
}

std::string DigestBook::record(const std::string& key, std::uint64_t digest) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto [it, inserted] = digests_.emplace(key, digest);
  if (inserted || it->second == digest) return {};
  return "output of " + key + " changed between runs";
}

void FailureLog::add_locked(const std::string& message) {
  ++count_;
  if (messages_.size() < 8) messages_.push_back(message);
}

void FailureLog::job(std::int32_t id, const std::string& error) {
  if (error.empty()) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  add_locked("job " + std::to_string(id) + ": " + error);
  failed_jobs_.insert(id);
}

void FailureLog::global(const std::string& error) {
  if (error.empty()) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  add_locked(error);
}

bool FailureLog::any() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return count_ != 0;
}

std::uint64_t FailureLog::failed_jobs() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return failed_jobs_.size();
}

std::vector<std::string> FailureLog::messages() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return messages_;
}

}  // namespace perfbench
