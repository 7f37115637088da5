#pragma once
// Correctness gates of the benchmark. Each returns an empty string when
// the output passes and a description of the first violation otherwise.

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "core/result.hpp"
#include "eval/flows.hpp"
#include "netlist/netlist.hpp"

namespace perfbench {

/// Every macro placed exactly once, inside the die, with zero overlap,
/// and the job completed.
std::string placement_error(const hidap::Design& design, const hidap::PlacementResult& result);

/// Refuses a comparison whose handFP configuration equals HiDaP's: with
/// one handFP seed at effort 1, handFP's only configuration is HiDaP's
/// own, so the comparison is vacuous.
std::string flow_config_error(const hidap::FlowOptions& options);

/// Refuses flow metrics that are not finite and positive, and a handFP
/// result identical to HiDaP's (the symptom of the vacuous configuration).
std::string flow_result_error(const hidap::FlowComparison& cmp);

/// Thread-safe record of one digest per key; a second, different digest
/// for a key is a failure (the output changed between passes, or a warm
/// job disagreed with the cold one).
class DigestBook {
 public:
  std::string record(const std::string& key, std::uint64_t digest);

 private:
  std::mutex mutex_;
  std::map<std::string, std::uint64_t> digests_;
};

/// Thread-safe failure log: counts every failure, remembers which jobs
/// failed, and keeps the first messages. Empty errors are ignored.
class FailureLog {
 public:
  void job(std::int32_t id, const std::string& error);
  /// A failure not tied to one job (set-up, scoring, configuration).
  void global(const std::string& error);
  bool any() const;
  std::uint64_t failed_jobs() const;
  std::vector<std::string> messages() const;

 private:
  void add_locked(const std::string& message);

  mutable std::mutex mutex_;
  std::uint64_t count_ = 0;
  std::set<std::int32_t> failed_jobs_;
  std::vector<std::string> messages_;
};

}  // namespace perfbench
