// HiDaP end-to-end benchmark.
//
//   hidap_perfbench --workload <ingest_place|suite_eval|session_mix>
//                   --seed N --seconds S --trace <0|1>
//                   [--size full|tiny] [--trace-dir DIR]
//
// Builds the workload's inputs from --seed (set-up, timed three times),
// runs closed-loop jobs for --seconds, checks every output, and prints
// one JSON object as the last line of stdout. With --trace 0 it reports
// the end-to-end metrics; with --trace 1 it records a span around every
// call into a HiDaP layer and reports the per-layer metrics instead,
// plus a self-time table per layer. README.md in this directory defines
// every metric and the workloads.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/hidap.hpp"
#include "eval/flows.hpp"
#include "gates.hpp"
#include "gen/circuit_gen.hpp"
#include "gen/suite.hpp"
#include "layer_wraps.hpp"
#include "netlist/def_io.hpp"
#include "netlist/verilog_parser.hpp"
#include "netlist/verilog_writer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "service/placement_session.hpp"
#include "spans.hpp"
#include "util/hash.hpp"

namespace perfbench {
namespace {

using namespace hidap;

constexpr int kSetupRepeats = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string trace_dir;
};

// ---------------------------------------------------------------------
// Results

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Every per-layer metric of a traced run, in print order. Each is
/// printed on every workload and reads 0 where its layer does not run.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"gen.generate_s", "s"},
    {"gen.write_verilog_s", "s"},
    {"netlist.parse_s", "s"},
    {"netlist.parse_mb_per_s", "MB/s"},
    {"netlist.write_def_s", "s"},
    {"hier.tree_s", "s"},
    {"dataflow.adjacency_s", "s"},
    {"dataflow.seq_extract_s", "s"},
    {"dataflow.seq_edges", "count"},
    {"service.run_s", "s"},
    {"core.place_macros_s", "s"},
    {"core.curves_s", "s"},
    {"core.recursion_s", "s"},
    {"core.flip_s", "s"},
    {"core.legalize_s", "s"},
    {"floorplan.sa_moves_proposed", "count"},
    {"floorplan.sa_accept_ratio", "ratio"},
    {"floorplan.sa_temperature_steps", "count"},
    {"floorplan.sa_batches", "count"},
    {"place.cluster_s", "s"},
    {"place.place_cells_s", "s"},
    {"place.hpwl_s", "s"},
    {"place.density_s", "s"},
    {"route.congestion_s", "s"},
    {"timing.analyze_s", "s"},
    {"eval.evaluate_s", "s"},
    {"eval.evaluations", "count"},
    {"flows.placement_s", "s"},
    {"runtime.pool_queue_wait_us_p50", "us"},
    {"trace.coverage", "ratio"},
    {"trace.untraced_s", "s"},
    {"trace.job_s_p50", "s"},
    {"trace.spans", "count"},
    {"eval.hidap_wl_m", "m"},
    {"eval.hidap_wl_norm", "ratio"},
    {"eval.indeda_wl_norm", "ratio"},
    {"eval.hidap_wns_pct", "%"},
    {"eval.hidap_grc_pct", "%"},
    {"service.job_cold_s", "s"},
    {"service.job_warm_s", "s"},
    {"service.cache_hit_ratio.design", "ratio"},
    {"service.cache_hit_ratio.context", "ratio"},
    {"service.cache_hit_ratio.curves", "ratio"},
    {"service.cache_hit_ratio.plan", "ratio"},
    {"service.design_waits", "count"},
};

std::string unit_of(const std::string& name) {
  for (const auto& [n, unit] : kLayerMetrics) {
    if (name == n) return unit;
  }
  return "";
}

/// What one workload run produced, before metrics are derived.
struct RunData {
  std::vector<double> setup_s;
  std::vector<double> latency_s;  ///< per attempted job, in start order
  double window_s = 0.0;
  std::vector<double> quick_wl;   ///< one per distinct output placement
  SeqGraphStats seq_graphs;       ///< Gseq graphs the jobs built (traced runs)
  std::vector<std::int32_t> warm_jobs;  ///< session_mix: all artifacts cached
  std::map<std::string, double> layer;  ///< workload-specific per-layer values
  std::vector<Metric> info;             ///< printed, not part of the JSON line
};

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double x : xs) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

/// The highest percentile with at least ten samples above it. With
/// fewer than 20 samples that percentile is at or below the median, so
/// the maximum is reported instead and `beyond` is 0.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t beyond = 0;
};
Tail tail_latency(std::vector<double> xs) {
  Tail t;
  if (xs.empty()) return t;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  if (n < 20) {
    t.value = xs.back();
    return t;
  }
  t.value = xs[n - 11];
  t.beyond = 10;
  t.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return t;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------
// Measurement scaffolding

/// Times `setup` kSetupRepeats times and keeps the last result. Every
/// repetition must produce the same fingerprint: set-up is a pure
/// function of the seed.
template <typename T>
T timed_setup(const std::function<T()>& setup, const std::function<std::uint64_t(const T&)>& fp,
              RunData& run, FailureLog& failures) {
  std::optional<T> kept;
  std::uint64_t first_fp = 0;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    kept.reset();
    const std::int64_t t0 = now_ns();
    kept.emplace(setup());
    run.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    const std::uint64_t f = fp(*kept);
    if (rep == 0) first_fp = f;
    if (f != first_fp) failures.global("set-up is not deterministic for this seed");
  }
  return std::move(*kept);
}

/// Closed loop: `clients` threads each run one job at a time. A client
/// starts a job only while the window lasts; with one client the window
/// also closes only at a multiple of `pass` jobs, so every run measures
/// whole passes over the inputs, and not before `min_jobs` jobs ran.
/// job(index) returns the job's latency.
void closed_loop(int clients, double seconds, std::size_t pass, std::int32_t min_jobs,
                 const std::function<double(int client, std::int32_t index)>& job,
                 RunData& run) {
  std::atomic<std::int32_t> next{0};
  std::mutex mutex;
  std::map<std::int32_t, double> latencies;
  const std::int64_t start = now_ns();
  const auto client_loop = [&](int client) {
    for (;;) {
      const std::int32_t index = next.fetch_add(1);
      const double elapsed = static_cast<double>(now_ns() - start) * 1e-9;
      const bool boundary = clients > 1 || index % static_cast<std::int32_t>(pass) == 0;
      if (elapsed >= seconds && boundary && index >= std::max(min_jobs, 1)) return;
      const double latency = job(client, index);
      const std::lock_guard<std::mutex> lock(mutex);
      latencies[index] = latency;
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) threads.emplace_back(client_loop, c);
  for (std::thread& t : threads) t.join();
  run.window_s = static_cast<double>(now_ns() - start) * 1e-9;
  run.seq_graphs = seq_graph_stats();
  for (const auto& [index, latency] : latencies) run.latency_s.push_back(latency);
}

/// A job's root span and latency clock; stop() ends both.
class JobClock {
 public:
  explicit JobClock(std::int32_t id) : start_(now_ns()) { scope_.emplace(id); }
  double stop() {
    const double s = static_cast<double>(now_ns() - start_) * 1e-9;
    scope_.reset();
    return s;
  }

 private:
  std::int64_t start_;
  std::optional<JobScope> scope_;
};

std::string def_text(const Design& design, const PlacementResult& result) {
  std::ostringstream out;
  write_def(design, result, out);
  return out.str();
}

/// Scores a job's DEF output with quick_wirelength on the generated
/// design, binding components by name. The generator's Gseq is the RTL's
/// true dataflow; the ingested design's own Gseq may differ (a Verilog
/// round trip renames "q[3]" to "q_3_", and array inference then misses
/// it), so scoring on it would hide what the ingest path lost.
double score_def(const Design& truth, const PlacementContext& context, const std::string& def,
                 FailureLog& failures) {
  std::istringstream in(def);
  PlacementResult bound;
  const std::size_t n = apply_def_placement(truth, parse_def(in), bound);
  if (n != truth.macro_count()) {
    failures.global("DEF binds " + std::to_string(n) + " of " +
                    std::to_string(truth.macro_count()) + " macros");
  }
  return quick_wirelength(truth, context.ht, context.seq, bound);
}

std::uint64_t design_fingerprint(const Design& d) {
  return hash_bytes(std::to_string(d.cell_count()) + "/" + std::to_string(d.net_count()) +
                    "/" + std::to_string(d.hier_count()) + "/" +
                    std::to_string(d.die().w) + "x" + std::to_string(d.die().h));
}

// ---------------------------------------------------------------------
// ingest_place: what a `hidap_cli place` user waits for.

RunData run_ingest_place(const Args& args, FailureLog& failures) {
  RunData run;
  struct Netlist {
    std::string name;
    std::string verilog;
    Design generated;
  };
  using Inputs = std::vector<Netlist>;
  // Netlist 0 is the fixed 200k-cell / 128-macro CLI design; the other
  // two vary with the seed.
  const int cells = args.tiny ? 4000 : 200000;
  const int macro_counts[3] = {128, 96, 64};
  const auto setup = [&]() {
    Inputs inputs;
    for (int k = 0; k < 3; ++k) {
      CircuitSpec spec;
      spec.name = "gen";
      spec.target_cells = cells;
      spec.macro_count = args.tiny ? macro_counts[k] / 8 : macro_counts[k];
      spec.seed = k == 0 ? 1 : mix_seed(args.seed, static_cast<std::uint64_t>(k));
      Design design = generate_circuit(spec);
      std::ostringstream text;
      write_verilog(design, text);
      inputs.push_back({"netlist" + std::to_string(k), text.str(), std::move(design)});
    }
    return inputs;
  };
  const auto fingerprint = [](const Inputs& inputs) {
    std::uint64_t h = 0;
    for (const Netlist& n : inputs) h = h * 31 + hash_bytes(n.verilog);
    return h;
  };
  const Inputs inputs =
      timed_setup<Inputs>(setup, fingerprint, run, failures);

  // A pass is every netlist under two placement seeds; passes repeat
  // the same (netlist, seed) pairs so the DEF digests can be compared.
  // Four passes (24 jobs) at least, so the tail percentile is resolved.
  constexpr std::size_t kSeedsPerNetlist = 2;
  const std::size_t pass = inputs.size() * kSeedsPerNetlist;
  const auto min_jobs = static_cast<std::int32_t>(4 * pass);
  DigestBook digests;
  std::map<std::string, std::pair<std::size_t, std::string>> first_def;  // key -> (netlist, DEF)
  closed_loop(1, args.seconds, pass, min_jobs, [&](int, std::int32_t index) {
    const std::size_t k = static_cast<std::size_t>(index) % inputs.size();
    const std::size_t s = (static_cast<std::size_t>(index) / inputs.size()) % kSeedsPerNetlist;
    const std::uint64_t placement_seed = mix_seed(args.seed, 100 + k * kSeedsPerNetlist + s);

    JobClock clock(index);
    const Design design = parse_verilog_string(inputs[k].verilog);
    const PlacementContext context(design);
    HiDaPOptions options;  // CLI defaults
    options.job.seed = placement_seed;
    const PlacementResult result = place_macros(design, context, options);
    const std::string def = def_text(design, result);
    const double latency = clock.stop();

    const std::string key = inputs[k].name + " seed " + std::to_string(placement_seed);
    failures.job(index, placement_error(design, result));
    failures.job(index, digests.record(key, hash_bytes(def)));
    first_def.try_emplace(key, k, def);
    return latency;
  }, run);

  // Outside the window: score each distinct output.
  std::vector<std::unique_ptr<PlacementContext>> contexts(inputs.size());
  for (const auto& [key, entry] : first_def) {
    const auto& [k, def] = entry;
    if (!contexts[k]) contexts[k] = std::make_unique<PlacementContext>(inputs[k].generated);
    run.quick_wl.push_back(score_def(inputs[k].generated, *contexts[k], def, failures));
  }
  return run;
}

// ---------------------------------------------------------------------
// suite_eval: the paper's Table II/III protocol.

RunData run_suite_eval(const Args& args, FailureLog& failures) {
  RunData run;
  const double scale = args.tiny ? 0.005 : 0.1;
  const char* names[3] = {"c1", "c5", "c8"};
  using Inputs = std::vector<Design>;
  const auto setup = [&]() {
    Inputs designs;
    for (const char* name : names) designs.push_back(generate_circuit(suite_circuit(name, scale).spec));
    return designs;
  };
  const auto fingerprint = [](const Inputs& designs) {
    std::uint64_t h = 0;
    for (const Design& d : designs) h = h * 31 + design_fingerprint(d);
    return h;
  };
  const Inputs designs = timed_setup<Inputs>(setup, fingerprint, run, failures);

  // The flow seed stays at the Table II/III default: compare_flows'
  // runtime moves by about 10% with the placement seed (the anneals stop
  // on stagnation), and a run holds only one pass, so a seeded flow seed
  // would bury any regression under seed-to-seed spread.
  const FlowOptions options = benchutil::bench_flow_options();
  if (const std::string error = flow_config_error(options); !error.empty()) {
    failures.job(0, error);  // the first job is refused
    return run;
  }

  // compare_flows returns metrics only; the observer keeps a copy of
  // every placement it evaluates so each one can be checked afterwards.
  struct Captured {
    std::int32_t job;
    const Design* design;
    PlacementResult result;
  };
  std::atomic<std::int32_t> current_job{-1};  // one client: one job at a time
  std::mutex captured_mutex;
  std::vector<Captured> captured;
  PlacementObserver observer = [&](const Design& design, const PlacementResult& result) {
    PlacementResult copy;
    copy.macros = result.macros;
    copy.status = result.status;
    const std::lock_guard<std::mutex> lock(captured_mutex);
    captured.push_back({current_job.load(), &design, std::move(copy)});
  };
  set_placement_observer(&observer);

  // The seed rotates the circuit order, so no circuit is always first.
  const std::size_t rotate = static_cast<std::size_t>(args.seed % designs.size());
  DigestBook digests;
  std::vector<FlowComparison> first_pass(designs.size());
  closed_loop(1, args.seconds, designs.size(), 1, [&](int, std::int32_t index) {
    const std::size_t c = (static_cast<std::size_t>(index) + rotate) % designs.size();
    current_job.store(index);
    JobClock clock(index);
    const FlowComparison cmp = compare_flows(designs[c], options);
    const double latency = clock.stop();

    failures.job(index, flow_result_error(cmp));
    std::ostringstream digest;
    digest.precision(17);
    for (const Metrics* m : {&cmp.indeda, &cmp.hidap, &cmp.handfp}) {
      digest << m->wl_m << ' ' << m->grc_percent << ' ' << m->wns_percent << ' ' << m->tns_ns
             << ' ';
    }
    failures.job(index, digests.record(names[c], hash_bytes(digest.str())));
    if (static_cast<std::size_t>(index) < designs.size()) first_pass[c] = cmp;
    return latency;
  }, run);
  set_placement_observer(nullptr);

  // Outside the window: check every evaluated placement and score it.
  std::map<const Design*, std::unique_ptr<PlacementContext>> contexts;
  for (const auto& [job, design, result] : captured) {
    failures.job(job, placement_error(*design, result));
    auto& context = contexts[design];
    if (!context) context = std::make_unique<PlacementContext>(*design);
    run.quick_wl.push_back(quick_wirelength(*design, context->ht, context->seq, result));
  }
  if (captured.empty()) failures.global("compare_flows evaluated no placement");

  std::vector<double> hidap_wl, hidap_norm, indeda_norm;
  double wns = 0.0, grc = 0.0;
  for (const FlowComparison& cmp : first_pass) {
    hidap_wl.push_back(cmp.hidap.wl_m);
    hidap_norm.push_back(cmp.hidap.wl_norm);
    indeda_norm.push_back(cmp.indeda.wl_norm);
    wns += cmp.hidap.wns_percent / static_cast<double>(first_pass.size());
    grc += cmp.hidap.grc_percent / static_cast<double>(first_pass.size());
  }
  run.layer = {{"eval.hidap_wl_m", geomean(hidap_wl)},
               {"eval.hidap_wl_norm", geomean(hidap_norm)},
               {"eval.indeda_wl_norm", geomean(indeda_norm)},
               {"eval.hidap_wns_pct", wns},
               {"eval.hidap_grc_pct", grc}};
  for (const auto& [name, value] : run.layer) run.info.push_back({name, value, unit_of(name)});
  return run;
}

// ---------------------------------------------------------------------
// session_mix: the serving path.

RunData run_session_mix(const Args& args, FailureLog& failures) {
  RunData run;
  constexpr int kClients = 2;
  const double scale = args.tiny ? 0.005 : 0.1;
  const char* names[2] = {"c5", "c7"};
  struct Inputs {
    std::vector<Design> generated;
    std::vector<std::string> verilog;
    std::unique_ptr<PlacementSession> session;
    // One spec per (client, design), so a job copies no netlist text.
    std::vector<PlacementJobSpec> specs;
  };
  const auto setup = [&]() {
    Inputs in;
    for (const char* name : names) {
      in.generated.push_back(generate_circuit(suite_circuit(name, scale).spec));
      std::ostringstream text;
      write_verilog(in.generated.back(), text);
      in.verilog.push_back(text.str());
    }
    in.session = std::make_unique<PlacementSession>(HiDaPOptions{});
    for (int client = 0; client < kClients; ++client) {
      for (const std::string& text : in.verilog) {
        PlacementJobSpec spec;
        spec.verilog_text = text;
        in.specs.push_back(std::move(spec));
      }
    }
    return in;
  };
  const auto fingerprint = [](const Inputs& in) {
    std::uint64_t h = 0;
    for (const std::string& text : in.verilog) h = h * 31 + hash_bytes(text);
    return h;
  };
  Inputs in = timed_setup<Inputs>(setup, fingerprint, run, failures);

  // Every run works on the same 18 (design, lambda, seed) keys. Each
  // client walks them in rounds, each round a fresh --seed-drawn shuffle,
  // so the mix is balanced and only the order depends on the seed. Client
  // c opens on design c: both designs are parsed cold at once on every run.
  const double lambdas[3] = {0.2, 0.5, 0.8};
  const std::uint64_t seeds[3] = {1, 2, 3};
  struct Key {
    std::size_t design;
    double lambda;
    std::uint64_t seed;
  };
  std::vector<Key> keys;
  for (std::size_t d = 0; d < 2; ++d) {
    for (const double lambda : lambdas) {
      for (const std::uint64_t seed : seeds) keys.push_back({d, lambda, seed});
    }
  }
  struct Stream {
    std::mt19937_64 rng;
    std::vector<Key> round;
    std::size_t next = 0;
  };
  std::vector<Stream> streams;
  for (int client = 0; client < kClients; ++client) {
    streams.push_back({std::mt19937_64(mix_seed(args.seed, 300 + static_cast<std::uint64_t>(client))),
                       {}, keys.size()});
  }
  const auto next_key = [&](int client) {
    Stream& stream = streams[static_cast<std::size_t>(client)];
    if (stream.next == keys.size()) {
      const bool first_round = stream.round.empty();
      stream.round = keys;
      for (std::size_t i = stream.round.size() - 1; i > 0; --i) {
        std::swap(stream.round[i], stream.round[stream.rng() % (i + 1)]);
      }
      if (first_round) {
        const auto own = std::find_if(stream.round.begin(), stream.round.end(), [&](const Key& k) {
          return k.design == static_cast<std::size_t>(client) % 2;
        });
        std::iter_swap(stream.round.begin(), own);
      }
      stream.next = 0;
    }
    return stream.round[stream.next++];
  };
  DigestBook digests;
  std::mutex mutex;
  std::map<std::string, std::pair<std::size_t, std::string>> first_def;  // key -> (design, DEF)
  std::vector<double> cold_s, warm_s;
  closed_loop(kClients, args.seconds, 1, 1, [&](int client, std::int32_t index) {
    const auto [d, lambda, seed] = next_key(client);
    PlacementJobSpec& spec = in.specs[static_cast<std::size_t>(client) * 2 + d];
    spec.id = std::to_string(index);
    spec.lambda = lambda;
    spec.seed = seed;

    JobClock clock(index);
    JobOutcome outcome;
    {
      const ScopedSpan span("service.run");
      outcome = in.session->run(spec);
    }
    const double latency = clock.stop();

    if (outcome.status != JobStatus::Completed || !outcome.design) {
      failures.job(index, "job ended " + std::string(to_string(outcome.status)) + ": " +
                              outcome.error);
      return latency;
    }
    const std::string key = std::string(names[d]) + " lambda " + std::to_string(lambda) +
                            " seed " + std::to_string(seed);
    failures.job(index, placement_error(*outcome.design, outcome.placement));
    // Warm and cold jobs of one key must write identical DEF bytes.
    std::string def = def_text(*outcome.design, outcome.placement);
    failures.job(index, digests.record(key, hash_bytes(def)));
    const bool warm = outcome.design_cached && outcome.context_cached &&
                      outcome.curves_cached && outcome.plan_cached;
    const std::lock_guard<std::mutex> lock(mutex);
    if (!outcome.design_cached) cold_s.push_back(latency);
    if (warm) {
      warm_s.push_back(latency);
      run.warm_jobs.push_back(index);
    }
    first_def.try_emplace(key, d, std::move(def));
    return latency;
  }, run);

  // Outside the window: score each distinct output.
  std::vector<std::unique_ptr<PlacementContext>> contexts(in.generated.size());
  for (const auto& [key, entry] : first_def) {
    const auto& [d, def] = entry;
    if (!contexts[d]) contexts[d] = std::make_unique<PlacementContext>(in.generated[d]);
    run.quick_wl.push_back(score_def(in.generated[d], *contexts[d], def, failures));
  }

  const ArtifactCache::Stats stats = in.session->cache_stats();
  const auto ratio = [](std::uint64_t hits, std::uint64_t misses) {
    return hits + misses ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0.0;
  };
  const auto mean = [](const std::vector<double>& xs) {
    double s = 0.0;
    for (const double x : xs) s += x;
    return xs.empty() ? 0.0 : s / static_cast<double>(xs.size());
  };
  run.layer = {
      {"service.job_cold_s", mean(cold_s)},
      {"service.job_warm_s", mean(warm_s)},
      {"service.cache_hit_ratio.design", ratio(stats.design_hits, stats.design_misses)},
      {"service.cache_hit_ratio.context", ratio(stats.context_hits, stats.context_misses)},
      {"service.cache_hit_ratio.curves", ratio(stats.curve_hits, stats.curve_misses)},
      {"service.cache_hit_ratio.plan", ratio(stats.plan_hits, stats.plan_misses)},
      {"service.design_waits", static_cast<double>(stats.design_waits)},
  };
  const PlacementSession::JobCounters counters = in.session->job_counters();
  if (counters.failed + counters.cancelled + counters.deadline_expired != 0) {
    failures.global("session counted failed or stopped jobs");
  }
  run.info = {{"cold_jobs", static_cast<double>(cold_s.size()), "count"},
                    {"warm_jobs", static_cast<double>(warm_s.size()), "count"}};
  return run;
}

// ---------------------------------------------------------------------
// Per-layer metrics of a traced run.

struct RegistryDelta {
  std::map<std::string, double> before;
  static std::map<std::string, double> read() {
    std::map<std::string, double> out;
    for (const auto& [name, value] : obs::default_registry().flat_values()) out[name] = value;
    return out;
  }
  void start() { before = read(); }
  std::map<std::string, double> finish() const {
    std::map<std::string, double> after = read();
    for (auto& [name, value] : after) {
      const auto it = before.find(name);
      if (it != before.end()) value -= it->second;
    }
    return after;
  }
};

/// Median of a delta histogram from its le_<bound> buckets, interpolated
/// linearly inside the bucket that holds it.
double histogram_p50(const std::map<std::string, double>& delta, const std::string& name,
                     const std::vector<double>& bounds) {
  const auto get = [&](const std::string& key) {
    const auto it = delta.find(key);
    return it == delta.end() ? 0.0 : it->second;
  };
  const double total = get(name + ".count");
  if (total <= 0) return 0.0;
  double below = 0.0, lo = 0.0;
  for (const double bound : bounds) {
    char key[96];
    std::snprintf(key, sizeof key, "%s.le_%g", name.c_str(), bound);
    const double in_bucket = get(key);
    if (below + in_bucket >= total / 2 && in_bucket > 0) {
      return lo + (bound - lo) * (total / 2 - below) / in_bucket;
    }
    below += in_bucket;
    lo = bound;
  }
  return bounds.back();
}

std::vector<Metric> layer_metrics(const Args& args, const RunData& run,
                                  const std::vector<SpanRecord>& spans,
                                  const std::map<std::string, double>& counters) {
  const double jobs = static_cast<double>(std::max<std::size_t>(run.latency_s.size(), 1));
  std::map<std::string, double> job_s, all_s, calls;
  const std::set<std::string> placement_calls = {"core.place_macros", "core.flip_macros",
                                                 "baseline.place_macros_walls"};
  double flows_placement_s = 0.0;
  for (const SpanRecord& s : spans) {
    const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    all_s[s.name] += dur;
    if (s.job < 0) continue;
    job_s[s.name] += dur;
    calls[s.name] += 1;
    // Honest flow effort: placement calls not nested in another one.
    if (placement_calls.count(s.name) &&
        (s.parent < 0 || !placement_calls.count(spans[static_cast<std::size_t>(s.parent)].name))) {
      flows_placement_s += dur;
    }
  }
  const auto per_job = [&](const char* name) { return job_s[name] / jobs; };
  const auto counter = [&](const char* name) {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  };
  const double parse_s = job_s["netlist.parse_verilog_string"];
  const double proposed = counter("sa.moves_proposed");
  const TraceSummary summary = summarize(spans);

  std::map<std::string, double> v = run.layer;
  v["gen.generate_s"] = all_s["gen.generate_circuit"] / kSetupRepeats;
  v["gen.write_verilog_s"] = all_s["gen.write_verilog"] / kSetupRepeats;
  v["netlist.parse_s"] = per_job("netlist.parse_verilog_string");
  v["netlist.parse_mb_per_s"] =
      parse_s > 0 ? static_cast<double>(parsed_bytes()) / 1e6 / parse_s : 0.0;
  v["netlist.write_def_s"] = per_job("netlist.write_def");
  v["hier.tree_s"] = per_job("hier.hier_tree");
  v["dataflow.adjacency_s"] = per_job("dataflow.cell_adjacency");
  v["dataflow.seq_extract_s"] = per_job("dataflow.extract_seq_graph");
  v["dataflow.seq_edges"] = run.seq_graphs.graphs
                                ? static_cast<double>(run.seq_graphs.edges) /
                                      static_cast<double>(run.seq_graphs.graphs)
                                : 0.0;
  v["service.run_s"] = per_job("service.run");
  v["core.place_macros_s"] = per_job("core.place_macros");
  v["core.curves_s"] = counter("phase.curves_us") / 1e6 / jobs;
  v["core.recursion_s"] = counter("phase.recursion_us") / 1e6 / jobs;
  v["core.flip_s"] = counter("phase.flip_us") / 1e6 / jobs;
  v["core.legalize_s"] = counter("phase.legalize_us") / 1e6 / jobs;
  v["floorplan.sa_moves_proposed"] = proposed / jobs;
  v["floorplan.sa_accept_ratio"] = proposed > 0 ? counter("sa.moves_accepted") / proposed : 0.0;
  v["floorplan.sa_temperature_steps"] = counter("sa.temperature_steps") / jobs;
  v["floorplan.sa_batches"] = counter("sa.batches") / jobs;
  v["place.cluster_s"] = per_job("place.cluster_cells");
  v["place.place_cells_s"] = per_job("place.place_cells");
  v["place.hpwl_s"] = per_job("place.total_hpwl");
  v["place.density_s"] = per_job("place.compute_density");
  v["route.congestion_s"] = per_job("route.estimate_congestion");
  v["timing.analyze_s"] = per_job("timing.analyze_timing");
  v["eval.evaluate_s"] = per_job("eval.evaluate_placement");
  v["eval.evaluations"] = calls["eval.evaluate_placement"] / jobs;
  v["flows.placement_s"] = args.workload == "suite_eval" ? flows_placement_s / jobs : 0.0;
  v["runtime.pool_queue_wait_us_p50"] =
      histogram_p50(counters, "pool.queue_wait_us", {10, 100, 1000, 10000, 100000, 1000000});
  v["trace.coverage"] =
      summary.job_wall_s > 0 ? 1.0 - summary.untraced_s / summary.job_wall_s : 0.0;
  v["trace.untraced_s"] = summary.untraced_s / jobs;
  v["trace.job_s_p50"] = median(run.latency_s);
  v["trace.spans"] = static_cast<double>(summary.spans) / jobs;

  std::vector<Metric> m;
  for (const auto& [name, unit] : kLayerMetrics) m.push_back({name, v[name], unit});
  return m;
}

// ---------------------------------------------------------------------
// Output

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: hidap_perfbench --workload <ingest_place|suite_eval|"
               "session_mix> --seed N --seconds S --trace <0|1> [--size full|tiny] "
               "[--trace-dir DIR]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0)) usage("--seconds takes a positive number");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--size") {
      if (value != "full" && value != "tiny") usage("--size takes full or tiny");
      args.tiny = value == "tiny";
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.workload != "ingest_place" && args.workload != "suite_eval" &&
      args.workload != "session_mix") {
    usage("unknown or missing --workload");
  }
  return args;
}

int run_main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const int threads = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  ThreadPool::set_default_thread_count(threads);
  parallel_for(static_cast<std::size_t>(threads), [](std::size_t) {});  // start the pool
  if (args.trace) {
    set_tracing(true);
    obs::set_tracing_enabled(true);  // the pool's queue-wait histogram
  }

  FailureLog failures;
  RegistryDelta registry;
  registry.start();
  RunData run;
  if (args.workload == "ingest_place") {
    run = run_ingest_place(args, failures);
  } else if (args.workload == "suite_eval") {
    run = run_suite_eval(args, failures);
  } else {
    run = run_session_mix(args, failures);
  }
  const std::map<std::string, double> counters = registry.finish();

  const std::uint64_t failed_jobs = failures.failed_jobs();
  const std::uint64_t attempted = std::max<std::uint64_t>(run.latency_s.size(), failed_jobs);
  if (attempted == 0) failures.global("no job ran");
  for (const double wl : run.quick_wl) {
    if (!(std::isfinite(wl) && wl > 0)) failures.global("quick wirelength is not positive");
  }
  const Tail tail = tail_latency(run.latency_s);
  const double jobs_per_s =
      run.window_s > 0 ? static_cast<double>(run.latency_s.size()) / run.window_s : 0;

  std::printf("workload %s seed %llu threads %d: %llu jobs in %.3f s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), threads,
              static_cast<unsigned long long>(attempted), run.window_s);
  std::printf("job_s_tail is p%.1f (%zu samples beyond, %llu samples)\n", tail.percentile,
              tail.beyond, static_cast<unsigned long long>(attempted));
  std::printf("%-36s %16.6f %s\n", "fail_ratio",
              attempted ? static_cast<double>(failed_jobs) / static_cast<double>(attempted) : 1.0,
              "ratio");
  for (const Metric& m : run.info) {
    std::printf("%-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"setup_s", median(run.setup_s), "s"},
        {"job_s_p50", median(run.latency_s), "s"},
        {"job_s_tail", tail.value, "s"},
        {"jobs_per_s", jobs_per_s, "1/s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"quick_wl_geomean", geomean(run.quick_wl), "bit_um"},
    };
  } else {
    const std::vector<SpanRecord> spans = recorded_spans();
    metrics = layer_metrics(args, run, spans, counters);
    std::string tables = format_summary(summarize(spans), args.workload + ": all jobs");
    if (!run.warm_jobs.empty()) {
      tables += format_summary(summarize(spans, run.warm_jobs), args.workload + ": warm jobs");
    }
    std::fputs(tables.c_str(), stdout);
    if (!args.trace_dir.empty()) {
      std::filesystem::create_directories(args.trace_dir);
      const std::string stem =
          args.trace_dir + "/" + args.workload + "-seed" + std::to_string(args.seed);
      if (!write_spans_json(spans, stem + ".trace.json")) {
        failures.global("cannot write " + stem + ".trace.json");
      }
      if (std::FILE* f = std::fopen((stem + ".layers.txt").c_str(), "w")) {
        std::fputs(tables.c_str(), f);
        std::fclose(f);
      }
    }
  }
  for (Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      failures.global(m.name + " is not finite");
      m.value = 0.0;  // keeps the result line valid JSON
    }
  }
  for (const std::string& message : failures.messages()) {
    std::fprintf(stderr, "GATE FAILED: %s\n", message.c_str());
  }
  const bool correct = !failures.any();
  print_result(correct, attempted, failed_jobs, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
