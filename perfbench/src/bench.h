// Shared declarations of the repository benchmark (perfbench).
//
// Three workloads drive the library through its public entry points:
//
//   thm27-sweep   core::thm27_matrix over the five Theorem 27 specs at
//                 the full 900k-step cell budget (long simulator runs);
//   serve-closed  ServiceHarness::run_closed_loop with the default
//                 ServiceConfig (many short, early-stopping runs);
//   census        core::ranked_pair_scan membership censuses plus the
//                 exhaustive RankedPairScan::best_pair (no simulator).
//
// Every input is a pure function of (workload, seed, size). The untraced
// run (workloads.cpp) produces the end-to-end numbers; the traced run
// (traced.cpp) rebuilds cells from public layer calls, cross-checks them
// against the library's own output, and reports per-layer metrics.
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/experiments.h"
#include "src/core/service.h"
#include "src/sched/analyzer.h"
#include "src/sched/generator.h"
#include "src/util/json.h"

namespace perfbench {

using namespace setlib;

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// A JSON number with all 17 significant digits (util::json's default
/// rendering keeps six).
JsonValue json_double(double value);

/// The seed whose row digests are pinned (run.py holds the pins).
constexpr std::uint64_t kDefaultSeed = 1;

/// kFull is the benchmark; kTiny is the smoke-test size.
enum class Size { kFull, kTiny };

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  int threads = 4;
  Size size = Size::kFull;
  /// > 0: run exactly this many iterations instead of filling `seconds`.
  int iterations = 0;
  std::string trace_out;  // Chrome trace-event file of the traced run
};

// ---------------------------------------------------------------------
// Workload inputs.

std::vector<core::MatrixConfig> thm27_configs(std::uint64_t seed, Size size);
core::ServiceConfig serve_config(std::uint64_t seed, Size size);

/// One census case: a ranked_pair_scan configuration, the observer-set
/// size of the best-pair scan run beside it on the same schedule, and a
/// label.
struct CensusCase {
  std::string name;
  core::PairScanConfig config;
  int best_j = 0;
};
std::vector<CensusCase> census_cases(std::uint64_t seed, Size size);

/// The schedule generator core::ranked_pair_scan builds for `cfg`
/// (enforced witness over uniform noise, or the rotating i-subset
/// starver when enforced_bound == 0), rebuilt from public sched calls.
std::unique_ptr<sched::ScheduleGenerator> census_generator(
    const core::PairScanConfig& cfg);

/// P-ranks per chunk of the parallel best-pair scan (the same chunk
/// width ranked_pair_scan uses for its census).
constexpr std::int64_t kCensusChunk = 8;

// ---------------------------------------------------------------------
// Output checks.

/// Failures counted against attempts, with the first few explained.
struct Check {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> notes;

  void expect(bool ok, const std::string& what);
  void merge(const Check& other);
};

/// FNV-1a over 64-bit words: the digest of a run's deterministic facts.
class Digest {
 public:
  void add(std::uint64_t word) noexcept;
  void add(std::int64_t word) noexcept {
    add(static_cast<std::uint64_t>(word));
  }
  std::string hex() const;

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ULL;
};

// ---------------------------------------------------------------------
// One iteration of a workload through its library entry point.

struct Iteration {
  double setup_s = 0.0;   // iteration start -> first cell dispatched
  double wall_s = 0.0;    // first cell dispatched -> results rendered
  double report_s = 0.0;  // JsonSink::render, inside wall_s
  std::vector<double> cell_ms;
  std::int64_t steps = 0;     // simulated steps
  std::int64_t requests = 0;  // requests decided with their own command
  std::int64_t pairs = 0;     // (P, Q) pairs scanned
  Check check;
  std::string digest;

  // The library's own outputs, kept only for the traced run's
  // cross-checks (holding them would inflate the untraced peak RSS).
  std::vector<core::SweepCell> cells;          // thm27 grid cells
  std::vector<std::size_t> section_starts;     // first cell per section
  std::vector<core::RunReport> reports;        // per thm27 cell / batch
  std::vector<std::pair<std::int64_t, std::int64_t>> decisions;  // serve
  std::vector<core::PairScanResult> counts;    // census
  std::vector<sched::TimelyPair> bests;        // census
};

Iteration thm27_iteration(const Options& options, bool keep_outputs);
Iteration serve_iteration(const Options& options, bool keep_outputs);
Iteration census_iteration(const Options& options, bool keep_outputs);

// ---------------------------------------------------------------------
// Entry points (each returns the run's result document).

JsonValue run_untraced(const Options& options);
JsonValue run_traced(const Options& options);

/// Known workload names, in presentation order.
const std::vector<std::string>& workload_names();

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H
