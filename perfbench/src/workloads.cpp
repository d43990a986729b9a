// Workload inputs and the untraced (end-to-end) run.
//
// Each iteration of a workload rebuilds everything a user of the entry
// point pays for: the ExperimentRunner (pool spawn, per-worker arenas),
// the grid or admission plan, the census schedules. The iteration is
// split at the first cell dispatch (observed through a ReportSink's
// begin_section hook, or around the first census call) into
//   setup_s  iteration start -> first cell dispatched, and
//   wall_s   first cell dispatched -> last result rendered.
// A run repeats iterations until --seconds have elapsed (at least the
// workload's floor count) and reports medians over them.
#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.h"
#include "src/sched/analyzer.h"
#include "src/sched/enforcer.h"
#include "src/sched/generators.h"
#include "stats.h"

namespace perfbench {

// ---------------------------------------------------------------------
// Inputs.

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"thm27-sweep",
                                                 "serve-closed", "census"};
  return names;
}

std::vector<core::MatrixConfig> thm27_configs(std::uint64_t seed,
                                              Size size) {
  // The matrices of bench_thm27_matrix: 76 (i, j) cells in total.
  const core::AgreementSpec full[] = {
      {2, 1, 4}, {2, 2, 5}, {3, 2, 5}, {3, 1, 5}, {3, 3, 6}};
  std::vector<core::MatrixConfig> out;
  for (const core::AgreementSpec& spec : full) {
    core::MatrixConfig cfg;
    cfg.spec = spec;
    cfg.seed = seed;
    cfg.max_steps = size == Size::kFull ? 900'000 : 60'000;
    out.push_back(cfg);
    if (size == Size::kTiny) break;  // (2,1,4): 10 cells
  }
  return out;
}

core::ServiceConfig serve_config(std::uint64_t seed, Size size) {
  core::ServiceConfig cfg;  // the default serving configuration
  cfg.seed = seed;
  if (size == Size::kTiny) cfg.requests = 4'000;
  return cfg;
}

std::vector<CensusCase> census_cases(std::uint64_t seed, Size size) {
  // Two census shapes, each on an enforced-witness and on a starver
  // schedule:
  //   early-exit: most observer scans abort at the first window over
  //     the cap; the packed prefix fits in a core's L2;
  //   long-walk: the starver keeps most pairs alive deep into a long
  //     prefix whose packed form exceeds L2.
  // The exhaustive best-pair scan walks each observer until its bound
  // passes the running best, ~10-100x the cost per pair of a capped
  // count, so it runs over fewer observer sets (best_j close to n).
  struct Shape {
    const char* name;
    int n, i, j, best_j;
    std::int64_t len;
  };
  const std::vector<Shape> shapes =
      size == Size::kFull
          ? std::vector<Shape>{{"early-exit", 20, 3, 17, 19, 200'000},
                               {"long-walk", 28, 2, 25, 27, 1'200'000}}
          : std::vector<Shape>{{"early-exit", 10, 2, 8, 9, 20'000},
                               {"long-walk", 12, 2, 10, 11, 60'000}};
  std::vector<CensusCase> out;
  for (const Shape& shape : shapes) {
    for (const std::int64_t enforced : {std::int64_t{3}, std::int64_t{0}}) {
      CensusCase c;
      c.name = std::string(shape.name) +
               (enforced > 0 ? "/witness" : "/starver");
      c.config.n = shape.n;
      c.config.i = shape.i;
      c.config.j = shape.j;
      c.config.len = shape.len;
      c.config.seed = seed;
      c.config.bound_cap = 3;
      c.config.enforced_bound = enforced;
      c.best_j = shape.best_j;
      out.push_back(c);
    }
  }
  return out;
}

std::unique_ptr<sched::ScheduleGenerator> census_generator(
    const core::PairScanConfig& cfg) {
  if (cfg.enforced_bound > 0) {
    return sched::EnforcedGenerator::single(
        std::make_unique<sched::UniformRandomGenerator>(cfg.n, cfg.seed),
        sched::TimelinessConstraint(ProcSet::range(0, cfg.i),
                                    ProcSet::range(0, cfg.j),
                                    cfg.enforced_bound));
  }
  return std::make_unique<sched::KSubsetStarverGenerator>(
      cfg.n, ProcSet::universe(cfg.n), cfg.i, 64);
}

// ---------------------------------------------------------------------
// Checks and digests.

void Check::expect(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (notes.size() < 8) notes.push_back(what);
}

void Check::merge(const Check& other) {
  attempted += other.attempted;
  failed += other.failed;
  for (const std::string& note : other.notes) {
    if (notes.size() < 8) notes.push_back(note);
  }
}

JsonValue json_double(double value) {
  if (!std::isfinite(value)) return JsonValue::null();
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return JsonValue::number_literal(buf, value);
}

void Digest::add(std::uint64_t word) noexcept {
  for (int byte = 0; byte < 8; ++byte) {
    state_ ^= (word >> (8 * byte)) & 0xffU;
    state_ *= 0x100000001b3ULL;
  }
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(state_));
  return buf;
}

namespace {

/// Every deterministic fact of one thm27 cell that the digest pins:
/// steps, schedule hash, witness bound and per-process decisions.
void digest_run_report(Digest& digest, const core::RunReport& report) {
  digest.add(report.steps_executed);
  digest.add(report.schedule_hash);
  digest.add(report.witness_bound);
  for (const auto& decision : report.decisions) {
    digest.add(decision.value_or(-1));
  }
}

/// RankedPairScan::best_pair over the whole P-rank space, chunked
/// through runner.map; chunk results fold in rank order, so ties keep
/// the first pair in enumeration order.
sched::TimelyPair parallel_best_pair(const sched::PackedSchedule& packed,
                                     int i, int j,
                                     core::ExperimentRunner& runner) {
  const std::int64_t p_count = SubsetRanker(packed.n(), i).count();
  const std::int64_t chunks = (p_count + kCensusChunk - 1) / kCensusChunk;
  const std::vector<sched::TimelyPair> parts =
      runner.map<sched::TimelyPair>(
          static_cast<std::size_t>(chunks), [&](std::size_t c) {
            const std::int64_t begin =
                static_cast<std::int64_t>(c) * kCensusChunk;
            const std::int64_t end = std::min(begin + kCensusChunk, p_count);
            const sched::RankedPairScan scan(packed, i, j,
                                             &runner.worker_arena());
            return scan.best_pair(begin, end);
          });
  sched::TimelyPair best = parts.front();
  for (const sched::TimelyPair& part : parts) {
    if (part.bound < best.bound) best = part;
  }
  return best;
}

/// Captures what the runner streams: the first dispatch instant (the
/// first begin_section), each cell's wall seconds and the cell facts
/// the digest pins; the full cells and reports only when asked to.
class CaptureSink final : public core::ReportSink {
 public:
  explicit CaptureSink(bool keep, bool thm27_facts)
      : keep_(keep), thm27_facts_(thm27_facts) {}

  void begin_section(const std::string&, std::size_t,
                     const core::ShardSpec&) override {
    if (!dispatched_) {
      first_dispatch_ = Clock::now();
      dispatched_ = true;
    }
    section_starts_.push_back(seconds_.size());
  }
  void cell(const core::SweepCell& cell, const core::RunReport& report,
            double seconds) override {
    seconds_.push_back(seconds);
    steps_ += report.steps_executed;
    if (thm27_facts_) {
      digest_run_report(digest_, report);
    } else {  // serving batches: no schedule hash, no per-process rows
      digest_.add(report.steps_executed);
      digest_.add(report.witness_bound);
      digest_.add(std::int64_t{report.detector.abstract_ok ? 1 : 0});
    }
    if (keep_) {
      cells_.push_back(cell);
      reports_.push_back(report);
    }
  }

  /// Moves the captured facts into `it` (timing split included).
  void finish(Iteration& it, Clock::time_point start, Clock::time_point end) {
    it.setup_s = seconds_between(start, first_dispatch_);
    it.wall_s = seconds_between(first_dispatch_, end);
    for (const double s : seconds_) it.cell_ms.push_back(s * 1e3);
    it.steps = steps_;
    it.cells = std::move(cells_);
    it.reports = std::move(reports_);
    it.section_starts = std::move(section_starts_);
  }

  Digest& digest() { return digest_; }

 private:
  bool keep_;
  bool thm27_facts_;
  bool dispatched_ = false;
  Clock::time_point first_dispatch_;
  std::vector<double> seconds_;
  std::vector<std::size_t> section_starts_;
  std::int64_t steps_ = 0;
  Digest digest_;
  std::vector<core::SweepCell> cells_;
  std::vector<core::RunReport> reports_;
};

/// Returns the heap's free pages to the kernel, so every iteration
/// starts from the allocator state of a fresh process. Without it,
/// whether glibc kept the previous iteration's freed 4 x 8 MB worker
/// arenas (no page faults) or had returned them (faults on every page)
/// decided thm27's setup_s per run: 3.7 ms or 20 ms, about half each.
void start_from_fresh_heap() { malloc_trim(0); }

core::RunnerOptions runner_options(const std::string& name, int threads) {
  core::RunnerOptions options;
  options.name = name;
  options.threads = threads;
  return options;
}

}  // namespace

Iteration thm27_iteration(const Options& opt, bool keep_outputs) {
  const auto configs = thm27_configs(opt.seed, opt.size);
  Iteration it;
  start_from_fresh_heap();
  const Clock::time_point start = Clock::now();
  core::ExperimentRunner runner(runner_options("thm27_sweep", opt.threads));
  core::JsonSink json = runner.json_sink();
  CaptureSink capture(keep_outputs, /*thm27_facts=*/true);
  std::vector<core::MatrixCell> cells;
  for (const core::MatrixConfig& cfg : configs) {
    const auto matrix = core::thm27_matrix(cfg, runner, {&capture, &json});
    cells.insert(cells.end(), matrix.begin(), matrix.end());
  }
  const Clock::time_point render_start = Clock::now();
  const std::string document = json.render();
  const Clock::time_point end = Clock::now();

  capture.finish(it, start, end);
  it.report_s = seconds_between(render_start, end);
  for (const core::MatrixCell& cell : cells) {
    it.check.expect(cell.matches,
                    "thm27 cell S^" + std::to_string(cell.i) + "_{" +
                        std::to_string(cell.j) +
                        "}: detector frontier disagrees with Theorem 27 (" +
                        cell.family + ")");
  }
  it.check.expect(!document.empty(), "thm27 report document is empty");
  it.digest = capture.digest().hex();
  return it;
}

Iteration serve_iteration(const Options& opt, bool keep_outputs) {
  const core::ServiceConfig cfg = serve_config(opt.seed, opt.size);
  Iteration it;
  start_from_fresh_heap();
  const Clock::time_point start = Clock::now();
  core::ExperimentRunner runner(runner_options("serve_closed", opt.threads));
  core::JsonSink json = runner.json_sink();
  const core::ServiceHarness harness(cfg);
  CaptureSink capture(keep_outputs, /*thm27_facts=*/false);
  core::ClosedLoopReport report =
      harness.run_closed_loop(runner, {&capture}, &json);
  const Clock::time_point render_start = Clock::now();
  const std::string document = json.render();
  const Clock::time_point end = Clock::now();

  capture.finish(it, start, end);
  it.report_s = seconds_between(render_start, end);
  Digest& digest = capture.digest();
  // A request counts as served only if it was admitted and decided
  // with its own command; shed requests are failures.
  const core::AdmissionPlan& plan = report.plan;
  for (std::int64_t s = 0; s < plan.shed; ++s) {
    it.check.expect(false, "request shed by admission control");
  }
  const bool aligned = report.decisions.size() == plan.admitted.size();
  it.check.expect(aligned, "decision list does not cover the admitted stream");
  if (aligned) {
    for (std::size_t r = 0; r < plan.admitted.size(); ++r) {
      const auto& [id, value] = report.decisions[r];
      digest.add(value);
      const bool own = id == plan.admitted[r].id &&
                       value == plan.admitted[r].command;
      it.check.expect(own, "request " + std::to_string(plan.admitted[r].id) +
                               " not decided with its own command");
      if (own) ++it.requests;
    }
  }
  it.check.expect(report.shard_decided_ok == it.requests,
                  "harness decided_ok disagrees with the per-request check");
  it.check.expect(!document.empty(), "serving report document is empty");
  it.digest = digest.hex();
  if (keep_outputs) it.decisions = std::move(report.decisions);
  return it;
}

Iteration census_iteration(const Options& opt, bool keep_outputs) {
  const std::vector<CensusCase> cases = census_cases(opt.seed, opt.size);
  Iteration it;
  start_from_fresh_heap();
  const Clock::time_point start = Clock::now();
  core::ExperimentRunner runner(runner_options("census", opt.threads));
  // Setup: the census schedules, generated and packed once for the
  // best-pair scans and the reference checks.
  std::vector<sched::Schedule> schedules;
  std::vector<std::unique_ptr<sched::PackedSchedule>> packed;
  for (const CensusCase& c : cases) {
    const auto gen = census_generator(c.config);
    schedules.push_back(sched::generate(*gen, c.config.len));
    packed.push_back(std::make_unique<sched::PackedSchedule>(schedules.back()));
  }
  const Clock::time_point dispatch = Clock::now();
  std::vector<core::PairScanResult> counts;
  std::vector<sched::TimelyPair> bests;
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const core::PairScanConfig& cfg = cases[c].config;
    const Clock::time_point t0 = Clock::now();
    counts.push_back(core::ranked_pair_scan(cfg, runner));
    const Clock::time_point t1 = Clock::now();
    it.cell_ms.push_back(seconds_between(t0, t1) * 1e3);
    bests.push_back(
        parallel_best_pair(*packed[c], cfg.i, cases[c].best_j, runner));
    it.cell_ms.push_back(seconds_between(t1, Clock::now()) * 1e3);
  }
  const Clock::time_point end = Clock::now();
  it.setup_s = seconds_between(start, dispatch);
  it.wall_s = seconds_between(dispatch, end);

  // Every reported bound must match the executable specification.
  Digest digest;
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const CensusCase& cc = cases[c];
    const core::PairScanResult& r = counts[c];
    const sched::TimelyPair& best = bests[c];
    const std::int64_t best_pairs =
        SubsetRanker(cc.config.n, cc.config.i).count() *
        SubsetRanker(cc.config.n, cc.best_j).count();
    it.pairs += r.pairs + best_pairs;
    digest.add(r.pairs);
    digest.add(r.members);
    digest.add(std::int64_t{r.found ? 1 : 0});
    if (cc.config.enforced_bound > 0) {
      it.check.expect(r.found, cc.name + ": the enforced witness is missing");
    }
    if (r.found) {
      digest.add(r.first.timely_set.mask());
      digest.add(r.first.observed_set.mask());
      digest.add(r.first.bound);
      const std::int64_t ref = sched::min_timeliness_bound_reference(
          schedules[c], r.first.timely_set, r.first.observed_set);
      it.check.expect(ref == r.first.bound && ref <= cc.config.bound_cap,
                      cc.name + ": first member bound " +
                          std::to_string(r.first.bound) +
                          " != reference " + std::to_string(ref));
    }
    digest.add(best.timely_set.mask());
    digest.add(best.observed_set.mask());
    digest.add(best.bound);
    const std::int64_t ref = sched::min_timeliness_bound_reference(
        schedules[c], best.timely_set, best.observed_set);
    it.check.expect(ref == best.bound,
                    cc.name + ": best pair bound " +
                        std::to_string(best.bound) + " != reference " +
                        std::to_string(ref));
  }
  it.digest = digest.hex();
  if (keep_outputs) {
    it.counts = std::move(counts);
    it.bests = std::move(bests);
  }
  return it;
}

namespace {

JsonValue metric(double value, const char* unit) {
  return JsonValue::object(
      {{"value", json_double(value)}, {"unit", JsonValue::of(unit)}});
}

}  // namespace

JsonValue run_untraced(const Options& opt) {
  Iteration (*iterate)(const Options&, bool) = nullptr;
  int floor = 1;  // minimum iterations of a full-size run
  if (opt.workload == "thm27-sweep") {
    iterate = thm27_iteration;
    floor = 3;
  } else if (opt.workload == "serve-closed") {
    iterate = serve_iteration;
    floor = 3;
  } else {
    iterate = census_iteration;
    floor = 6;
  }
  if (opt.size == Size::kTiny) floor = 1;
  if (opt.iterations > 0) floor = opt.iterations;

  std::vector<Iteration> runs;
  const Clock::time_point begin = Clock::now();
  while (static_cast<int>(runs.size()) < floor ||
         (opt.iterations == 0 &&
          seconds_between(begin, Clock::now()) < opt.seconds)) {
    runs.push_back(iterate(opt, /*keep_outputs=*/false));
  }

  std::vector<double> setup, wall, cell_ms;
  Check check;
  bool digest_stable = true;
  for (const Iteration& it : runs) {
    setup.push_back(it.setup_s);
    wall.push_back(it.wall_s);
    cell_ms.insert(cell_ms.end(), it.cell_ms.begin(), it.cell_ms.end());
    check.merge(it.check);
    digest_stable = digest_stable && it.digest == runs.front().digest;
  }
  const Iteration& first = runs.front();
  // The tail percentile is fixed by the workload's floor sample count,
  // so every run of a workload reports the same percentile.
  const double tail_q =
      tail_percentile(static_cast<std::size_t>(floor) * first.cell_ms.size());
  const double wall_s = median(wall);

  std::vector<JsonValue::Member> metrics = {
      {"wall_s", metric(wall_s, "s")},
      {"setup_s", metric(median(setup), "s")},
  };
  if (first.steps > 0) {
    metrics.emplace_back("steps_per_s",
                         metric(static_cast<double>(first.steps) / wall_s,
                                "1/s"));
  }
  if (first.requests > 0) {
    metrics.emplace_back(
        "requests_per_s",
        metric(static_cast<double>(first.requests) / wall_s, "1/s"));
  }
  if (first.pairs > 0) {
    metrics.emplace_back("pairs_per_s",
                         metric(static_cast<double>(first.pairs) / wall_s,
                                "1/s"));
  }
  metrics.emplace_back("cell_ms_p50", metric(median(cell_ms), "ms"));
  metrics.emplace_back("cell_ms_tail",
                       metric(percentile(cell_ms, tail_q), "ms"));
  metrics.emplace_back("peak_rss_mb", metric(peak_rss_mb(), "MB"));
  metrics.emplace_back(
      "error_rate",
      metric(static_cast<double>(check.failed) /
                 static_cast<double>(std::max<std::int64_t>(1, check.attempted)),
             "ratio"));

  std::vector<JsonValue> notes;
  for (const std::string& note : check.notes) notes.push_back(JsonValue::of(note));
  std::vector<JsonValue::Member> ladder;
  for (const double q : {90.0, 99.0, 99.9, 99.99}) {
    char key[16];
    std::snprintf(key, sizeof key, "p%g", q);
    ladder.emplace_back(key, json_double(percentile(cell_ms, q)));
  }
  std::vector<JsonValue> walls, setups;
  for (const double w : wall) walls.push_back(json_double(w));
  for (const double w : setup) setups.push_back(json_double(w));
  return JsonValue::object({
      {"workload", JsonValue::of(opt.workload)},
      {"seed", JsonValue::of(static_cast<std::int64_t>(opt.seed))},
      {"size", JsonValue::of(opt.size == Size::kFull ? "full" : "tiny")},
      {"threads", JsonValue::of(static_cast<std::int64_t>(opt.threads))},
      {"iterations", JsonValue::of(runs.size())},
      {"iteration_wall_s", JsonValue::array(std::move(walls))},
      {"iteration_setup_s", JsonValue::array(std::move(setups))},
      {"cell_samples", JsonValue::of(cell_ms.size())},
      {"tail_percentile", JsonValue::of(tail_q)},
      {"cell_ms_percentiles", JsonValue::object(std::move(ladder))},
      {"tail_samples_beyond", JsonValue::of(samples_beyond(cell_ms, tail_q))},
      {"attempted", JsonValue::of(check.attempted)},
      {"failed", JsonValue::of(check.failed)},
      {"notes", JsonValue::array(std::move(notes))},
      {"digest", JsonValue::of(first.digest)},
      {"digest_stable", JsonValue::of(digest_stable)},
      {"metrics", JsonValue::object(std::move(metrics))},
  });
}

}  // namespace perfbench
