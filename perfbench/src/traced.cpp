// The traced run: a per-layer breakdown of all three workloads, measured
// from outside the library by timing calls into each layer's public
// functions, plus a same-program cross-check.
//
// Per workload it makes three passes:
//   library  the untraced iteration itself (same code, same timed
//            section) in the traced program, for the tracing overhead
//            and for the library's own outputs;
//   runtime  the same cells dispatched through ExperimentRunner::map,
//            one span per cell, for pool busy time, tail and dispatch;
//   layers   each traced cell rebuilt from public layer calls (stack
//            assembly, Simulator::run_until, detector check, validator,
//            PackedSchedule, bound_for, schedule_hash, the standalone
//            generator), once with plain memory for timing and once
//            with the register-attribution decorator for counts.
// A rebuilt cell that differs from the library's output in any row
// fact fails the run: its per-layer numbers would describe a different
// program.
#include <algorithm>
#include <map>
#include <optional>
#include <stdexcept>

#include "alloc.h"
#include "bench.h"
#include "src/agreement/kset.h"
#include "src/agreement/multishot.h"
#include "src/agreement/validator.h"
#include "src/core/sweep.h"
#include "src/fd/kantiomega.h"
#include "src/fd/property.h"
#include "src/sched/analyzer.h"
#include "src/sched/enforcer.h"
#include "src/sched/generators.h"
#include "src/shm/memory.h"
#include "src/shm/simulator.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

namespace {

enum Group : int { kThm27 = 0, kServe = 1, kCensus = 2 };

/// Serving batches rebuilt per traced run (evenly spaced over the plan).
constexpr std::size_t kServeSample = 1024;

// ---------------------------------------------------------------------
// Counting decorators (traced run only).

/// IMemory decorator attributing every register operation to the layer
/// that allocated the register: the Figure 2 detector's Heartbeat and
/// Counter arrays are fd, everything else (Paxos, commit-adopt,
/// snapshot segments) is agreement.
class AttributingMemory final : public shm::IMemory {
 public:
  enum Layer : std::size_t { kFd = 0, kAgreement = 1 };

  explicit AttributingMemory(shm::IMemory& inner) : inner_(inner) {}

  shm::RegisterId alloc(std::string name) override {
    const bool fd =
        name.rfind("Heartbeat", 0) == 0 || name.rfind("Counter", 0) == 0;
    const shm::RegisterId id = inner_.alloc(std::move(name));
    const auto slot = static_cast<std::size_t>(id);
    if (slot >= layer_.size()) layer_.resize(slot + 1, kAgreement);
    layer_[slot] = fd ? kFd : kAgreement;
    return id;
  }
  shm::Value read(shm::RegisterId reg) override {
    ++ops_[layer_[static_cast<std::size_t>(reg)]];
    return inner_.read(reg);
  }
  void write(shm::RegisterId reg, shm::Value v) override {
    ++ops_[layer_[static_cast<std::size_t>(reg)]];
    inner_.write(reg, std::move(v));
  }
  std::int64_t register_count() const override {
    return inner_.register_count();
  }
  const std::string& name(shm::RegisterId reg) const override {
    return inner_.name(reg);
  }
  std::int64_t read_count() const override { return inner_.read_count(); }
  std::int64_t write_count() const override { return inner_.write_count(); }

  std::int64_t ops(Layer layer) const { return ops_[layer]; }

 private:
  shm::IMemory& inner_;
  std::vector<Layer> layer_;
  std::int64_t ops_[2] = {0, 0};
};

/// Generator decorator counting pulls (crashed pulls included).
class CountingGenerator final : public sched::ScheduleGenerator {
 public:
  explicit CountingGenerator(sched::ScheduleGenerator& inner)
      : inner_(inner) {}
  int n() const override { return inner_.n(); }
  Pid next() override {
    ++pulls_;
    return inner_.next();
  }
  std::int64_t pulls() const { return pulls_; }

 private:
  sched::ScheduleGenerator& inner_;
  std::int64_t pulls_ = 0;
};

/// What the layers pass measures per rebuilt cell (times live in spans).
struct CellLayers {
  std::int64_t steps = 0;
  std::int64_t pulls = 0;
  std::int64_t reads = 0;
  std::int64_t writes = 0;
  std::int64_t registers = 0;
  std::int64_t heap_allocs = 0;
  std::int64_t heap_bytes = 0;
  std::int64_t fd_ops = 0;
  std::int64_t agreement_ops = 0;
  std::int64_t fd_iterations = 0;
  std::int64_t arena_allocs = 0;
  std::int64_t decided_at = -1;  // step of the first all-decided check
};

/// Quiescence window of the engine's "eventually forever" check: the
/// trailing third of the slowest process's iterations, floored.
std::int64_t quiescence_window(const fd::KAntiOmega& detector,
                               ProcSet correct, std::int64_t floor) {
  std::int64_t min_it = -1;
  for (const Pid p : correct.to_vector()) {
    const std::int64_t it = detector.view(p).iterations;
    min_it = min_it < 0 ? it : std::min(min_it, it);
  }
  return std::max(floor, std::max<std::int64_t>(min_it, 0) / 3);
}

std::int64_t detector_iterations(const fd::KAntiOmega& detector, int n) {
  std::int64_t total = 0;
  for (Pid p = 0; p < n; ++p) total += detector.view(p).iterations;
  return total;
}

// ---------------------------------------------------------------------
// thm27 cells rebuilt from public calls.

/// The schedule side of a thm27 cell: the generator, crash plan and
/// witness pair the engine builds for the cell's family.
struct FamilyParts {
  std::unique_ptr<sched::ScheduleGenerator> generator;
  sched::CrashPlan plan;
  ProcSet timely;
  ProcSet observed;
};

FamilyParts thm27_family(const core::RunConfig& cfg) {
  const int n = cfg.spec.n;
  FamilyParts f{nullptr, sched::CrashPlan::none(n), ProcSet(), ProcSet()};
  switch (cfg.family) {
    case core::ScheduleFamily::kEnforcedRandom: {
      f.timely = ProcSet::range(0, cfg.system.i);
      f.observed = ProcSet::range(0, cfg.system.j);
      f.plan = cfg.crashes.value_or(sched::CrashPlan::none(n));
      std::vector<sched::TimelinessConstraint> constraints;
      constraints.emplace_back(f.timely, f.observed, cfg.timeliness_bound);
      f.generator = std::make_unique<sched::EnforcedGenerator>(
          std::make_unique<sched::UniformRandomGenerator>(n, cfg.seed),
          std::move(constraints), f.plan);
      break;
    }
    case core::ScheduleFamily::kRotisserie: {
      const ProcSet crashed =
          ProcSet::range(n - (cfg.system.j - cfg.system.i), n);
      const ProcSet live = crashed.complement(n);
      f.plan = sched::CrashPlan::at(n, crashed, 0);
      for (const Pid x : live.to_vector()) {
        if (f.timely.size() < cfg.system.i) f.timely = f.timely.with(x);
      }
      f.observed = f.timely | crashed;
      f.generator = std::make_unique<sched::RotatingStarverGenerator>(
          n, live, ProcSet(), cfg.rotisserie_growth);
      break;
    }
    case core::ScheduleFamily::kKSubsetStarver:
      f.timely = ProcSet::range(0, cfg.system.i);
      f.observed = ProcSet::range(0, cfg.system.j);
      f.generator = std::make_unique<sched::KSubsetStarverGenerator>(
          n, ProcSet::universe(n), cfg.spec.k, cfg.rotisserie_growth);
      break;
    default:
      throw std::runtime_error("traced run: unexpected thm27 family");
  }
  return f;
}

/// A thm27 cell's agreement stack: detector + k-set agreement over
/// (optionally attributed) simulator memory.
struct Thm27Stack {
  Thm27Stack(const core::RunConfig& cfg,
             const std::vector<std::int64_t>& proposals, bool attribute)
      : family(thm27_family(cfg)),
        attributing(attribute ? std::make_unique<AttributingMemory>(memory)
                              : nullptr),
        mem(attributing ? static_cast<shm::IMemory&>(*attributing) : memory),
        sim(mem, cfg.spec.n),
        detector(mem, fd::KAntiOmega::Params{cfg.spec.n, cfg.spec.k,
                                             cfg.spec.t, 1}),
        kset(mem,
             agreement::KSetAgreement::Params{cfg.spec.n, cfg.spec.k,
                                              cfg.spec.t},
             &detector) {
    sim.use_crash_plan(family.plan);
    for (Pid p = 0; p < cfg.spec.n; ++p) {
      sim.process(p).add_task(detector.run(p), "kanti-omega");
      kset.install(sim.process(p), p,
                   proposals[static_cast<std::size_t>(p)]);
    }
  }

  FamilyParts family;
  shm::SimMemory memory;
  std::unique_ptr<AttributingMemory> attributing;
  shm::IMemory& mem;
  shm::Simulator sim;
  fd::KAntiOmega detector;
  agreement::KSetAgreement kset;
};

/// Rebuilds one thm27 cell (see run_agreement) with a span per layer
/// call; returns the cell's row facts.
core::RunReport rebuild_thm27_cell(const core::RunConfig& cfg,
                                   std::int64_t cell, std::int64_t parent,
                                   Tracer& tr, util::ArenaAllocator& arena,
                                   CellLayers& out) {
  const int n = cfg.spec.n;
  const int k = cfg.spec.k;
  const int t = cfg.spec.t;
  if (k > t || !cfg.proposals.empty() || !cfg.run_full_budget) {
    throw std::runtime_error("traced run: thm27 cell outside its regime");
  }
  const Scope cell_span(tr, "core.cell", kThm27, cell, parent);
  std::vector<std::int64_t> proposals;
  for (Pid p = 0; p < n; ++p) proposals.push_back(100 + p);
  arena.reset();  // as the runner does before each grid cell

  core::RunReport report;
  std::unique_ptr<Thm27Stack> stack;
  {
    const Scope s(tr, "core.setup", kThm27, cell);
    stack = std::make_unique<Thm27Stack>(cfg, proposals, false);
  }
  const AllocCounts before = thread_alloc_counts();
  {
    const Scope s(tr, "shm.run_until", kThm27, cell);
    report.steps_executed = stack->sim.run_until(
        *stack->family.generator, cfg.max_steps, [] { return false; });
  }
  const AllocCounts after = thread_alloc_counts();
  out.steps = report.steps_executed;
  out.heap_allocs = after.allocs - before.allocs;
  out.heap_bytes = after.bytes - before.bytes;
  out.reads = stack->memory.read_count();
  out.writes = stack->memory.write_count();
  out.registers = stack->memory.register_count();

  report.decisions.assign(static_cast<std::size_t>(n), std::nullopt);
  {
    const Scope verify(tr, "core.verify", kThm27, cell);
    for (Pid p = 0; p < n; ++p) {
      if (stack->kset.decided(p)) {
        report.decisions[static_cast<std::size_t>(p)] =
            stack->kset.outcome(p).value;
      }
    }
    const ProcSet correct = stack->sim.crashed_set().complement(n);
    const std::int64_t window =
        quiescence_window(stack->detector, correct, cfg.stabilization_window);
    {
      const Scope s(tr, "fd.check_kantiomega", kThm27, cell);
      const fd::PropertyCheck prop =
          fd::check_kantiomega(stack->detector, correct, window);
      report.detector.abstract_ok = prop.abstract_ok;
      report.detector.stabilized = prop.stabilized;
    }
    report.faulty = stack->sim.crashed_set();
    const Scope s(tr, "agreement.validate_agreement", kThm27, cell);
    const agreement::AgreementVerdict verdict = agreement::validate_agreement(
        t, k, n, proposals, report.decisions, report.faulty);
    report.success = verdict.ok;
  }
  {
    // Analysis on the cell arena, inside a frame, like the engine.
    const std::int64_t arena_before = arena.allocs();
    const util::FrameScope frame(arena);
    std::optional<sched::PackedSchedule> packed;
    {
      const Scope s(tr, "sched.pack", kThm27, cell);
      packed.emplace(stack->sim.executed(), arena);
    }
    {
      const Scope s(tr, "sched.bound_for", kThm27, cell);
      report.witness_bound =
          packed->bound_for(stack->family.timely, stack->family.observed);
    }
    {
      const Scope s(tr, "sched.schedule_hash", kThm27, cell);
      report.schedule_hash = sched::schedule_hash(stack->sim.executed());
    }
    out.arena_allocs = arena.allocs() - arena_before;
    report.allocs_per_op = out.arena_allocs;
  }
  stack.reset();
  {
    // The family's generator alone, as the simulator pulled it.
    const FamilyParts fresh = thm27_family(cfg);
    const Scope s(tr, "sched.generate", kThm27, cell);
    const sched::Schedule pulled =
        sched::generate(*fresh.generator, out.steps);
    if (pulled.size() != out.steps) throw std::logic_error("short generate");
  }
  return report;
}

/// The counting pass of a thm27 cell: attributed memory, counted pulls,
/// first all-decided step. Returns the executed schedule's hash.
std::uint64_t count_thm27_cell(const core::RunConfig& cfg,
                               CellLayers& out) {
  const int n = cfg.spec.n;
  std::vector<std::int64_t> proposals;
  for (Pid p = 0; p < n; ++p) proposals.push_back(100 + p);
  Thm27Stack stack(cfg, proposals, true);
  CountingGenerator counted(*stack.family.generator);
  std::int64_t decided_at = -1;
  stack.sim.run_until(counted, cfg.max_steps, [&] {
    if (decided_at < 0 &&
        stack.kset.all_decided(stack.sim.crashed_set().complement(n))) {
      decided_at = stack.sim.steps_taken();
    }
    return false;
  });
  out.pulls = counted.pulls();
  out.fd_ops = stack.attributing->ops(AttributingMemory::kFd);
  out.agreement_ops = stack.attributing->ops(AttributingMemory::kAgreement);
  out.fd_iterations = detector_iterations(stack.detector, n);
  out.decided_at = decided_at;
  return sched::schedule_hash(stack.sim.executed());
}

// ---------------------------------------------------------------------
// Serving batches rebuilt from public calls.

std::vector<sched::TimelinessConstraint> serve_constraints(
    const core::ServiceConfig& cfg) {
  std::vector<sched::TimelinessConstraint> constraints;
  constraints.emplace_back(ProcSet::range(0, cfg.spec.k),
                           ProcSet::range(0, cfg.spec.t + 1),
                           cfg.timeliness_bound);
  return constraints;
}

/// One serving batch's stack (see ServiceHarness::run_batch): detector
/// + multi-shot log under the enforced-uniform schedule.
struct ServeStack {
  ServeStack(const core::ServiceConfig& cfg,
             const std::vector<std::int64_t>& commands, std::uint64_t seed,
             bool attribute)
      : attributing(attribute ? std::make_unique<AttributingMemory>(memory)
                              : nullptr),
        mem(attributing ? static_cast<shm::IMemory&>(*attributing) : memory),
        sim(mem, cfg.spec.n),
        detector(mem, fd::KAntiOmega::Params{cfg.spec.n, cfg.spec.k,
                                             cfg.spec.t, 1}),
        log(mem,
            agreement::MultiShotAgreement::Params{
                cfg.spec.n, cfg.spec.k, cfg.spec.t,
                static_cast<int>(commands.size())},
            &detector),
        generator(std::make_unique<sched::UniformRandomGenerator>(cfg.spec.n,
                                                                  seed),
                  serve_constraints(cfg), sched::CrashPlan::none(cfg.spec.n)) {
    for (Pid p = 0; p < cfg.spec.n; ++p) {
      sim.process(p).add_task(detector.run(p), "kanti-omega");
      log.install(sim.process(p), p, commands);
    }
  }

  shm::SimMemory memory;
  std::unique_ptr<AttributingMemory> attributing;
  shm::IMemory& mem;
  shm::Simulator sim;
  fd::KAntiOmega detector;
  agreement::MultiShotAgreement log;
  sched::EnforcedGenerator generator;
};

std::vector<std::int64_t> batch_commands(const core::AdmissionPlan& plan,
                                         std::size_t index) {
  const core::AdmissionPlan::Batch& batch = plan.batches[index];
  std::vector<std::int64_t> commands;
  for (int s = 0; s < batch.size; ++s) {
    commands.push_back(
        plan.admitted[batch.first_admitted + static_cast<std::size_t>(s)]
            .command);
  }
  return commands;
}

core::BatchOutcome rebuild_batch(const core::ServiceConfig& cfg,
                                 const core::AdmissionPlan& plan,
                                 std::size_t index, std::int64_t parent,
                                 Tracer& tr, CellLayers& out) {
  const int n = cfg.spec.n;
  const auto cell = static_cast<std::int64_t>(index);
  const Scope cell_span(tr, "core.cell", kServe, cell, parent);
  const std::vector<std::int64_t> commands = batch_commands(plan, index);
  const std::uint64_t seed = core::derive_cell_seed(cfg.seed, index);
  const ProcSet everyone = ProcSet::universe(n);
  const std::int64_t budget =
      cfg.max_steps_per_slot * static_cast<std::int64_t>(commands.size());

  core::BatchOutcome outcome;
  std::unique_ptr<ServeStack> stack;
  {
    const Scope s(tr, "core.setup", kServe, cell);
    stack = std::make_unique<ServeStack>(cfg, commands, seed, false);
  }
  const AllocCounts before = thread_alloc_counts();
  {
    const Scope s(tr, "shm.run_until", kServe, cell);
    outcome.steps = stack->sim.run_until(stack->generator, budget, [&] {
      return stack->log.all_decided(everyone);
    });
  }
  const AllocCounts after = thread_alloc_counts();
  out.steps = outcome.steps;
  out.heap_allocs = after.allocs - before.allocs;
  out.heap_bytes = after.bytes - before.bytes;
  out.reads = stack->memory.read_count();
  out.writes = stack->memory.write_count();
  out.registers = stack->memory.register_count();
  {
    const Scope verify(tr, "core.verify", kServe, cell);
    {
      // The serving validator: every slot decided its own command.
      const Scope s(tr, "agreement.slot_values", kServe, cell);
      outcome.decisions.assign(commands.size(), -1);
      for (std::size_t slot = 0; slot < commands.size(); ++slot) {
        const std::vector<std::int64_t> values =
            stack->log.slot_values(static_cast<int>(slot), everyone);
        outcome.distinct_decisions = std::max(
            outcome.distinct_decisions, static_cast<int>(values.size()));
        bool ok = !values.empty();
        for (const std::int64_t v : values) ok = ok && v == commands[slot];
        if (!values.empty()) outcome.decisions[slot] = values.front();
        if (ok) ++outcome.decided_ok;
      }
      outcome.success =
          stack->log.all_decided(everyone) &&
          outcome.decided_ok == static_cast<std::int64_t>(commands.size());
    }
    const std::int64_t window = quiescence_window(stack->detector, everyone,
                                                  cfg.stabilization_window);
    const Scope s(tr, "fd.check_kantiomega", kServe, cell);
    outcome.detector_ok =
        fd::check_kantiomega(stack->detector, everyone, window).abstract_ok;
  }
  {
    const Scope s(tr, "sched.min_timeliness_bound", kServe, cell);
    outcome.witness_bound = sched::min_timeliness_bound(
        stack->sim.executed(), ProcSet::range(0, cfg.spec.k),
        ProcSet::range(0, cfg.spec.t + 1));
  }
  stack.reset();
  {
    sched::EnforcedGenerator fresh(
        std::make_unique<sched::UniformRandomGenerator>(n, seed),
        serve_constraints(cfg), sched::CrashPlan::none(n));
    const Scope s(tr, "sched.generate", kServe, cell);
    const sched::Schedule pulled = sched::generate(fresh, out.steps);
    if (pulled.size() != out.steps) throw std::logic_error("short generate");
  }
  return outcome;
}

void count_batch(const core::ServiceConfig& cfg,
                 const core::AdmissionPlan& plan, std::size_t index,
                 CellLayers& out) {
  const int n = cfg.spec.n;
  const std::vector<std::int64_t> commands = batch_commands(plan, index);
  ServeStack stack(cfg, commands, core::derive_cell_seed(cfg.seed, index),
                   true);
  CountingGenerator counted(stack.generator);
  const ProcSet everyone = ProcSet::universe(n);
  std::int64_t decided_at = -1;
  stack.sim.run_until(
      counted,
      cfg.max_steps_per_slot * static_cast<std::int64_t>(commands.size()),
      [&] {
        const bool done = stack.log.all_decided(everyone);
        if (done && decided_at < 0) decided_at = stack.sim.steps_taken();
        return done;
      });
  out.pulls = counted.pulls();
  out.fd_ops = stack.attributing->ops(AttributingMemory::kFd);
  out.agreement_ops = stack.attributing->ops(AttributingMemory::kAgreement);
  out.fd_iterations = detector_iterations(stack.detector, n);
  out.decided_at = decided_at;
}

// ---------------------------------------------------------------------
// Metric assembly.

class Metrics {
 public:
  explicit Metrics(std::string prefix) : prefix_(std::move(prefix)) {}
  void add(const std::string& name, double value, const char* unit) {
    members_.emplace_back(
        prefix_ + name,
        JsonValue::object({{"value", json_double(value)},
                           {"unit", JsonValue::of(unit)}}));
  }
  std::vector<JsonValue::Member> take() { return std::move(members_); }

 private:
  std::string prefix_;
  std::vector<JsonValue::Member> members_;
};

/// Self time (us) per span name within one group.
std::map<std::string, double> self_by_name(const std::vector<Span>& spans,
                                           const std::vector<double>& self,
                                           int group) {
  std::map<std::string, double> out;
  for (const Span& span : spans) {
    if (span.group == group) {
      out[span.name] += self[static_cast<std::size_t>(span.id)];
    }
  }
  return out;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Pool facts of a group's "runtime.map" sections: busy fraction (cell
/// time over threads x section wall) and tail (per section, from the
/// first worker going idle for good to the section end), summed.
void add_runtime_metrics(Metrics& m, const std::vector<Span>& spans,
                         int group, int threads, double dispatch_us) {
  std::map<std::int64_t, const Span*> sections;
  for (const Span& span : spans) {
    if (span.group == group && span.name == "runtime.map") {
      sections[span.id] = &span;
    }
  }
  std::map<std::int64_t, std::map<int, double>> last_end;  // section, thread
  double busy_us = 0.0;
  double wall_us = 0.0;
  for (const Span& span : spans) {
    if (sections.count(span.parent) == 0) continue;
    busy_us += span.duration_us();
    double& end = last_end[span.parent][span.thread];
    end = std::max(end, span.end_us);
  }
  double tail_us = 0.0;
  for (const auto& [id, section] : sections) {
    wall_us += section->duration_us();
    const auto& ends = last_end[id];
    if (ends.empty()) continue;
    double first_idle = section->end_us;
    for (const auto& [thread, end] : ends) first_idle = std::min(first_idle, end);
    // A thread that ran no cell was idle from the start.
    if (static_cast<int>(ends.size()) < threads) first_idle = section->start_us;
    tail_us += section->end_us - first_idle;
  }
  m.add("runtime.busy_frac", ratio(busy_us, threads * wall_us), "ratio");
  m.add("runtime.dispatch_us_per_cell", dispatch_us, "us");
  m.add("runtime.tail_ms", tail_us / 1e3, "ms");
}

/// Section wall per dispatched no-op cell: the pool's own cost.
double dispatch_us_per_cell(int threads, std::size_t cells) {
  core::RunnerOptions options;
  options.threads = threads;
  options.grain = 1;
  core::ExperimentRunner runner(options);
  const Clock::time_point t0 = Clock::now();
  const std::vector<int> out =
      runner.map<int>(cells, [](std::size_t i) { return static_cast<int>(i & 1); });
  const double us = seconds_between(t0, Clock::now()) * 1e6;
  return out.size() == cells ? us / static_cast<double>(cells) : 0.0;
}

/// Totals of the per-cell layer measurements.
CellLayers sum_layers(const std::vector<CellLayers>& cells,
                      std::vector<double>& decide_steps) {
  CellLayers sum;
  for (const CellLayers& c : cells) {
    sum.steps += c.steps;
    sum.pulls += c.pulls;
    sum.reads += c.reads;
    sum.writes += c.writes;
    sum.registers += c.registers;
    sum.heap_allocs += c.heap_allocs;
    sum.heap_bytes += c.heap_bytes;
    sum.fd_ops += c.fd_ops;
    sum.agreement_ops += c.agreement_ops;
    sum.fd_iterations += c.fd_iterations;
    sum.arena_allocs += c.arena_allocs;
    if (c.decided_at >= 0) {
      decide_steps.push_back(static_cast<double>(c.decided_at));
    }
  }
  return sum;
}

/// The simulator-stack layers shared by thm27 and serving cells;
/// returns the per-cell totals.
CellLayers add_stack_metrics(Metrics& m, const std::vector<CellLayers>& cells,
                             std::map<std::string, double>& self_us) {
  std::vector<double> decide_steps;
  const CellLayers sum = sum_layers(cells, decide_steps);
  const auto steps = static_cast<double>(sum.steps);
  const auto count = static_cast<double>(cells.size());
  // Generator pulls cost what the standalone generator costs per pull;
  // the rest of run_until's time is the simulator step itself.
  const double gen_ns = ratio(self_us["sched.generate"] * 1e3, steps);
  const double step_ns =
      ratio(self_us["shm.run_until"] * 1e3 -
                gen_ns * static_cast<double>(sum.pulls),
            steps);
  m.add("shm.ns_per_step", step_ns, "ns");
  m.add("shm.reads_per_step", ratio(static_cast<double>(sum.reads), steps),
        "1/step");
  m.add("shm.writes_per_step", ratio(static_cast<double>(sum.writes), steps),
        "1/step");
  m.add("shm.heap_allocs_per_step",
        ratio(static_cast<double>(sum.heap_allocs), steps), "1/step");
  m.add("shm.heap_bytes_per_step",
        ratio(static_cast<double>(sum.heap_bytes), steps), "B/step");
  m.add("shm.registers_per_cell",
        ratio(static_cast<double>(sum.registers), count), "count");
  m.add("fd.reg_ops_per_step", ratio(static_cast<double>(sum.fd_ops), steps),
        "1/step");
  m.add("fd.iterations_per_kstep",
        ratio(static_cast<double>(sum.fd_iterations) * 1e3, steps),
        "1/kstep");
  m.add("fd.check_us", ratio(self_us["fd.check_kantiomega"], count), "us");
  m.add("agreement.reg_ops_per_step",
        ratio(static_cast<double>(sum.agreement_ops), steps), "1/step");
  m.add("agreement.decide_steps_p50", median(decide_steps), "steps");
  m.add("sched.gen_ns_per_pull", gen_ns, "ns");
  m.add("core.setup_us_per_cell", ratio(self_us["core.setup"], count), "us");
  m.add("core.verify_us_per_cell", ratio(self_us["core.verify"], count),
        "us");
  return sum;
}

// ---------------------------------------------------------------------
// The three traced workloads.

struct Traced {
  std::vector<JsonValue::Member> metrics;
  Check check;
};

/// The library pass: the untraced iteration run in the traced program
/// (twice at full size, like run.py's untraced reference). Returns the
/// last iteration, with the library's outputs, and the median wall.
Iteration library_pass(Iteration (*iterate)(const Options&, bool),
                       const Options& opt, Tracer& tr, int group,
                       Check& check, double& wall_s) {
  const int iterations = opt.size == Size::kFull ? 2 : 1;
  std::vector<double> walls;
  Iteration last;
  for (int i = 0; i < iterations; ++i) {
    const Scope s(tr, "bench.library", group, -1);
    last = iterate(opt, /*keep_outputs=*/i + 1 == iterations);
    walls.push_back(last.wall_s);
    check.merge(last.check);
  }
  wall_s = median(walls);
  return last;
}

void expect_same_report(Check& check, const core::RunReport& a,
                        const core::RunReport& b, const std::string& what) {
  check.expect(a.steps_executed == b.steps_executed &&
                   a.schedule_hash == b.schedule_hash &&
                   a.witness_bound == b.witness_bound &&
                   a.decisions == b.decisions,
               what + ": steps/schedule_hash/witness_bound/decisions differ");
}

Traced trace_thm27(const Options& opt, Tracer& tr) {
  Traced out;
  double library_wall_s = 0.0;
  const Iteration lib =
      library_pass(thm27_iteration, opt, tr, kThm27, out.check, library_wall_s);
  const std::size_t total = lib.cells.size();

  // Runtime pass: the same cells, one span each, section by section.
  core::RunnerOptions options;
  options.threads = opt.threads;
  core::ExperimentRunner runner(options);
  std::vector<core::RunReport> pooled(total);
  for (std::size_t sec = 0; sec < lib.section_starts.size(); ++sec) {
    const std::size_t begin = lib.section_starts[sec];
    const std::size_t end = sec + 1 < lib.section_starts.size()
                                ? lib.section_starts[sec + 1]
                                : total;
    const Scope section(tr, "runtime.map", kThm27, -1);
    const std::vector<core::RunReport> part = runner.map<core::RunReport>(
        end - begin, [&](std::size_t i) {
          const core::SweepCell& cell = lib.cells[begin + i];
          const Scope s(tr, "core.run_agreement", kThm27,
                        static_cast<std::int64_t>(cell.index), section.id());
          util::ArenaAllocator& arena = runner.worker_arena();
          arena.reset();
          return core::run_agreement(cell.config, arena);
        });
    std::copy(part.begin(), part.end(),
              pooled.begin() + static_cast<std::ptrdiff_t>(begin));
  }

  // Layers pass: every cell rebuilt from public layer calls.
  std::vector<CellLayers> layers(total);
  std::vector<core::RunReport> rebuilt;
  std::vector<std::uint64_t> counted_hash;
  {
    const Scope compose(tr, "bench.compose", kThm27, -1);
    rebuilt = runner.map<core::RunReport>(total, [&](std::size_t c) {
      return rebuild_thm27_cell(lib.cells[c].config,
                                static_cast<std::int64_t>(c), compose.id(),
                                tr, runner.worker_arena(), layers[c]);
    });
    counted_hash = runner.map<std::uint64_t>(total, [&](std::size_t c) {
      return count_thm27_cell(lib.cells[c].config, layers[c]);
    });
  }

  for (std::size_t c = 0; c < total; ++c) {
    const std::string what = "thm27 cell " + std::to_string(c);
    const core::RunReport& ref = lib.reports[c];
    expect_same_report(out.check, ref, pooled[c], what + " (pool)");
    expect_same_report(out.check, ref, rebuilt[c], what + " (rebuilt)");
    out.check.expect(
        rebuilt[c].detector.abstract_ok == ref.detector.abstract_ok &&
            rebuilt[c].success == ref.success &&
            rebuilt[c].allocs_per_op == ref.allocs_per_op,
        what + " (rebuilt): detector verdict/success/arena allocs differ");
    out.check.expect(counted_hash[c] == ref.schedule_hash &&
                         layers[c].pulls >= layers[c].steps,
                     what + " (attributed memory): execution differs");
  }

  const std::vector<Span> spans = tr.spans();
  const std::vector<double> self = self_times_us(spans);
  auto self_us = self_by_name(spans, self, kThm27);
  const auto count = static_cast<double>(total);
  Metrics m("thm27.");
  const CellLayers sum = add_stack_metrics(m, layers, self_us);
  const auto steps = static_cast<double>(sum.steps);
  m.add("agreement.validate_us",
        ratio(self_us["agreement.validate_agreement"], count), "us");
  m.add("sched.pack_ns_per_step", ratio(self_us["sched.pack"] * 1e3, steps),
        "ns");
  m.add("sched.bound_us_per_cell", ratio(self_us["sched.bound_for"], count),
        "us");
  m.add("sched.hash_ns_per_step",
        ratio(self_us["sched.schedule_hash"] * 1e3, steps), "ns");
  m.add("sched.arena_allocs_per_cell",
        ratio(static_cast<double>(sum.arena_allocs), count), "count");
  m.add("core.report_ms", lib.report_s * 1e3, "ms");
  add_runtime_metrics(m, spans, kThm27, opt.threads,
                      dispatch_us_per_cell(opt.threads, total));
  m.add("trace.wall_s", library_wall_s, "s");
  out.metrics = m.take();
  return out;
}

Traced trace_serve(const Options& opt, Tracer& tr) {
  Traced out;
  double library_wall_s = 0.0;
  const Iteration lib =
      library_pass(serve_iteration, opt, tr, kServe, out.check, library_wall_s);
  const core::ServiceConfig cfg = serve_config(opt.seed, opt.size);
  const core::ServiceHarness harness(cfg);
  core::AdmissionPlan plan;
  {
    const Scope s(tr, "core.plan", kServe, -1);
    plan = harness.plan();
  }
  const std::size_t total = plan.batches.size();
  out.check.expect(total == lib.reports.size(),
                   "serving plan size differs from the library run");

  // Runtime pass: every batch through run_batch, dispatched one index
  // per pop like run_closed_loop.
  core::RunnerOptions options;
  options.threads = opt.threads;
  options.grain = 1;
  core::ExperimentRunner runner(options);
  std::vector<core::BatchOutcome> pooled;
  {
    const Scope section(tr, "runtime.map", kServe, -1);
    pooled = runner.map<core::BatchOutcome>(total, [&](std::size_t b) {
      const Scope s(tr, "core.run_batch", kServe,
                    static_cast<std::int64_t>(b), section.id());
      return harness.run_batch(plan, b);
    });
  }
  std::size_t request = 0;
  for (std::size_t b = 0; b < total && b < lib.reports.size(); ++b) {
    const core::RunReport& ref = lib.reports[b];
    const core::BatchOutcome& got = pooled[b];
    bool same = ref.steps_executed == got.steps &&
                ref.witness_bound == got.witness_bound &&
                ref.detector.abstract_ok == got.detector_ok;
    for (const std::int64_t decision : got.decisions) {
      same = same && request < lib.decisions.size() &&
             lib.decisions[request].second == decision;
      ++request;
    }
    out.check.expect(same, "serving batch " + std::to_string(b) +
                               ": run_batch differs from run_closed_loop");
  }

  // Layers pass: an evenly spaced sample of batches rebuilt.
  const std::size_t sample = std::min(total, kServeSample);
  std::vector<std::size_t> picks;
  for (std::size_t s = 0; s < sample; ++s) picks.push_back(s * total / sample);
  std::vector<CellLayers> layers(sample);
  std::vector<core::BatchOutcome> rebuilt;
  {
    const Scope compose(tr, "bench.compose", kServe, -1);
    rebuilt = runner.map<core::BatchOutcome>(sample, [&](std::size_t s) {
      return rebuild_batch(cfg, plan, picks[s], compose.id(), tr, layers[s]);
    });
    runner.map<int>(sample, [&](std::size_t s) {
      count_batch(cfg, plan, picks[s], layers[s]);
      return 0;
    });
  }
  for (std::size_t s = 0; s < sample; ++s) {
    const core::BatchOutcome& ref = pooled[picks[s]];
    const core::BatchOutcome& got = rebuilt[s];
    out.check.expect(
        ref.steps == got.steps && ref.witness_bound == got.witness_bound &&
            ref.detector_ok == got.detector_ok &&
            ref.decisions == got.decisions &&
            ref.decided_ok == got.decided_ok && ref.success == got.success &&
            layers[s].decided_at == got.steps,
        "serving batch " + std::to_string(picks[s]) +
            " (rebuilt): steps/witness_bound/detector/decisions differ");
  }

  const std::vector<Span> spans = tr.spans();
  const std::vector<double> self = self_times_us(spans);
  auto self_us = self_by_name(spans, self, kServe);
  const auto count = static_cast<double>(sample);
  Metrics m("serve.");
  add_stack_metrics(m, layers, self_us);
  m.add("agreement.validate_us",
        ratio(self_us["agreement.slot_values"], count), "us");
  m.add("sched.bound_us_per_cell",
        ratio(self_us["sched.min_timeliness_bound"], count), "us");
  m.add("core.plan_ms", self_us["core.plan"] / 1e3, "ms");
  m.add("core.report_ms", lib.report_s * 1e3, "ms");
  add_runtime_metrics(m, spans, kServe, opt.threads,
                      dispatch_us_per_cell(opt.threads, total));
  m.add("trace.wall_s", library_wall_s, "s");
  out.metrics = m.take();
  return out;
}

Traced trace_census(const Options& opt, Tracer& tr) {
  Traced out;
  double library_wall_s = 0.0;
  const Iteration lib =
      library_pass(census_iteration, opt, tr, kCensus, out.check, library_wall_s);
  const std::vector<CensusCase> cases = census_cases(opt.seed, opt.size);

  core::RunnerOptions options;
  options.threads = opt.threads;
  core::ExperimentRunner runner(options);
  std::int64_t steps = 0;
  std::int64_t count_pairs = 0;
  std::int64_t best_pairs = 0;
  std::int64_t chunks = 0;
  std::int64_t arena_allocs = 0;
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const core::PairScanConfig& cfg = cases[c].config;
    const auto cell = static_cast<std::int64_t>(c);
    const Scope case_span(tr, "core.census_case", kCensus, cell);
    sched::Schedule schedule(cfg.n);
    {
      const auto gen = census_generator(cfg);
      const Scope s(tr, "sched.generate", kCensus, cell);
      schedule = sched::generate(*gen, cfg.len);
    }
    std::optional<sched::PackedSchedule> packed;
    {
      const Scope s(tr, "sched.pack", kCensus, cell);
      packed.emplace(schedule);
    }
    steps += schedule.size();

    // The census, chunked through the pool like ranked_pair_scan.
    struct Chunk {
      sched::RankedPairScan::MemberCount count;
      std::int64_t arena_allocs = 0;
    };
    const std::int64_t p_count = SubsetRanker(cfg.n, cfg.i).count();
    const auto n_chunks =
        static_cast<std::size_t>((p_count + kCensusChunk - 1) / kCensusChunk);
    std::vector<Chunk> parts;
    {
      const Scope section(tr, "runtime.map", kCensus, cell);
      parts = runner.map<Chunk>(n_chunks, [&](std::size_t ch) {
        const Scope s(tr, "sched.count_members", kCensus, cell, section.id());
        const std::int64_t begin = static_cast<std::int64_t>(ch) * kCensusChunk;
        util::ArenaAllocator& arena = runner.worker_arena();
        const std::int64_t before = arena.allocs();
        const sched::RankedPairScan scan(*packed, cfg.i, cfg.j, &arena);
        Chunk chunk;
        chunk.count = scan.count_members(
            cfg.bound_cap, begin, std::min(begin + kCensusChunk, p_count));
        chunk.arena_allocs = arena.allocs() - before;
        return chunk;
      });
    }
    core::PairScanResult mine;
    mine.first.bound = 0;  // TimelyPair leaves its bound uninitialized
    for (const Chunk& part : parts) {
      mine.pairs += part.count.pairs;
      mine.members += part.count.members;
      if (!mine.found && part.count.first) {
        mine.found = true;
        mine.first = *part.count.first;
      }
      arena_allocs += part.arena_allocs;
    }
    chunks += static_cast<std::int64_t>(parts.size());
    count_pairs += mine.pairs;
    const core::PairScanResult& ref = lib.counts[c];
    out.check.expect(
        mine.pairs == ref.pairs && mine.members == ref.members &&
            mine.found == ref.found &&
            (!mine.found ||
             (mine.first.timely_set == ref.first.timely_set &&
              mine.first.observed_set == ref.first.observed_set &&
              mine.first.bound == ref.first.bound)),
        cases[c].name + " (rebuilt): pairs/members/first member differ");

    // The best-pair scan, one span per chunk.
    std::vector<sched::TimelyPair> bests;
    {
      const Scope section(tr, "runtime.map", kCensus, cell);
      bests = runner.map<sched::TimelyPair>(n_chunks, [&](std::size_t ch) {
        const Scope s(tr, "sched.best_pair", kCensus, cell, section.id());
        const std::int64_t begin = static_cast<std::int64_t>(ch) * kCensusChunk;
        const sched::RankedPairScan scan(*packed, cfg.i, cases[c].best_j,
                                         &runner.worker_arena());
        return scan.best_pair(begin, std::min(begin + kCensusChunk, p_count));
      });
    }
    sched::TimelyPair best = bests.front();
    for (const sched::TimelyPair& part : bests) {
      if (part.bound < best.bound) best = part;
    }
    chunks += static_cast<std::int64_t>(bests.size());
    best_pairs += p_count * SubsetRanker(cfg.n, cases[c].best_j).count();
    const sched::TimelyPair& ref_best = lib.bests[c];
    out.check.expect(best.timely_set == ref_best.timely_set &&
                         best.observed_set == ref_best.observed_set &&
                         best.bound == ref_best.bound,
                     cases[c].name + " (rebuilt): best pair differs");
  }

  const std::vector<Span> spans = tr.spans();
  const std::vector<double> self = self_times_us(spans);
  auto self_us = self_by_name(spans, self, kCensus);
  Metrics m("census.");
  m.add("sched.census_gen_ms", self_us["sched.generate"] / 1e3, "ms");
  m.add("sched.pack_ns_per_step",
        ratio(self_us["sched.pack"] * 1e3, static_cast<double>(steps)), "ns");
  m.add("sched.scan_ns_per_pair",
        ratio(self_us["sched.count_members"] * 1e3,
              static_cast<double>(count_pairs)),
        "ns");
  m.add("sched.best_ns_per_pair",
        ratio(self_us["sched.best_pair"] * 1e3,
              static_cast<double>(best_pairs)),
        "ns");
  m.add("sched.arena_allocs_per_cell",
        ratio(static_cast<double>(arena_allocs), static_cast<double>(chunks)),
        "count");
  add_runtime_metrics(
      m, spans, kCensus, opt.threads,
      dispatch_us_per_cell(opt.threads, static_cast<std::size_t>(chunks)));
  m.add("trace.wall_s", library_wall_s, "s");
  out.metrics = m.take();
  return out;
}

}  // namespace

JsonValue run_traced(const Options& opt) {
  if (!alloc_hook_installed()) {
    throw std::runtime_error("the traced run needs perfbench_traced");
  }
  Tracer tracer;
  std::vector<JsonValue::Member> metrics;
  Check check;
  for (Traced part : {trace_thm27(opt, tracer), trace_serve(opt, tracer),
                      trace_census(opt, tracer)}) {
    for (auto& member : part.metrics) metrics.push_back(std::move(member));
    check.merge(part.check);
  }
  if (!opt.trace_out.empty()) {
    tracer.write_chrome(opt.trace_out, workload_names());
  }
  std::vector<JsonValue> notes;
  for (const std::string& note : check.notes) {
    notes.push_back(JsonValue::of(note));
  }
  return JsonValue::object({
      {"seed", JsonValue::of(static_cast<std::int64_t>(opt.seed))},
      {"size", JsonValue::of(opt.size == Size::kFull ? "full" : "tiny")},
      {"threads", JsonValue::of(static_cast<std::int64_t>(opt.threads))},
      {"spans", JsonValue::of(tracer.spans().size())},
      {"trace_file", JsonValue::of(opt.trace_out)},
      {"attempted", JsonValue::of(check.attempted)},
      {"failed", JsonValue::of(check.failed)},
      {"notes", JsonValue::array(std::move(notes))},
      {"metrics", JsonValue::object(std::move(metrics))},
  });
}

}  // namespace perfbench
