// Figure 1 walk-through: why *set* timeliness is strictly more
// expressive than per-process timeliness.
//
// Builds the paper's schedule S = [(p1 q)^i (p2 q)^i], prints a prefix,
// and measures minimal timeliness bounds per growing prefix (one
// incremental sched::BoundTracker pass per candidate, via
// core::figure1_rows): {p1} and {p2} diverge (each is starved for i
// consecutive (x q) pairs in phase i), while the virtual process
// {p1, p2} stays timely with bound 2 — the exact phenomenon of the
// paper's Figure 1.
#include <iostream>

#include "src/core/experiments.h"
#include "src/sched/analyzer.h"
#include "src/sched/generators.h"
#include "src/util/table.h"

int main() {
  using namespace setlib;

  const Pid p1 = 0, p2 = 1, q = 2;
  sched::Figure1Generator gen(3, p1, p2, q);
  const auto schedule =
      sched::generate(gen, sched::Figure1Generator::steps_through_phase(20));

  std::cout << "S = [(p1 q)^i (p2 q)^i] for i = 1, 2, 3, ...\n\nprefix: ";
  const char* names[] = {"p1", "p2", "q "};
  for (std::int64_t idx = 0; idx < 24; ++idx) {
    std::cout << names[schedule[idx]] << ' ';
  }
  std::cout << "...\n\n";

  core::ExperimentRunner serial;  // one thread, unsharded
  const auto rows = core::figure1_rows(20, serial);
  TextTable table({"phase i", "prefix", "{p1} vs {q}", "{p2} vs {q}",
                   "{p1,p2} vs {q}"});
  for (const auto& row : rows) {
    if (row.phase % 2 == 0 || row.phase <= 3) {
      table.row()
          .cell(row.phase)
          .cell(row.prefix_len)
          .cell(row.bound_p1)
          .cell(row.bound_p2)
          .cell(row.bound_union);
    }
  }
  table.print(std::cout);

  std::cout << "\nNeither p1 nor p2 alone is timely w.r.t. q (their "
               "bounds grow without\nlimit), but viewed as one virtual "
               "process the set {p1, p2} is timely\nwith bound 2: "
               "every window containing 2 steps of q contains a step\n"
               "of p1 or p2. That is Definition 1 of the paper.\n";
  return 0;
}
