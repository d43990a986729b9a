// Small statistics and process helpers of the benchmark.
#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <utility>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (q in [0, 100]); 0 on an empty sample.
double percentile(std::vector<double> samples, double q);
inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

/// The highest percentile of {50, 75, 90, 95, 99} that leaves at least
/// ten of `count` samples beyond it (50 when none does). The ladder
/// stops at p99: beyond it, per-batch times of the serving workload on
/// a shared machine track host preemption bursts, not the program, and
/// no run-to-run bound holds (p99.9 ranged 0.8-9.4 ms over five runs
/// where p99 ranged 0.49-0.68 ms).
double tail_percentile(std::size_t count);

/// Samples strictly above the nearest-rank percentile q.
std::size_t samples_beyond(const std::vector<double>& samples, double q);

/// Peak resident set size of this process, in MB (getrusage).
double peak_rss_mb();

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H
