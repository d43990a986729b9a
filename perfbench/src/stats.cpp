#include "stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

namespace perfbench {

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

double tail_percentile(std::size_t count) {
  constexpr double kLadder[] = {99.0, 95.0, 90.0, 75.0};
  for (const double q : kLadder) {
    if ((1.0 - q / 100.0) * static_cast<double>(count) >= 10.0) return q;
  }
  return 50.0;
}

std::size_t samples_beyond(const std::vector<double>& samples, double q) {
  const double cut = percentile(samples, q);
  return static_cast<std::size_t>(
      std::count_if(samples.begin(), samples.end(),
                    [cut](double x) { return x > cut; }));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
