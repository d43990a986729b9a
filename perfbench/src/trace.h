// In-memory span recorder of the traced run, written out at the end as
// Chrome trace-event JSON (opens in Perfetto or chrome://tracing).
//
// A span is one call into a layer's public function, recorded by the
// benchmark around that call: name ("<layer>.<call>"), start, end,
// thread, the span that caused it (parent) and the cell it belongs to.
// Spans of one cell share the cell id. A thread-local stack supplies
// the parent of nested spans; spans opened on pool workers name their
// parent explicitly.
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "src/util/sync.h"
#include "src/util/thread_annotations.h"

namespace perfbench {

struct Span {
  std::int64_t id = 0;
  std::int64_t parent = -1;  // -1: a root span
  std::string name;
  int group = 0;             // trace "process": the workload
  std::int64_t cell = -1;    // -1: not tied to one cell
  int thread = 0;            // small per-thread index
  double start_us = 0.0;     // since the tracer's origin
  double end_us = 0.0;

  double duration_us() const { return end_us - start_us; }
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span on the calling thread; returns its id. `parent` < 0
  /// takes the innermost span open on this thread (if any).
  std::int64_t open(std::string name, int group, std::int64_t cell,
                    std::int64_t parent = -1);
  /// Closes the innermost span open on the calling thread (no-op when
  /// none is open).
  void close() noexcept;

  /// Every closed span, in closing order (call after workers joined).
  std::vector<Span> spans() const;

  /// Writes the spans as Chrome trace-event JSON; `group_names` labels
  /// the trace processes.
  void write_chrome(const std::string& path,
                    const std::vector<std::string>& group_names) const;

 private:
  Clock::time_point origin_;
  mutable util::Mutex mu_;
  std::int64_t next_id_ SETLIB_GUARDED_BY(mu_) = 0;
  std::vector<Span> closed_ SETLIB_GUARDED_BY(mu_);
};

/// RAII span: open on construction, close on destruction.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name, int group, std::int64_t cell,
        std::int64_t parent = -1)
      : tracer_(tracer),
        id_(tracer.open(std::move(name), group, cell, parent)) {}
  ~Scope() { tracer_.close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::int64_t id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

/// Self time of every span: its duration minus the part of its
/// interval that its children cover (children on any thread), by id.
std::vector<double> self_times_us(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H
