#include "trace.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <stdexcept>

namespace perfbench {

namespace {

int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

/// Spans open on this thread, innermost last.
thread_local std::vector<Span> t_open;

}  // namespace

Tracer::Tracer() : origin_(Clock::now()) {}

std::int64_t Tracer::open(std::string name, int group, std::int64_t cell,
                          std::int64_t parent) {
  Span span;
  {
    const util::MutexLock lock(mu_);
    span.id = next_id_++;
  }
  span.parent = parent >= 0 ? parent
                            : (t_open.empty() ? -1 : t_open.back().id);
  span.name = std::move(name);
  span.group = group;
  span.cell = cell;
  span.thread = thread_index();
  span.start_us = seconds_between(origin_, Clock::now()) * 1e6;
  t_open.push_back(std::move(span));
  return t_open.back().id;
}

void Tracer::close() noexcept {
  const double end_us = seconds_between(origin_, Clock::now()) * 1e6;
  if (t_open.empty()) return;
  Span span = std::move(t_open.back());
  t_open.pop_back();
  span.end_us = end_us;
  const util::MutexLock lock(mu_);
  try {
    closed_.push_back(std::move(span));
  } catch (...) {
    // Out of memory while recording: the span is lost, the run goes on.
  }
}

std::vector<Span> Tracer::spans() const {
  const util::MutexLock lock(mu_);
  return closed_;
}

void Tracer::write_chrome(const std::string& path,
                          const std::vector<std::string>& group_names) const {
  std::vector<JsonValue> events;
  for (std::size_t g = 0; g < group_names.size(); ++g) {
    events.push_back(JsonValue::object({
        {"name", JsonValue::of("process_name")},
        {"ph", JsonValue::of("M")},
        {"pid", JsonValue::of(g)},
        {"args",
         JsonValue::object({{"name", JsonValue::of(group_names[g])}})},
    }));
  }
  for (const Span& span : spans()) {
    const std::string layer = span.name.substr(0, span.name.find('.'));
    events.push_back(JsonValue::object({
        {"name", JsonValue::of(span.name)},
        {"cat", JsonValue::of(layer)},
        {"ph", JsonValue::of("X")},
        {"ts", json_double(span.start_us)},
        {"dur", json_double(span.duration_us())},
        {"pid", JsonValue::of(static_cast<std::int64_t>(span.group))},
        {"tid", JsonValue::of(static_cast<std::int64_t>(span.thread))},
        {"args", JsonValue::object({
                     {"span", JsonValue::of(span.id)},
                     {"parent", JsonValue::of(span.parent)},
                     {"cell", JsonValue::of(span.cell)},
                 })},
    }));
  }
  const JsonValue doc = JsonValue::object({
      {"traceEvents", JsonValue::array(std::move(events))},
      {"displayTimeUnit", JsonValue::of("ms")},
  });
  std::ofstream out(path);
  out << doc.dump() << "\n";
  if (!out) throw std::runtime_error("cannot write trace file " + path);
}

std::vector<double> self_times_us(const std::vector<Span>& spans) {
  std::int64_t max_id = -1;
  for (const Span& span : spans) max_id = std::max(max_id, span.id);
  std::vector<double> self(static_cast<std::size_t>(max_id + 1), 0.0);
  std::vector<std::vector<const Span*>> children(self.size());
  std::vector<const Span*> by_id(self.size(), nullptr);
  for (const Span& span : spans) {
    by_id[static_cast<std::size_t>(span.id)] = &span;
    if (span.parent >= 0 && span.parent <= max_id) {
      children[static_cast<std::size_t>(span.parent)].push_back(&span);
    }
  }
  for (std::size_t id = 0; id < self.size(); ++id) {
    const Span* parent = by_id[id];
    if (parent == nullptr) continue;
    // Union of the children's intervals, clipped to the parent's.
    std::vector<std::pair<double, double>> cover;
    for (const Span* child : children[id]) {
      const double lo = std::max(child->start_us, parent->start_us);
      const double hi = std::min(child->end_us, parent->end_us);
      if (lo < hi) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    double reach = parent->start_us;
    for (const auto& [lo, hi] : cover) {
      const double from = std::max(lo, reach);
      if (hi > from) {
        covered += hi - from;
        reach = hi;
      }
    }
    self[id] = parent->duration_us() - covered;
  }
  return self;
}

}  // namespace perfbench
