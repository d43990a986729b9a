// perfbench: the repository benchmark's program.
//
//   perfbench --workload thm27-sweep|serve-closed|census [--seed N]
//             [--seconds S] [--size full|tiny] [--iterations I]
//             [--trace-out PATH]
//
// perfbench (no allocation hook) runs the untraced workload and prints
// its end-to-end metrics; perfbench_traced runs the traced breakdown of
// all three workloads. Both print human-readable lines, then one line
// "PERFBENCH_RESULT <json>" that run.py consumes.
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "alloc.h"
#include "bench.h"

namespace {

using perfbench::Options;
using perfbench::Size;
using setlib::JsonValue;

Options parse(int argc, char** argv) {
  Options opt;
  const unsigned hw = std::thread::hardware_concurrency();
  opt.threads = static_cast<int>(hw == 0 ? 1 : (hw < 4 ? hw : 4));
  for (int a = 1; a < argc; ++a) {
    std::string key = argv[a];
    std::string value;
    const std::size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (a + 1 < argc) {
      value = argv[++a];
    } else {
      throw std::invalid_argument("missing value for " + key);
    }
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::stoull(value);
    } else if (key == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (key == "--iterations") {
      opt.iterations = std::stoi(value);
    } else if (key == "--size") {
      if (value != "full" && value != "tiny") {
        throw std::invalid_argument("--size must be full or tiny");
      }
      opt.size = value == "full" ? Size::kFull : Size::kTiny;
    } else if (key == "--trace-out") {
      opt.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + key);
    }
  }
  bool known = false;
  for (const std::string& name : perfbench::workload_names()) {
    known = known || name == opt.workload;
  }
  if (!known) throw std::invalid_argument("unknown --workload " + opt.workload);
  if (opt.seconds < 0) throw std::invalid_argument("--seconds must be >= 0");
  return opt;
}

void print_metrics(const JsonValue& metrics, const std::string& indent) {
  for (const auto& [name, m] : metrics.members()) {
    std::cout << indent << name << " = " << m.at("value").dump() << " "
              << m.at("unit").as_string() << "\n";
  }
}

void print_human(const Options& opt, bool traced, const JsonValue& doc) {
  if (!traced) {
    std::cout << "perfbench " << opt.workload << " seed=" << opt.seed
              << " threads=" << opt.threads
              << " size=" << doc.at("size").as_string()
              << " iterations=" << doc.at("iterations").dump() << "\n";
    print_metrics(doc.at("metrics"), "  ");
    std::cout << "  cell_ms_tail is p" << doc.at("tail_percentile").dump()
              << " with " << doc.at("tail_samples_beyond").dump()
              << " of " << doc.at("cell_samples").dump()
              << " cell samples beyond it; per-cell ms at";
    for (const auto& [q, ms] : doc.at("cell_ms_percentiles").members()) {
      std::cout << " " << q << "=" << ms.dump();
    }
    std::cout << "\n";
  } else {
    std::cout << "perfbench traced seed=" << opt.seed
              << " threads=" << opt.threads << "\n";
    print_metrics(doc.at("metrics"), "  ");
  }
  std::cout << "  checks: " << doc.at("failed").dump() << " failed of "
            << doc.at("attempted").dump() << " attempted\n";
  for (const JsonValue& note : doc.at("notes").items()) {
    std::cout << "  FAILED: " << note.as_string() << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parse(argc, argv);
    const bool traced = perfbench::alloc_hook_installed();
    const JsonValue doc = traced ? perfbench::run_traced(opt)
                                 : perfbench::run_untraced(opt);
    print_human(opt, traced, doc);
    std::cout << "PERFBENCH_RESULT " << doc.dump() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
