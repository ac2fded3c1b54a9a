// The three workloads and the traced run's layer report.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common.hpp"

namespace perfbench {

Outcome run_corpus_eval(const Options& o);
Outcome run_cold_identify(const Options& o);
Outcome run_hot_mixed(const Options& o);

/// The daemon child: `perfbench --serve SOCKET CACHE_MB`. Serves until a
/// `shutdown` request arrives. Returns the process exit code.
int serve_main(const std::string& socket_path, const std::string& cache_mb);

/// Per-layer figures of one traced run. Every workload measures the
/// layers in kResultLayers, which go into the result line; the rest
/// (layers only some workloads enter) are printed as report lines,
/// with "n/a" where this workload does not enter the layer.
struct LayerReport {
  std::vector<std::pair<std::string, std::pair<double, std::string>>> rows;
  double unattributed = 0.0;  // share of the workload's time
  double overhead = 0.0;      // traced vs untraced, as a fraction

  void add(const std::string& name, double value, const std::string& unit) {
    rows.push_back({name, {value, unit}});
  }
  /// Print the whole table, the unattributed share against the 10%
  /// limit and the tracing overhead; copy the result-line metrics.
  void print_and_export(Outcome& out, const char* workload, const char* base) const;
};

}  // namespace perfbench
