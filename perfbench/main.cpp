// perfbench: the repository's benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads: corpus-eval, cold-identify, hot-mixed (see README.md).
// Prints a run record, report lines, and as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones; with --trace 1 the per-layer
// ones from the traced run. Exit codes: 0 done, 2 bad arguments,
// 3 invalid run (dropped spans, a load generator that fell behind).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "common.hpp"
#include "obs/trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

// The layer metrics of the issue's table, in print order. Those every
// workload measures are also result-line metrics.
constexpr const char* kAllLayers[] = {
    "elf.load_us",          "x86.decode_ns_per_insn",
    "x86.substrate_ns_per_insn", "x86.insns",
    "funseeker.derive_us",  "funseeker.analyze_us",
    "synth.lookup_us",      "baselines.ida_us",
    "baselines.ghidra_us",  "baselines.fetch_us",
    "baselines.fetch_probes", "eval.score_us",
    "eval.run_s",           "eval.worker_busy_s",   "eval.worker_idle_s",
    "service.b64_decode_us", "service.hash_us",
    "service.make_image_ms", "service.handle_hit_us",
    "service.handle_disasm_us", "service.handle_cold_ms",
    "service.outside_handler_hit_p50_us", "service.outside_handler_hit_p99_us",
    "service.ping_rtt_us",  "cache.image_bytes_per_entry",
    "cache.image_evictions", "cache.result_hits",
    "cache.result_misses",  "server.queue_depth_max",
};
// The result-line layer metrics and their units (the report lines say
// per what: a binary in corpus-eval, an upload in the served workloads).
constexpr std::pair<const char*, const char*> kResultLayers[] = {
    {"elf.load_us", "us"},         {"x86.decode_ns_per_insn", "ns/insn"},
    {"x86.substrate_ns_per_insn", "ns/insn"}, {"x86.insns", "count"},
    {"funseeker.derive_us", "us"}, {"funseeker.analyze_us", "us"},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload corpus-eval|cold-identify|hot-mixed "
               "--seed N --seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

void LayerReport::print_and_export(Outcome& out, const char* workload,
                                   const char* base) const {
  for (const char* name : kAllLayers) {
    const auto it = std::find_if(rows.begin(), rows.end(),
                                 [&](const auto& r) { return r.first == name; });
    if (it == rows.end()) {
      std::printf("layer %-36s n/a (%s does not enter this layer)\n", name, workload);
      continue;
    }
    std::printf("layer %-36s %14.3f %s\n", name, it->second.first, it->second.second.c_str());
  }
  std::printf("trace: unattributed %.1f%% of %s (limit 10%%: %s); tracing overhead %+.1f%%\n",
              unattributed * 100.0, base, unattributed <= 0.10 ? "within" : "OVER",
              overhead * 100.0);
  for (const auto& [name, unit] : kResultLayers) {
    const auto it = std::find_if(rows.begin(), rows.end(),
                                 [&](const auto& r) { return r.first == name; });
    out.check(it != rows.end(), std::string("layer metric missing: ") + name);
    if (it != rows.end()) out.metric(name, it->second.first, unit);
  }
  out.metric("trace.unattributed_pct", unattributed * 100.0, "%");
  out.metric("trace.overhead_pct", overhead * 100.0, "%");
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc == 4 && std::strcmp(argv[1], "--serve") == 0) return serve_main(argv[2], argv[3]);

  Options o;
  o.self_path = argv[0];
  bool have_seed = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(o.seconds > 0.0)) return usage();
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage();
      o.trace = value == "1";
      have_trace = true;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || !have_seed || !have_trace) return usage();

  Outcome (*run)(const Options&) = nullptr;
  if (o.workload == "corpus-eval") run = run_corpus_eval;
  if (o.workload == "cold-identify") run = run_cold_identify;
  if (o.workload == "hot-mixed") run = run_hot_mixed;
  if (run == nullptr) return usage();

  // Before any thread records a span: every ring gets the full budget.
  fsr::obs::set_trace_buffer_capacity(kSpanRing);
  print_record(o);
  const Outcome out = run(o);
  print_result(out);
  return 0;
}
