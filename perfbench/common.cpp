#include "common.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cpuid.h>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>

#include "obs/trace.hpp"
#include "synth/corpus.hpp"

namespace perfbench {

void Outcome::check(bool ok, const std::string& what) {
  if (ok) return;
  if (violations.size() < 8) violations.push_back(what);
  ++violations_total;
}

std::vector<fsr::synth::BinaryConfig> window_configs(std::uint64_t seed) {
  // corpus_configs enumerates every suite program under each compiler
  // in 24 arch/kind/opt configurations; the k-th configuration of
  // compiler c draws its program from block 24c + k of the window.
  std::vector<fsr::synth::BinaryConfig> configs = fsr::synth::corpus_configs(1.0);
  const int base = static_cast<int>(seed % 100000) * kWindowBlocks;
  std::map<std::pair<int, int>, int> seen;  // (compiler, suite program) -> configs so far
  for (fsr::synth::BinaryConfig& c : configs) {
    const int key = static_cast<int>(c.suite) * 1000 + c.program_index;
    const int k = seen[{static_cast<int>(c.compiler), key}]++;
    c.program_index += 40 * (base + static_cast<int>(c.compiler) * 24 + k);
  }
  return configs;
}

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  if (idx >= v.size()) idx = v.size() - 1;
  return v[idx];
}

double median(std::vector<double> v) { return percentile(v, 0.5); }

double sliced_rate(std::vector<double> done_s, double wall) {
  constexpr std::size_t kSlices = 10;
  if (done_s.size() < 2 * kSlices) return wall > 0 ? static_cast<double>(done_s.size()) / wall : 0.0;
  std::sort(done_s.begin(), done_s.end());
  std::vector<double> rates;
  double from = 0.0;
  std::size_t prev = 0;
  for (std::size_t k = 1; k <= kSlices; ++k) {
    const std::size_t idx = done_s.size() * k / kSlices;
    const double to = done_s[idx - 1];
    if (to > from) rates.push_back(static_cast<double>(idx - prev) / (to - from));
    from = to;
    prev = idx;
  }
  return median(rates);
}

double chunked_percentile(const std::vector<std::vector<double>>& series, std::size_t chunk,
                          double q) {
  std::vector<double> per_chunk, all;
  for (const std::vector<double>& v : series) {
    all.insert(all.end(), v.begin(), v.end());
    for (std::size_t at = 0; at + chunk / 2 <= v.size() && at < v.size(); at += chunk) {
      std::vector<double> c(v.begin() + static_cast<std::ptrdiff_t>(at),
                            v.begin() + static_cast<std::ptrdiff_t>(std::min(v.size(), at + chunk)));
      per_chunk.push_back(percentile(c, q));
    }
  }
  return per_chunk.empty() ? percentile(all, q) : median(per_chunk);
}

double self_peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double self_cpu_seconds() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

namespace {

std::string cpu_model() {
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i)
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                &regs[4 * i + 3]);
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s(brand);
  const auto b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return CPU_COUNT(&set);
}

}  // namespace

void print_record(const Options& o) {
  const char* sha = std::getenv("PERFBENCH_GIT_SHA");
  std::printf("record: cpu=\"%s\" nproc=%d compiler=\"GCC %s\" build=%s git_sha=%s "
              "workload=%s seed=%llu seconds=%g trace=%d\n",
              cpu_model().c_str(), online_cpus(), __VERSION__, PERFBENCH_BUILD_TYPE,
              sha != nullptr && *sha != '\0' ? sha : "unknown", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0);
}

void print_metric(const char* name, double value, const char* unit) {
  std::printf("metric %s %.6g %s\n", name, value, unit);
}

void print_result(const Outcome& out) {
  for (const std::string& v : out.violations)
    std::printf("CHECK FAILED: %s\n", v.c_str());
  if (out.violations_total > out.violations.size())
    std::printf("CHECK FAILED: ... %llu findings in total\n",
                static_cast<unsigned long long>(out.violations_total));
  std::string json = "{\"correct\": ";
  json += out.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : out.metrics) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", std::isfinite(vu.first) ? vu.first : 0.0);
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + num + ", \"unit\": \"" + vu.second + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ------------------------------------------------------------ tracing

namespace {

std::atomic<bool> g_tracing{false};
std::atomic<std::uint64_t> g_ns[static_cast<int>(Layer::kCount)];
std::atomic<std::uint64_t> g_calls[static_cast<int>(Layer::kCount)];

}  // namespace

const char* layer_name(Layer l) {
  switch (l) {
    case Layer::kEvalRun: return "eval.run";
    case Layer::kEvalBinary: return "eval.binary";
    case Layer::kSynthLookup: return "synth.cached_binary";
    case Layer::kElfLoad: return "elf.load";
    case Layer::kX86Decode: return "x86.decode";
    case Layer::kX86Substrate: return "x86.substrate";
    case Layer::kFsDerive: return "funseeker.derive";
    case Layer::kFsAnalyze: return "funseeker.analyze";
    case Layer::kIda: return "baselines.ida";
    case Layer::kGhidra: return "baselines.ghidra";
    case Layer::kFetch: return "baselines.fetch";
    case Layer::kEvalScore: return "eval.score";
    case Layer::kClientRequest: return "service.client_request";
    case Layer::kB64Decode: return "service.b64_decode";
    case Layer::kHash: return "service.hash";
    case Layer::kMakeImage: return "service.make_image";
    case Layer::kHandle: return "service.handle";
    case Layer::kCount: break;
  }
  return "?";
}

void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

void reset_layers() {
  for (int i = 0; i < static_cast<int>(Layer::kCount); ++i) {
    g_ns[i].store(0, std::memory_order_relaxed);
    g_calls[i].store(0, std::memory_order_relaxed);
  }
}

LayerTotal layer_total(Layer l) {
  const int i = static_cast<int>(l);
  return {g_ns[i].load(std::memory_order_relaxed),
          g_calls[i].load(std::memory_order_relaxed)};
}

namespace {
thread_local std::size_t t_spans = 0;
}  // namespace

LayerSpan::LayerSpan(Layer l) : layer_(l) {
  if (tracing() && t_spans < kSpanBudget) {
    ++t_spans;
    begin_ns_ = fsr::obs::now_ns();
  }
}

LayerSpan::~LayerSpan() {
  if (begin_ns_ == 0) return;
  const std::uint64_t end = fsr::obs::now_ns();
  fsr::obs::record_span(layer_name(layer_), fsr::obs::kAmbientId, begin_ns_, end);
  const int i = static_cast<int>(layer_);
  g_ns[i].fetch_add(end - begin_ns_, std::memory_order_relaxed);
  g_calls[i].fetch_add(1, std::memory_order_relaxed);
}

void export_trace_or_die(const Options& o) {
  const fsr::obs::TraceStats st = fsr::obs::trace_stats();
  ::mkdir(".bench_build", 0755);
  const std::string path = ".bench_build/perfbench-trace-" + o.workload + "-" +
                           std::to_string(o.seed) + ".json";
  const bool written = fsr::obs::write_chrome_trace(path);
  std::printf("trace: %llu spans on %zu threads, %llu dropped, exported to %s%s\n",
              static_cast<unsigned long long>(st.recorded), st.threads,
              static_cast<unsigned long long>(st.dropped), path.c_str(),
              written ? "" : " (WRITE FAILED)");
  if (st.dropped != 0 || !written) {
    std::printf("trace: run invalid (dropped spans or failed export)\n");
    std::fflush(stdout);
    std::exit(3);
  }
}

}  // namespace perfbench
