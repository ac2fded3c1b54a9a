// Shared pieces of the benchmark: options, the seeded input window,
// percentiles, the run record, the result line, and the layer spans
// the traced run records around calls into the program.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "synth/profiles.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string self_path;  // argv[0]: the daemon child re-executes it
};

/// What one run reports: the operations it attempted and how many
/// failed, every correctness finding, and the metrics it measured.
/// Human-readable report lines go to stdout before the result line.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;  // the first few findings
  std::uint64_t violations_total = 0;   // all findings
  std::map<std::string, std::pair<double, std::string>> metrics;

  /// Record a correctness finding when `ok` is false (the first few
  /// findings are kept verbatim, the rest only counted).
  void check(bool ok, const std::string& what);
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  [[nodiscard]] bool correct() const { return violations_total == 0; }
};

/// The synthetic programs a seed draws. The corpus keeps the default
/// corpus's 1,248 x86/x86-64 configurations (2 compilers x 26 suite
/// programs x 24 arch/kind/opt), but every configuration gets a program
/// of its own: program j of a suite becomes index 40*b + j for one of 48
/// blocks b = 48*(seed mod 100000) + 0..47, the window. Blocks start at
/// multiples of 40, so each index keeps its residue mod 5 and with it
/// SPEC's C/C++ split (index mod 5 < 3 is C++). Drawing 1,248 programs
/// instead of 26 is what keeps the corpus's size, and with it every
/// throughput, steady from one seed to the next.
inline constexpr int kWindowBlocks = 48;
std::vector<fsr::synth::BinaryConfig> window_configs(std::uint64_t seed);

double now_seconds();
/// Nearest-rank percentile (q in [0,1]) of an unsorted sample; 0 when
/// empty. Sorts `v`.
double percentile(std::vector<double>& v, double q);
double median(std::vector<double> v);
/// Robust percentile of latency series (each in completion order): cut
/// every series into consecutive chunks of `chunk` samples (a trailing
/// chunk under half that size is dropped), take the q-percentile of
/// each chunk, and return the median over chunks. A stall that lasts
/// part of the window moves a few chunks, not the result. Falls back to
/// the plain percentile when no series fills half a chunk.
/// Completions per second, robust to a stall in part of the window:
/// the completions (seconds into the window) are cut into ten groups of
/// equal count, and the result is the median of the groups' rates.
double sliced_rate(std::vector<double> done_s, double wall);
double chunked_percentile(const std::vector<std::vector<double>>& series, std::size_t chunk,
                          double q);

/// Peak resident set of this process, MiB.
double self_peak_rss_mb();
/// User + system CPU time of this process so far, seconds.
double self_cpu_seconds();

/// The run record: CPU, cores, compiler, build type, git sha (from the
/// PERFBENCH_GIT_SHA environment variable the launcher sets), seed and
/// run length.
void print_record(const Options& o);

/// A report line "metric NAME VALUE UNIT" for a figure the result line
/// does not carry.
void print_metric(const char* name, double value, const char* unit);

/// Print every finding and the final JSON result line.
void print_result(const Outcome& out);

// ------------------------------------------------------------ tracing

/// The layer boundaries the traced run records. Each is a call into one
/// module's public functions, made from the benchmark's own code.
enum class Layer : int {
  kEvalRun,           // eval::CorpusRunner::run (one corpus pass)
  kEvalBinary,        // root: one binary through the traced pipeline
  kSynthLookup,       // synth::cached_binary (generation cache)
  kElfLoad,           // strip + write_elf + read_elf (or lenient read)
  kX86Decode,         // x86::build_code_view without substrate
  kX86Substrate,      // x86::build_substrate
  kFsDerive,          // funseeker::derive_sets
  kFsAnalyze,         // funseeker::analyze_with
  kIda,               // baselines::ida_like_functions
  kGhidra,            // baselines::ghidra_like_functions
  kFetch,             // baselines::fetch_like_functions
  kEvalScore,         // eval::score + eval::classify_failures
  kClientRequest,     // service::Client::request (client side, root)
  kB64Decode,         // service::b64_decode
  kHash,              // service::content_id
  kMakeImage,         // service::make_cached_image
  kHandle,            // service::Service::handle (in-process)
  kCount
};
const char* layer_name(Layer l);

struct LayerTotal {
  std::uint64_t ns = 0;
  std::uint64_t calls = 0;
};

/// Turn span recording on or off. Spans go into the program's obs
/// trace rings (obs::record_span) with the program's own span sites
/// left off, so the export holds exactly the benchmark's spans.
void set_tracing(bool on);
bool tracing();
void reset_layers();
LayerTotal layer_total(Layer l);

/// Ring capacity per thread (the program's documented 65,536-span
/// budget), and the spans a thread may record before it stops: a run
/// whose traced phase gets faster records fewer requests, never drops.
inline constexpr std::size_t kSpanRing = 65536;
inline constexpr std::size_t kSpanBudget = 60000;

/// A span around one layer call. It records when tracing is on and the
/// thread is under kSpanBudget; recording() says whether it does, so a
/// caller can count its traced requests exactly.
class LayerSpan {
public:
  explicit LayerSpan(Layer l);
  ~LayerSpan();
  LayerSpan(const LayerSpan&) = delete;
  LayerSpan& operator=(const LayerSpan&) = delete;

  [[nodiscard]] bool recording() const { return begin_ns_ != 0; }

private:
  Layer layer_;
  std::uint64_t begin_ns_ = 0;  // 0: not recording
};

/// Export the recorded spans as Chrome trace JSON under .bench_build/
/// and fail the run (exit 3) when the tracer reports any dropped span.
void export_trace_or_die(const Options& o);

}  // namespace perfbench
