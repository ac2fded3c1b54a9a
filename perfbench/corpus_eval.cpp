// corpus-eval: the Table III evaluation, the researcher's path.
//
// Set-up generates the seed's 1,248-binary x86/x86-64 corpus into the
// generation cache (five times; the median is setup_s). The timed
// window then runs whole passes of eval::CorpusRunner with all four
// tools on 4 workers, and checks every pass against the generator's
// ground truth with scoring code of its own.
//
// The traced run spends a third of its time on untraced runner passes,
// then alternates untraced and traced passes of the benchmark's own
// per-binary pipeline (the same public layer calls the runner makes,
// one span each). Layer times come from the traced passes; tracing
// overhead is traced against untraced pipeline throughput.
#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>

#include "baselines/fetch_like.hpp"
#include "baselines/ghidra_like.hpp"
#include "baselines/ida_like.hpp"
#include "common.hpp"
#include "elf/reader.hpp"
#include "eval/metrics.hpp"
#include "eval/runner.hpp"
#include "funseeker/disassemble.hpp"
#include "funseeker/funseeker.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "synth/cache.hpp"
#include "synth/corpus.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"
#include "x86/codeview.hpp"

namespace perfbench {

namespace {

using fsr::eval::Score;
using Found = std::vector<std::uint64_t>;

constexpr std::size_t kWorkers = 4;
constexpr int kSetups = 5;
constexpr int kTools = 4;  // Table III order: FunSeeker, IDA, Ghidra, FETCH
constexpr const char* kToolNames[kTools] = {"FunSeeker", "IDA-like", "Ghidra-like",
                                            "FETCH-like"};
// Each traced pass records 11 spans per binary; four passes keep even
// a single worker's ring (every binary on one thread) under kSpanRing.
constexpr int kMaxTracedPasses = 4;

/// Precision/recall counts recomputed apart from eval::score.
Score own_score(Found found, Found truth) {
  std::sort(found.begin(), found.end());
  found.erase(std::unique(found.begin(), found.end()), found.end());
  std::sort(truth.begin(), truth.end());
  Score s;
  std::size_t i = 0, j = 0;
  while (i < found.size() && j < truth.size()) {
    if (found[i] == truth[j]) {
      ++s.tp, ++i, ++j;
    } else if (found[i] < truth[j]) {
      ++s.fp, ++i;
    } else {
      ++s.fn, ++j;
    }
  }
  s.fp += found.size() - i;
  s.fn += truth.size() - j;
  return s;
}

bool same(const Score& a, const Score& b) {
  return a.tp == b.tp && a.fp == b.fp && a.fn == b.fn;
}

/// Every FunSeeker false positive must be a .part/.cold fragment start
/// (paper §V-C).
std::size_t non_fragment_fps(const Found& found, const fsr::synth::GroundTruth& truth) {
  Found funcs = truth.functions, frags = truth.fragments;
  std::sort(funcs.begin(), funcs.end());
  std::sort(frags.begin(), frags.end());
  std::size_t bad = 0;
  for (std::uint64_t a : found)
    if (!std::binary_search(funcs.begin(), funcs.end(), a) &&
        !std::binary_search(frags.begin(), frags.end(), a))
      ++bad;
  return bad;
}

/// Per-pass totals, checked at the end of every pass.
struct PassTotals {
  std::array<Score, kTools> score{};
  std::size_t fs_bad_fps = 0;
};

void check_pass(Outcome& out, const PassTotals& t, const PassTotals* first,
                const char* where) {
  const Score& fs = t.score[0];
  out.check(fs.precision() >= 0.99 && fs.recall() >= 0.99,
            std::string(where) + ": FunSeeker precision/recall below 99%: " +
                std::to_string(fs.precision()) + "/" + std::to_string(fs.recall()));
  out.check(t.fs_bad_fps == 0, std::string(where) + ": " +
                                   std::to_string(t.fs_bad_fps) +
                                   " FunSeeker false positives are not fragment starts");
  const double r_fs = fs.recall(), r_ida = t.score[1].recall(),
               r_gh = t.score[2].recall(), r_fe = t.score[3].recall();
  out.check(r_fs > r_gh && r_gh > r_fe && r_fe > r_ida,
            std::string(where) + ": Table III recall order violated (FS " +
                std::to_string(r_fs) + ", Ghidra " + std::to_string(r_gh) + ", FETCH " +
                std::to_string(r_fe) + ", IDA " + std::to_string(r_ida) + ")");
  if (first != nullptr)
    for (int k = 0; k < kTools; ++k)
      out.check(same(t.score[k], first->score[k]),
                std::string(where) + ": " + kToolNames[k] + " scores differ between passes");
}

/// One pass of eval::CorpusRunner, checked binary by binary.
struct RunnerPass {
  double wall = 0.0;
  PassTotals totals;
};

RunnerPass runner_pass(const fsr::eval::CorpusRunner& runner,
                       const std::vector<fsr::synth::BinaryConfig>& configs,
                       Outcome& out, std::vector<double>& latency_ms,
                       std::vector<std::array<Score, kTools>>* reference) {
  RunnerPass p;
  std::size_t index = 0;
  const double t0 = now_seconds();
  {
    LayerSpan span(Layer::kEvalRun);
    runner.run(configs, [&](const fsr::synth::BinaryConfig& cfg,
                            const fsr::eval::BinaryResult& r) {
      const std::size_t i = index++;
      ++out.attempted;
      if (!r.ok() || r.per_job.size() != kTools) {
        ++out.failed;
        out.check(false, cfg.name() + ": " + fsr::eval::to_string(r.status) + " " + r.error);
        return;
      }
      double seconds = r.prepare_seconds + r.decode_seconds;
      for (int k = 0; k < kTools; ++k) {
        const fsr::eval::RunResult& run = r.per_job[static_cast<std::size_t>(k)];
        seconds += run.seconds;
        const Score mine = own_score(run.found, r.entry->truth.functions);
        out.check(same(mine, run.score),
                  cfg.name() + ": runner score differs from recomputed score for " +
                      kToolNames[k]);
        p.totals.score[static_cast<std::size_t>(k)] += mine;
        if (reference != nullptr) (*reference)[i][static_cast<std::size_t>(k)] = mine;
      }
      p.totals.fs_bad_fps += non_fragment_fps(r.per_job[0].found, r.entry->truth);
      latency_ms.push_back(seconds * 1e3);
    });
  }
  p.wall = now_seconds() - t0;
  return p;
}

/// The runner's per-binary work, as separate calls into each layer's
/// public functions so the traced run can put a span around each.
struct PipelineResult {
  std::array<Score, kTools> score{};
  std::size_t fs_bad_fps = 0;
  std::size_t insns = 0;
};

PipelineResult pipeline_binary(const fsr::synth::BinaryConfig& cfg, std::size_t index) {
  fsr::obs::ScopedItemId item(index);
  LayerSpan root(Layer::kEvalBinary);
  std::shared_ptr<const fsr::synth::DatasetEntry> entry;
  {
    LayerSpan s(Layer::kSynthLookup);
    entry = fsr::synth::cached_binary(cfg);
  }
  fsr::elf::Image image;
  {
    LayerSpan s(Layer::kElfLoad);
    image = fsr::elf::read_elf(entry->stripped_bytes());
  }
  const fsr::elf::Section& text = image.text();
  const fsr::x86::Mode mode =
      image.machine == fsr::elf::Machine::kX8664 ? fsr::x86::Mode::k64 : fsr::x86::Mode::k32;
  fsr::x86::CodeView view;
  {
    LayerSpan s(Layer::kX86Decode);
    view = fsr::x86::build_code_view(text.data, text.addr, mode, /*with_substrate=*/false);
  }
  {
    LayerSpan s(Layer::kX86Substrate);
    fsr::x86::build_substrate(view);
  }
  fsr::funseeker::DisasmSets sets;
  {
    LayerSpan s(Layer::kFsDerive);
    sets = fsr::funseeker::derive_sets(view);
  }
  std::array<Found, kTools> found;
  {
    LayerSpan s(Layer::kFsAnalyze);
    found[0] = fsr::funseeker::analyze_with(image, sets).functions;
  }
  {
    LayerSpan s(Layer::kIda);
    found[1] = fsr::baselines::ida_like_functions(image, view);
  }
  {
    LayerSpan s(Layer::kGhidra);
    found[2] = fsr::baselines::ghidra_like_functions(image, view);
  }
  {
    LayerSpan s(Layer::kFetch);
    found[3] = fsr::baselines::fetch_like_functions(image, view);
  }
  PipelineResult r;
  {
    LayerSpan s(Layer::kEvalScore);
    for (int k = 0; k < kTools; ++k) {
      r.score[static_cast<std::size_t>(k)] =
          fsr::eval::score(found[static_cast<std::size_t>(k)], entry->truth.functions);
      (void)fsr::eval::classify_failures(found[static_cast<std::size_t>(k)], entry->truth);
    }
  }
  r.fs_bad_fps = non_fragment_fps(found[0], entry->truth);
  r.insns = view.insns.size();
  return r;
}

struct PipelinePass {
  double wall = 0.0;
  std::size_t insns = 0;
};

PipelinePass pipeline_pass(fsr::util::ThreadPool& pool,
                           const std::vector<fsr::synth::BinaryConfig>& configs,
                           const std::vector<std::array<Score, kTools>>& reference,
                           Outcome& out) {
  PipelinePass p;
  PassTotals totals;
  const double t0 = now_seconds();
  fsr::util::parallel_map_ordered<PipelineResult>(
      pool, configs.size(),
      [&](std::size_t i) { return pipeline_binary(configs[i], i); },
      [&](std::size_t i, PipelineResult&& r) {
        for (int k = 0; k < kTools; ++k)
          out.check(same(r.score[static_cast<std::size_t>(k)],
                         reference[i][static_cast<std::size_t>(k)]),
                    configs[i].name() + ": traced pipeline disagrees with the runner for " +
                        kToolNames[k]);
        for (int k = 0; k < kTools; ++k)
          totals.score[static_cast<std::size_t>(k)] += r.score[static_cast<std::size_t>(k)];
        totals.fs_bad_fps += r.fs_bad_fps;
        p.insns += r.insns;
      });
  p.wall = now_seconds() - t0;
  check_pass(out, totals, nullptr, "pipeline pass");
  return p;
}

/// On a seeded sample, FETCH-like's faithful decode-and-walk mode must
/// return exactly what its substrate mode returns.
void check_fetch_modes(const std::vector<fsr::synth::BinaryConfig>& configs,
                       std::uint64_t seed, Outcome& out) {
  fsr::util::Rng rng(seed ^ 0xfe7c4ULL);
  for (int n = 0; n < 12; ++n) {
    const auto& cfg = configs[rng.range(0, configs.size() - 1)];
    const fsr::eval::PreparedBinary p = fsr::eval::prepare(fsr::synth::cached_binary(cfg));
    fsr::baselines::FetchOptions faithful, substrate;
    faithful.mode = fsr::baselines::FetchMode::kFaithful;
    substrate.mode = fsr::baselines::FetchMode::kSubstrate;
    out.check(fsr::baselines::fetch_like_functions(p.stripped, *p.decode.view, faithful) ==
                  fsr::baselines::fetch_like_functions(p.stripped, *p.decode.view, substrate),
              cfg.name() + ": FETCH-like faithful and substrate modes disagree");
  }
}

/// Generate the corpus into the emptied generation cache; returns the
/// seconds it took.
double generate_corpus(const std::vector<fsr::synth::BinaryConfig>& configs) {
  fsr::synth::BinaryCache::instance().clear();
  const double t0 = now_seconds();
  fsr::synth::transform_binaries_parallel(
      configs, [](const fsr::synth::DatasetEntry&) { return 0; },
      [](const fsr::synth::BinaryConfig&, int) {}, kWorkers);
  return now_seconds() - t0;
}

}  // namespace

Outcome run_corpus_eval(const Options& o) {
  Outcome out;
  const std::vector<fsr::synth::BinaryConfig> configs = window_configs(o.seed);
  fsr::synth::BinaryCache& cache = fsr::synth::BinaryCache::instance();

  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) setups.push_back(generate_corpus(configs));
  out.check(cache.entry_count() == configs.size() && cache.evictions() == 0,
            "generation cache does not hold the whole corpus after set-up");
  std::printf("setup: %zu binaries generated in %.3f s (median of 5), cache %.1f MiB\n",
              configs.size(), median(setups),
              static_cast<double>(cache.bytes()) / (1024.0 * 1024.0));

  const fsr::eval::CorpusRunner runner(fsr::eval::CorpusRunner::all_tools(), kWorkers);
  const std::size_t misses_before = cache.misses();
  std::vector<std::vector<double>> latency_ms;  // one series per pass
  std::vector<std::array<Score, kTools>> reference(configs.size());
  const double runner_budget = o.trace ? o.seconds / 3.0 : o.seconds;

  // Runner passes: the end-to-end measurement. A traced run records one
  // span per CorpusRunner::run call, and nothing inside it.
  set_tracing(o.trace);
  PassTotals first{};
  std::size_t passes = 0, binaries = 0;
  const double cpu0 = self_cpu_seconds();
  double runner_wall = 0.0;
  std::vector<double> pass_rates;
  do {
    latency_ms.emplace_back();
    RunnerPass p = runner_pass(runner, configs, out, latency_ms.back(),
                               passes == 0 ? &reference : nullptr);
    check_pass(out, p.totals, passes == 0 ? nullptr : &first, "runner pass");
    if (passes == 0) first = p.totals;
    ++passes;
    binaries += configs.size();
    runner_wall += p.wall;
    pass_rates.push_back(static_cast<double>(configs.size()) / p.wall);
  } while (runner_wall < runner_budget);
  set_tracing(false);
  const LayerTotal run_span = layer_total(Layer::kEvalRun);
  const double cpu_ms = (self_cpu_seconds() - cpu0) * 1e3 / static_cast<double>(binaries);
  out.check(cache.misses() == misses_before,
            "timed passes regenerated " + std::to_string(cache.misses() - misses_before) +
                " binaries (generation-cache misses)");
  check_fetch_modes(configs, o.seed, out);

  // Throughput is the median over passes, like the percentiles below.
  const double bps = median(pass_rates);
  // Per-binary percentiles are medians over passes (one chunk each).
  const double p50 = chunked_percentile(latency_ms, configs.size(), 0.50);
  const double p99 = chunked_percentile(latency_ms, configs.size(), 0.99);
  std::printf("corpus-eval: %zu passes x %zu binaries in %.3f s, median %.1f binaries/s; "
              "per-binary (prepare+decode+4 tools) p50 %.3f ms p99 %.3f ms (medians over "
              "passes); %.3f ms of process CPU per binary\n",
              passes, configs.size(), runner_wall, bps, p50, p99, cpu_ms);
  const Score& fs = first.score[0];
  std::printf("corpus-eval: FunSeeker P %.4f R %.4f; recall IDA %.4f Ghidra %.4f FETCH %.4f\n",
              fs.precision(), fs.recall(), first.score[1].recall(), first.score[2].recall(),
              first.score[3].recall());

  print_metric("binaries_per_s", bps, "binaries/s");
  print_metric("binary_p99_ms", p99, "ms");
  if (!o.trace) {
    out.metric("setup_s", median(setups), "s");
    out.metric("peak_rss_mb", self_peak_rss_mb(), "MiB");
    out.metric("cpu_ms_per_op", cpu_ms, "ms");
    out.metric("p50_ms", p50, "ms");
    return out;
  }

  // Traced run: untraced and traced pipeline passes alternate, so both
  // see the same state of the machine.
  fsr::util::ThreadPool pool(kWorkers);
  fsr::obs::Counter& probes = fsr::obs::counter("fetch.frame_height_probes");
  reset_layers();
  std::vector<double> plain_rates, traced_rates;
  double traced_wall = 0.0;
  std::size_t traced_passes = 0, insns = 0;
  std::uint64_t probe_count = 0;
  for (double spent = 0.0; spent < 2.0 * o.seconds / 3.0 && traced_passes < kMaxTracedPasses;) {
    const PipelinePass plain = pipeline_pass(pool, configs, reference, out);
    plain_rates.push_back(static_cast<double>(configs.size()) / plain.wall);
    set_tracing(true);
    const std::uint64_t probes_before = probes.value();
    const PipelinePass traced = pipeline_pass(pool, configs, reference, out);
    probe_count += probes.value() - probes_before;
    set_tracing(false);
    traced_rates.push_back(static_cast<double>(configs.size()) / traced.wall);
    traced_wall += traced.wall;
    insns += traced.insns;
    ++traced_passes;
    spent += plain.wall + traced.wall;
  }
  export_trace_or_die(o);

  const double n = static_cast<double>(traced_passes);
  const double bins = n * static_cast<double>(configs.size());
  auto us = [&](Layer l) { return static_cast<double>(layer_total(l).ns) / 1e3 / bins; };
  auto ns_per_insn = [&](Layer l) {
    return static_cast<double>(layer_total(l).ns) / static_cast<double>(insns);
  };
  const double busy = static_cast<double>(layer_total(Layer::kEvalBinary).ns) / 1e9;
  const double capacity = traced_wall * static_cast<double>(kWorkers);
  double children = 0.0;
  for (Layer l : {Layer::kSynthLookup, Layer::kElfLoad, Layer::kX86Decode,
                  Layer::kX86Substrate, Layer::kFsDerive, Layer::kFsAnalyze, Layer::kIda,
                  Layer::kGhidra, Layer::kFetch, Layer::kEvalScore})
    children += static_cast<double>(layer_total(l).ns) / 1e9;

  LayerReport rep;
  rep.add("elf.load_us", us(Layer::kElfLoad), "us/binary");
  rep.add("x86.decode_ns_per_insn", ns_per_insn(Layer::kX86Decode), "ns/insn");
  rep.add("x86.substrate_ns_per_insn", ns_per_insn(Layer::kX86Substrate), "ns/insn");
  rep.add("x86.insns", static_cast<double>(insns) / n, "count");
  rep.add("funseeker.derive_us", us(Layer::kFsDerive), "us/binary");
  rep.add("funseeker.analyze_us", us(Layer::kFsAnalyze), "us/binary");
  rep.add("synth.lookup_us", us(Layer::kSynthLookup), "us/binary");
  rep.add("baselines.ida_us", us(Layer::kIda), "us/binary");
  rep.add("baselines.ghidra_us", us(Layer::kGhidra), "us/binary");
  rep.add("baselines.fetch_us", us(Layer::kFetch), "us/binary");
  rep.add("baselines.fetch_probes", static_cast<double>(probe_count) / n, "count");
  rep.add("eval.score_us", us(Layer::kEvalScore), "us/binary");
  rep.add("eval.run_s", static_cast<double>(run_span.ns) / 1e9 / static_cast<double>(run_span.calls),
          "s/pass");
  rep.add("eval.worker_busy_s", busy / n, "s/pass");
  rep.add("eval.worker_idle_s", (capacity - busy) / n, "s/pass");
  rep.unattributed = (busy - children) / capacity;
  rep.overhead = median(plain_rates) / median(traced_rates) - 1.0;
  std::printf("trace: runner %.1f binaries/s, untraced pipeline %.1f binaries/s, "
              "traced pipeline %.1f binaries/s (medians; %zu traced passes)\n",
              bps, median(plain_rates), median(traced_rates), traced_passes);
  rep.print_and_export(out, "corpus-eval", "pool worker time (4 x traced wall)");
  return out;
}

}  // namespace perfbench
