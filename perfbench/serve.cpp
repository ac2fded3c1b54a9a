// The two served workloads, against an fsrd Server in a child process
// (this executable re-run with --serve), so peak_rss_mb is the daemon's
// own and the load generator shares nothing with it but the socket.
//
// cold-identify: 4 connections in a closed loop, each sending
//   FunSeeker-only identify uploads of corpus binaries, each made unique
//   by a 12-byte trailer, into a 32 MiB cache that set-up has already
//   filled: every request takes the full miss path and the image cache
//   evicts throughout.
// hot-mixed: 2 analyst connections in a closed loop of identify and
//   disasm by key over a hot set uploaded during set-up, and 2 uploader
//   connections carrying a Poisson stream of pipelined cold uploads of
//   large binaries, which stack misses on the daemon's pool so hits
//   queue behind them. Hot and cold traffic ride separate connections:
//   responses come back in request order per connection, so a hit
//   sharing a connection with an upload would wait for it on the client
//   side, and that wait is not the daemon's queueing.
//
// The traced run turns tracing on in every other tenth of the window
// (cold-identify puts a span around every Client::request). It then
// replays the workload's requests
// through an in-process Service::handle and the layer calls a miss
// makes (b64_decode, content_id, make_cached_image, and the replica
// parse/decode/substrate/derive/analyze), one span each, on one thread.
#include <algorithm>
#include <array>
#include <chrono>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include "common.hpp"
#include "elf/reader.hpp"
#include "eval/runner.hpp"
#include "funseeker/disassemble.hpp"
#include "funseeker/funseeker.hpp"
#include "obs/json.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "service/cache.hpp"
#include "service/client.hpp"
#include "service/proto.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "synth/cache.hpp"
#include "synth/corpus.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"
#include "x86/codeview.hpp"

extern char** environ;

namespace perfbench {

namespace {

using Found = std::vector<std::uint64_t>;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kConnections = 4;
constexpr int kSetups = 5;
// Latency percentiles are medians over chunks of this many requests of
// one connection: a p99 per chunk still has ten samples beyond it.
constexpr std::size_t kChunk = 1000;
// Upload trailers are unique per run: window uploads carry the
// connection and sequence number, the other uploads these high bits.
constexpr std::uint64_t kSetupUploads = std::uint64_t{1} << 60;
constexpr std::uint64_t kHotUploads = std::uint64_t{1} << 59;
constexpr std::uint64_t kReplayUploads = std::uint64_t{1} << 58;

double ms_since(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

// ------------------------------------------------------------ daemon

/// One fsrd child process: spawned on construction, stopped with a
/// `shutdown` request (SIGKILL as the fallback) and always reaped.
class Daemon {
public:
  Daemon(const Options& o, int cache_mb, int ordinal) {
    ::mkdir(".bench_build", 0755);
    socket_ = ".bench_build/perfbench-" + std::to_string(::getpid()) + "-" +
              std::to_string(ordinal) + ".sock";
    ::unlink(socket_.c_str());
    const std::string mb = std::to_string(cache_mb);
    char* argv[] = {const_cast<char*>(o.self_path.c_str()), const_cast<char*>("--serve"),
                    const_cast<char*>(socket_.c_str()), const_cast<char*>(mb.c_str()),
                    nullptr};
    if (posix_spawn(&pid_, o.self_path.c_str(), nullptr, nullptr, argv, environ) != 0) {
      pid_ = -1;
      return;
    }
    for (int i = 0; i < 2000 && alive(); ++i) {  // up to 10 s
      fsr::service::Client c;
      if (c.connect(socket_)) {
        const auto r = c.request("{\"op\":\"ping\"}");
        if (r.has_value()) {
          ready_ = true;
          return;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] bool ready() const { return ready_; }
  [[nodiscard]] const std::string& socket() const { return socket_; }

  /// CPU time the daemon has used so far (user + system), seconds.
  [[nodiscard]] double cpu_seconds() const {
    clockid_t clock;
    timespec ts{};
    if (pid_ <= 0 || clock_getcpuclockid(pid_, &clock) != 0 || clock_gettime(clock, &ts) != 0)
      return 0.0;
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
  }

  /// Stop and reap the child; returns its peak RSS in MiB.
  double stop() {
    if (pid_ <= 0) return peak_mb_;
    {
      fsr::service::ClientOptions co;
      co.op_timeout_seconds = 5.0;
      fsr::service::Client c(co);
      if (c.connect(socket_)) (void)c.request("{\"op\":\"shutdown\"}");
    }
    struct rusage ru {};
    int status = 0;
    for (int i = 0; i < 1000; ++i) {  // up to 10 s for a clean exit
      if (::wait4(pid_, &status, WNOHANG, &ru) == pid_) {
        pid_ = -1;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::wait4(pid_, &status, 0, &ru);
      pid_ = -1;
    }
    ::unlink(socket_.c_str());
    peak_mb_ = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return peak_mb_;
  }

private:
  /// False once the child has exited (it is reaped here then).
  bool alive() {
    int status = 0;
    if (pid_ > 0 && ::waitpid(pid_, &status, WNOHANG) == pid_) pid_ = -1;
    return pid_ > 0;
  }

  pid_t pid_ = -1;
  bool ready_ = false;
  double peak_mb_ = 0.0;
  std::string socket_;
};

// ------------------------------------------------------------ inputs

/// A corpus binary as an upload template: stripped bytes zero-padded to
/// a multiple of 3, so base64(template + trailer) is base64(template)
/// followed by base64(trailer) and only the trailer is encoded per
/// request.
struct Template {
  std::string name;
  std::vector<std::uint8_t> bytes;
  std::string b64;
  Found reference;  // eval::run_tool_on(FunSeeker) on template + trailer
  Found truth;      // generator ground truth, sorted
};

constexpr std::size_t kTrailer = 12;

std::array<std::uint8_t, kTrailer> trailer(std::uint64_t unique) {
  std::array<std::uint8_t, kTrailer> t{'P', 'B', 'T', 'R'};
  for (int i = 0; i < 8; ++i) t[4 + i] = static_cast<std::uint8_t>(unique >> (8 * i));
  return t;
}

std::vector<Template> make_templates(const std::vector<fsr::synth::BinaryConfig>& configs) {
  std::vector<Template> out(configs.size());
  fsr::util::ThreadPool pool(4);
  fsr::util::parallel_map_ordered<Template>(
      pool, configs.size(),
      [&](std::size_t i) {
        Template t;
        const auto entry = fsr::synth::cached_binary(configs[i]);
        t.name = configs[i].name();
        t.bytes = entry->stripped_bytes();
        t.bytes.resize((t.bytes.size() + 2) / 3 * 3, 0);
        t.b64 = fsr::service::b64_encode(t.bytes);
        std::vector<std::uint8_t> sample = t.bytes;
        const auto tr = trailer(~std::uint64_t{0});
        sample.insert(sample.end(), tr.begin(), tr.end());
        t.reference = fsr::eval::run_tool_on(fsr::eval::Tool::kFunSeeker,
                                             fsr::elf::read_elf(sample))
                          .found;
        t.truth = entry->truth.functions;
        std::sort(t.truth.begin(), t.truth.end());
        return t;
      },
      [&](std::size_t i, Template&& t) { out[i] = std::move(t); });
  return out;
}

std::string upload_request(const Template& t, std::uint64_t unique) {
  const auto tr = trailer(unique);
  std::string req = "{\"op\":\"identify\",\"tool\":\"funseeker\",\"elf\":\"";
  req.reserve(req.size() + t.b64.size() + 24);
  req += t.b64;
  req += fsr::service::b64_encode(tr);
  req += "\"}";
  return req;
}

std::string key_request(const std::string& key) {
  return "{\"op\":\"identify\",\"tool\":\"funseeker\",\"key\":\"" + key + "\"}";
}

std::string hex_addr(std::uint64_t a) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(a));
  return buf;
}

std::string disasm_request(const std::string& key, std::uint64_t at, int count) {
  return "{\"op\":\"disasm\",\"key\":\"" + key + "\",\"at\":\"" + hex_addr(at) +
         "\",\"count\":" + std::to_string(count) + "}";
}

/// The raw `"functions":[...]` text of an identify response.
std::string_view functions_text(std::string_view resp) {
  const auto at = resp.find("\"functions\":[");
  if (at == std::string_view::npos) return {};
  const auto end = resp.find(']', at);
  return end == std::string_view::npos ? std::string_view{} : resp.substr(at, end + 1 - at);
}

/// The function list of an identify response, parsed apart from the
/// service's own encoder. Empty optional on a malformed response.
std::optional<Found> parse_functions(const fsr::obs::JsonValue& v) {
  const fsr::obs::JsonValue* f = v.find("functions");
  if (f == nullptr || !f->is_array()) return std::nullopt;
  Found out;
  out.reserve(f->items().size());
  for (const auto& item : f->items()) {
    const std::string& s = item.as_string("");
    char* end = nullptr;
    out.push_back(std::strtoull(s.c_str(), &end, 16));
    if (s.empty() || *end != '\0') return std::nullopt;
  }
  return out;
}

// ------------------------------------------------------------ results

/// Latencies and completion times of one connection for one tracing
/// state: lane 0 holds requests sent untraced, lane 1 those whose
/// client span recorded.
struct Lane {
  std::vector<double> cold_ms, hit_ms, disasm_ms;
  std::vector<double> done_s;  // completion times, s into the window
};

/// What one connection saw; merged into the Outcome after the join.
/// Latencies stay per connection, in completion order, for
/// chunked_percentile.
struct ConnResult {
  std::array<Lane, 2> lane;
  std::vector<double> wake_late_ms;  // open loop: sleep overshoot
  std::uint64_t attempted = 0, failed = 0;
  std::uint64_t recall_tp = 0, recall_fn = 0;
  Outcome checks;
  /// A sample of uploads, re-analyzed in-process on their exact bytes
  /// once the window has closed (verify_samples).
  struct Sample {
    const Template* tmpl;
    std::uint64_t unique;
    Found found;
  };
  std::vector<Sample> samples;
};

/// Latency series of one request class, one per connection.
using Series = std::vector<std::vector<double>>;

std::size_t count(const Series& s) {
  std::size_t n = 0;
  for (const auto& v : s) n += v.size();
  return n;
}

std::vector<double> flat(const Series& s) {
  std::vector<double> out;
  for (const auto& v : s) out.insert(out.end(), v.begin(), v.end());
  return out;
}

/// One window's samples, merged over connections, per lane.
struct Window {
  struct Lane {
    Series cold_ms, hit_ms, disasm_ms;
    std::vector<double> done_s;
    [[nodiscard]] std::size_t completed() const { return done_s.size(); }
  };
  double wall = 0.0;
  std::array<Lane, 2> lane;
  std::vector<double> late_ms;
};

/// Upload responses must equal eval::run_tool_on on the same bytes. The
/// window compares every response with the template's reference; here a
/// sample is re-analyzed on its exact uploaded bytes, trailer included.
void verify_samples(const ConnResult& r, Outcome& out) {
  for (const ConnResult::Sample& s : r.samples) {
    std::vector<std::uint8_t> bytes = s.tmpl->bytes;
    const auto tr = trailer(s.unique);
    bytes.insert(bytes.end(), tr.begin(), tr.end());
    const Found ref =
        fsr::eval::run_tool_on(fsr::eval::Tool::kFunSeeker, fsr::elf::read_elf(bytes)).found;
    out.check(ref == s.found, s.tmpl->name + ": upload's function list differs from "
                                             "eval::run_tool_on on its exact bytes");
  }
}

/// Join a window's connections into `w` and their checks into `out`.
void merge(std::vector<ConnResult>& results, Window& w, Outcome& out, std::uint64_t& tp,
           std::uint64_t& fn) {
  for (ConnResult& r : results) {
    verify_samples(r, out);
    out.attempted += r.attempted;
    out.failed += r.failed;
    for (const std::string& v : r.checks.violations) out.check(false, v);
    out.violations_total += r.checks.violations_total - r.checks.violations.size();
    tp += r.recall_tp;
    fn += r.recall_fn;
    for (int k = 0; k < 2; ++k) {
      Lane& from = r.lane[static_cast<std::size_t>(k)];
      Window::Lane& to = w.lane[static_cast<std::size_t>(k)];
      to.cold_ms.push_back(std::move(from.cold_ms));
      to.hit_ms.push_back(std::move(from.hit_ms));
      to.disasm_ms.push_back(std::move(from.disasm_ms));
      to.done_s.insert(to.done_s.end(), from.done_s.begin(), from.done_s.end());
    }
    w.late_ms.insert(w.late_ms.end(), r.wake_late_ms.begin(), r.wake_late_ms.end());
  }
}

/// In a traced run, tracing is on in every other tenth of the window,
/// so traced and untraced requests share the machine's state and their
/// difference is the tracing overhead.
class AlternateTracing {
public:
  AlternateTracing(bool enabled, Clock::time_point start, double seconds) {
    if (!enabled) return;
    thread_ = std::thread([this, start, seconds] {
      for (int k = 0; k < 10; ++k) {
        std::unique_lock<std::mutex> lock(mu_);
        if (cv_.wait_until(lock, start + std::chrono::duration_cast<Clock::duration>(
                                              std::chrono::duration<double>(seconds * k / 10)),
                           [this] { return stop_; }))
          break;
        set_tracing(k % 2 == 1);
      }
    });
  }
  ~AlternateTracing() {
    if (thread_.joinable()) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
      }
      cv_.notify_all();
      thread_.join();
    }
    set_tracing(false);
  }
  AlternateTracing(const AlternateTracing&) = delete;
  AlternateTracing& operator=(const AlternateTracing&) = delete;

private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

/// A cold upload's response: a miss whose function list equals the
/// in-process reference; counts recall against the generator's truth.
void check_cold(const std::optional<std::string>& resp, const Template& t, std::uint64_t unique,
                ConnResult& r) {
  const auto v = resp ? fsr::obs::json_parse(*resp) : std::nullopt;
  if (!v || !v->get_bool("ok", false)) {
    ++r.failed;
    r.checks.check(false, t.name + ": upload failed: " +
                              (resp ? resp->substr(0, 200) : std::string("transport")));
    return;
  }
  r.checks.check(v->get_string("cache") == "miss", t.name + ": upload was not a cache miss");
  const auto found = parse_functions(*v);
  r.checks.check(found.has_value() && *found == t.reference,
                 t.name + ": upload's function list differs from eval::run_tool_on");
  if (!found) return;
  if (unique % 64 == 0 && r.samples.size() < 16) r.samples.push_back({&t, unique, *found});
  std::uint64_t tp = 0;
  for (std::uint64_t a : *found) tp += std::binary_search(t.truth.begin(), t.truth.end(), a);
  r.recall_tp += tp;
  r.recall_fn += t.truth.size() - tp;
}

// ------------------------------------------------------------ stats op

struct DaemonStats {
  double image_bytes = 0, image_entries = 0, image_evictions = 0;
  double result_hits = 0, result_misses = 0, queue_depth_max = 0;
};

DaemonStats daemon_stats(const std::string& socket) {
  DaemonStats s;
  fsr::service::Client c;
  if (!c.connect(socket)) return s;
  const auto resp = c.request("{\"op\":\"stats\"}");
  const auto v = resp ? fsr::obs::json_parse(*resp) : std::nullopt;
  if (!v) return s;
  if (const auto* cache = v->find("cache")) {
    if (const auto* img = cache->find("images")) {
      s.image_bytes = img->get_number("bytes", 0);
      s.image_entries = img->get_number("entries", 0);
      s.image_evictions = img->get_number("evictions", 0);
    }
    if (const auto* res = cache->find("results")) {
      s.result_hits = res->get_number("hits", 0);
      s.result_misses = res->get_number("misses", 0);
    }
  }
  if (const auto* pool = v->find("pool")) s.queue_depth_max = pool->get_number("queue_depth_max", 0);
  return s;
}

double ping_rtt_us(const std::string& socket) {
  fsr::service::Client c;
  std::vector<double> us;
  if (!c.connect(socket)) return 0.0;
  for (int i = 0; i < 500; ++i) {
    const auto t0 = Clock::now();
    const auto r = c.request("{\"op\":\"ping\"}");
    if (!r) return 0.0;
    us.push_back(ms_since(t0, Clock::now()) * 1e3);
  }
  return median(us);
}

/// Upload `count` unique copies of the templates over kConnections
/// connections (set-up's cache fill; unchecked beyond success).
bool fill_cache(const std::string& socket, const std::vector<Template>& tmpl,
                std::size_t count, std::uint64_t unique_base) {
  std::atomic<std::size_t> next{0};
  std::atomic<bool> ok{true};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c)
    threads.emplace_back([&] {
      fsr::service::Client client;
      if (!client.connect(socket)) {
        ok = false;
        return;
      }
      for (std::size_t i; (i = next.fetch_add(1)) < count;) {
        const auto r = client.request(upload_request(tmpl[i % tmpl.size()], unique_base + i));
        if (!r || r->find("\"ok\":true") == std::string::npos) ok = false;
      }
    });
  for (auto& t : threads) t.join();
  return ok;
}

/// Upload unique copies of the templates until the daemon's image cache
/// starts evicting: the timed window then sees a full cache in steady
/// state instead of one still filling.
bool fill_until_evicting(const std::string& socket, const std::vector<Template>& tmpl,
                         std::uint64_t unique_base) {
  constexpr std::size_t kBatch = 64;
  for (std::size_t round = 0; round < 64; ++round) {
    if (!fill_cache(socket, tmpl, kBatch, unique_base + round * kBatch)) return false;
    if (daemon_stats(socket).image_evictions > 0) return true;
  }
  return false;
}

// ------------------------------------------------------------ replay

/// Per-layer replay of cold uploads on one thread: Service::handle on
/// the whole request, then the miss path's layer calls on the same
/// bytes. Returns per-request handle times (ms).
std::vector<double> replay_cold(fsr::service::Service& svc, const std::vector<Template>& tmpl,
                                int rounds, std::uint64_t unique_base, std::size_t& insns) {
  std::vector<double> handle_ms;
  std::uint64_t unique = unique_base;
  for (int round = 0; round < rounds; ++round)
    for (std::size_t i = 0; i < tmpl.size(); ++i) {
      const Template& t = tmpl[i];
      fsr::obs::ScopedItemId item(unique);
      const std::string req = upload_request(t, unique++);
      const auto t0 = Clock::now();
      {
        LayerSpan s(Layer::kHandle);
        (void)svc.handle(req);
      }
      handle_ms.push_back(ms_since(t0, Clock::now()));

      const std::string_view b64 =
          std::string_view(req).substr(req.find("\"elf\":\"") + 7);
      std::optional<std::vector<std::uint8_t>> bytes;
      {
        LayerSpan s(Layer::kB64Decode);
        bytes = fsr::service::b64_decode(b64.substr(0, b64.size() - 2));
      }
      if (!bytes) continue;
      {
        LayerSpan s(Layer::kHash);
        (void)fsr::service::content_id(*bytes);
      }
      {
        LayerSpan s(Layer::kMakeImage);
        (void)fsr::service::make_cached_image(*bytes);
      }
      fsr::elf::Image image;
      {
        LayerSpan s(Layer::kElfLoad);
        fsr::util::Diagnostics diags;
        fsr::elf::ReadOptions ro;
        ro.lenient = true;
        ro.diags = &diags;
        image = fsr::elf::read_elf(*bytes, ro);
      }
      const fsr::elf::Section& text = image.text();
      const fsr::x86::Mode mode = image.machine == fsr::elf::Machine::kX8664
                                      ? fsr::x86::Mode::k64
                                      : fsr::x86::Mode::k32;
      fsr::x86::CodeView view;
      {
        LayerSpan s(Layer::kX86Decode);
        view = fsr::x86::build_code_view(text.data, text.addr, mode, false);
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
      {
        LayerSpan s(Layer::kFsAnalyze);
        (void)fsr::funseeker::analyze_with(image, sets);
      }
      insns += view.insns.size();
    }
  return handle_ms;
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// The layer rows both served workloads share: the replayed miss path.
void add_cold_layers(LayerReport& rep, const std::vector<double>& handle_cold_ms,
                     std::size_t insns, double rounds) {
  const double uploads = static_cast<double>(layer_total(Layer::kMakeImage).calls);
  auto us = [&](Layer l) { return static_cast<double>(layer_total(l).ns) / 1e3 / uploads; };
  auto per_insn = [&](Layer l) {
    return static_cast<double>(layer_total(l).ns) / static_cast<double>(insns);
  };
  rep.add("elf.load_us", us(Layer::kElfLoad), "us/upload");
  rep.add("x86.decode_ns_per_insn", per_insn(Layer::kX86Decode), "ns/insn");
  rep.add("x86.substrate_ns_per_insn", per_insn(Layer::kX86Substrate), "ns/insn");
  rep.add("x86.insns", static_cast<double>(insns) / rounds, "count");
  rep.add("funseeker.derive_us", us(Layer::kFsDerive), "us/upload");
  rep.add("funseeker.analyze_us", us(Layer::kFsAnalyze), "us/upload");
  rep.add("service.b64_decode_us", us(Layer::kB64Decode), "us/upload");
  rep.add("service.hash_us", us(Layer::kHash), "us/upload");
  rep.add("service.make_image_ms", us(Layer::kMakeImage) / 1e3, "ms/upload");
  std::vector<double> h = handle_cold_ms;
  rep.add("service.handle_cold_ms", median(h), "ms");
}

/// The hit-path rows: in-process handle medians, and the client's hit
/// latency minus the in-process handle time, at p50 and p99.
void add_hit_layers(LayerReport& rep, std::vector<double> handle_hit,
                    std::vector<double> handle_disasm, std::vector<double> client_hit_ms) {
  rep.add("service.handle_hit_us", median(handle_hit) * 1e3, "us");
  rep.add("service.handle_disasm_us", median(handle_disasm) * 1e3, "us");
  rep.add("service.outside_handler_hit_p50_us",
          (percentile(client_hit_ms, 0.50) - percentile(handle_hit, 0.50)) * 1e3, "us");
  rep.add("service.outside_handler_hit_p99_us",
          (percentile(client_hit_ms, 0.99) - percentile(handle_hit, 0.99)) * 1e3, "us");
}

void add_daemon_layers(LayerReport& rep, const DaemonStats& st, double rtt_us) {
  rep.add("service.ping_rtt_us", rtt_us, "us");
  rep.add("cache.image_bytes_per_entry",
          st.image_entries > 0 ? st.image_bytes / st.image_entries : 0.0, "bytes");
  rep.add("cache.image_evictions", st.image_evictions, "count");
  rep.add("cache.result_hits", st.result_hits, "count");
  rep.add("cache.result_misses", st.result_misses, "count");
  rep.add("server.queue_depth_max", st.queue_depth_max, "count");
}

// ------------------------------------------------------------ hit path

constexpr int kHotCacheMb = 256;
constexpr std::size_t kHotSet = 96;
constexpr std::size_t kAnalysts = 2;      // connections; the other 2 upload
constexpr double kUploadRate = 200.0;     // Poisson arrivals/s per uploader
constexpr double kDisasmShare = 0.25;     // of analyst requests
// The uploaders' wake-ups on a virtual machine land late: p99 about
// 3 ms with no load at all, near 10 ms when neighbours steal a fifth of
// the CPU. Only a generator whose p99 lateness exceeds 20 ms, four
// mean inter-arrival gaps of one uploader, counts as fallen behind.
constexpr double kMaxLateMs = 20.0;


struct HotEntry {
  std::string key;
  std::string functions;  // raw "functions":[...] text of the upload's response
  Found entries;          // function entries usable as disasm addresses
};

void check_hit(const std::optional<std::string>& resp, const HotEntry& e, ConnResult& r) {
  if (!resp || resp->find("\"ok\":true") == std::string::npos) {
    ++r.failed;
    r.checks.check(false, "key identify failed: " +
                              (resp ? resp->substr(0, 200) : std::string("transport")));
    return;
  }
  r.checks.check(resp->find("\"cache\":\"hit\"") != std::string::npos,
                 "key identify was not a cache hit");
  r.checks.check(functions_text(*resp) == e.functions,
                 "hit's function list differs from its upload's");
}

void check_disasm(const std::optional<std::string>& resp, std::uint64_t at, int count,
                  ConnResult& r) {
  const auto v = resp ? fsr::obs::json_parse(*resp) : std::nullopt;
  if (!v || !v->get_bool("ok", false)) {
    ++r.failed;
    r.checks.check(false, "disasm failed: " +
                              (resp ? resp->substr(0, 200) : std::string("transport")));
    return;
  }
  r.checks.check(v->get_string("cache") == "hit", "disasm was not a cache hit");
  const fsr::obs::JsonValue* lines = v->find("lines");
  const bool shape = lines != nullptr && lines->is_array() &&
                     lines->items().size() == static_cast<std::size_t>(count) &&
                     v->get_number("count", -1) == count;
  r.checks.check(shape, "disasm at " + hex_addr(at) + " did not return " +
                            std::to_string(count) + " lines");
  if (!shape) return;
  const std::string& first = lines->items()[0].as_string("");
  const auto b = first.find_first_not_of(' ');
  r.checks.check(b != std::string::npos && first.compare(b, hex_addr(at).size() + 1,
                                                         hex_addr(at) + ":") == 0,
                 "disasm did not start at " + hex_addr(at) + ": " + first);
}

/// A connection of its own for pipelined frames: the protocol answers
/// in request order, so one thread writes while another reads.
fsr::service::UniqueFd connect_raw(const std::string& path) {
  fsr::service::UniqueFd fd(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (!fd.valid() || path.size() >= sizeof addr.sun_path) return {};
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) return {};
  return fd;
}

/// An uploader: a Poisson stream of cold uploads at kUploadRate on one
/// pipelined connection. Uploads go out on schedule whether or not
/// earlier ones have been answered (the protocol answers in order, so a
/// receiver thread pairs each response with its upload), so bursts
/// stack several misses on the daemon's pool at once. Each upload is
/// timed from its due time; how late the generator woke for it is also
/// recorded apart.
void upload_stream(const std::string& socket, const std::vector<Template>& cold,
                   fsr::util::Rng& rng, Clock::time_point start, Clock::time_point end,
                   std::uint64_t unique_base, ConnResult& r) {
  fsr::service::UniqueFd fd = connect_raw(socket);
  if (!fd.valid()) {
    ++r.attempted, ++r.failed;
    r.checks.check(false, "cannot connect to the daemon");
    return;
  }
  struct Pending {
    Clock::time_point due;
    bool traced;  // sent while tracing was on
    const Template* tmpl;
    std::uint64_t unique;
  };
  std::mutex mu;
  std::deque<Pending> pending;
  // The receiver owns the lanes, failed, recall, checks and samples; the
  // sender owns attempted and wake_late_ms.
  std::thread receiver([&] {
    for (std::string payload;;) {
      const fsr::service::FrameStatus st = fsr::service::read_frame(fd.get(), payload);
      const auto now = Clock::now();
      Pending p{};
      {
        std::lock_guard<std::mutex> lock(mu);
        if (pending.empty()) break;
        p = pending.front();
        pending.pop_front();
      }
      if (st != fsr::service::FrameStatus::kOk) {
        ++r.failed;
        r.checks.check(false, p.tmpl->name + ": upload lost: " + fsr::service::to_string(st));
        continue;
      }
      Lane& lane = r.lane[p.traced ? 1 : 0];
      lane.cold_ms.push_back(ms_since(p.due, now));
      lane.done_s.push_back(std::chrono::duration<double>(now - start).count());
      check_cold(payload, *p.tmpl, p.unique, r);
    }
  });
  auto gap = [&] {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(-std::log(1.0 - rng.uniform()) / kUploadRate));
  };
  for (Clock::time_point due = start + gap(); due < end; due += gap()) {
    // Draw and encode the upload before waiting, so it goes out on time.
    const Template& t = cold[rng.range(0, cold.size() - 1)];
    const std::uint64_t unique = unique_base + r.attempted;
    const std::string req = upload_request(t, unique);
    if (Clock::now() < due) {
      std::this_thread::sleep_until(due);
      r.wake_late_ms.push_back(ms_since(due, Clock::now()));
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      pending.push_back({due, tracing(), &t, unique});
    }
    ++r.attempted;
    if (!fsr::service::write_frame(fd.get(), req)) break;
  }
  // Half-close: the daemon answers what it has, then closes, and the
  // receiver's read ends.
  ::shutdown(fd.get(), SHUT_WR);
  receiver.join();
  std::lock_guard<std::mutex> lock(mu);
  r.failed += pending.size();
  r.checks.check(pending.empty(), std::to_string(pending.size()) + " uploads never answered");
}

/// An analyst: a closed loop of identify and disasm by key, walking the
/// hot set in `order` from its own offset.
void analyst_loop(const std::string& socket, const std::vector<HotEntry>& hot,
                  const std::vector<std::size_t>& order, std::size_t c, fsr::util::Rng& rng,
                  Clock::time_point start, Clock::time_point end, ConnResult& r) {
  fsr::service::Client client;
  if (!client.connect(socket)) {
    ++r.attempted, ++r.failed;
    r.checks.check(false, "cannot connect to the daemon");
    return;
  }
  std::this_thread::sleep_until(start);
  for (std::size_t next = c * hot.size() / kAnalysts; Clock::now() < end;) {
    const HotEntry& entry = hot[order[next++ % order.size()]];
    std::uint64_t at = 0;
    int count = 0;
    std::string req;
    if (rng.chance(kDisasmShare)) {
      at = entry.entries[rng.range(0, entry.entries.size() - 1)];
      count = 8 << rng.range(0, 2);
      req = disasm_request(entry.key, at, count);
    } else {
      req = key_request(entry.key);
    }
    fsr::obs::ScopedItemId item((static_cast<std::uint64_t>(c) << 32) + r.attempted);
    ++r.attempted;
    const auto t0 = Clock::now();
    std::optional<std::string> resp;
    bool traced = false;
    {
      const LayerSpan s(Layer::kClientRequest);
      traced = s.recording();
      resp = client.request(req);
    }
    const auto done = Clock::now();
    Lane& lane = r.lane[traced ? 1 : 0];
    lane.done_s.push_back(std::chrono::duration<double>(done - start).count());
    if (count > 0) {
      lane.disasm_ms.push_back(ms_since(t0, done));
      check_disasm(resp, at, count, r);
    } else {
      lane.hit_ms.push_back(ms_since(t0, done));
      check_hit(resp, entry, r);
    }
  }
}

Window hot_window(const std::string& socket, const std::vector<HotEntry>& hot,
                  const std::vector<Template>& cold, const Options& o, Outcome& out,
                  std::uint64_t& tp, std::uint64_t& fn) {
  std::vector<ConnResult> results(kConnections);
  std::vector<std::thread> threads;
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(o.seconds));
  // Analysts walk the hot set in one seeded order, each from its own
  // offset: every hot key is touched at least once per kHotSet analyst
  // requests, far more often than uploads could push it out of the LRU.
  std::vector<std::size_t> order(hot.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  fsr::util::Rng shuffle(o.seed ^ 0x0bde5ULL);
  for (std::size_t i = order.size() - 1; i > 0; --i) std::swap(order[i], order[shuffle.range(0, i)]);
  {
    const AlternateTracing alternate(o.trace, start, o.seconds);
    for (std::size_t c = 0; c < kConnections; ++c)
      threads.emplace_back([&, c] {
        ConnResult& r = results[c];
        fsr::util::Rng rng(o.seed * 7919ULL + c);
        if (c < kAnalysts) {
          analyst_loop(socket, hot, order, c, rng, start, end, r);
        } else {
          upload_stream(socket, cold, rng, start, end, static_cast<std::uint64_t>(c) << 32, r);
        }
      });
    for (auto& t : threads) t.join();
  }
  Window w;
  w.wall = o.seconds;
  merge(results, w, out, tp, fn);
  return w;
}

/// Split the corpus's templates by size: the hot set is a seeded pick
/// of `n` from the smaller half, the uploads are the largest quarter.
void split_templates(std::vector<Template> all, std::uint64_t seed, std::size_t n_hot,
                     std::vector<Template>& hot, std::vector<Template>& uploads) {
  std::sort(all.begin(), all.end(), [](const Template& a, const Template& b) {
    return a.bytes.size() != b.bytes.size() ? a.bytes.size() < b.bytes.size() : a.name < b.name;
  });
  const std::size_t n = all.size();
  fsr::util::Rng rng(seed ^ 0x407ULL);
  for (std::size_t i = n / 2 - 1; i > 0; --i) std::swap(all[i], all[rng.range(0, i)]);
  hot.assign(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(n_hot));
  uploads.assign(all.begin() + static_cast<std::ptrdiff_t>(n - n / 4), all.end());
}

/// Parse an identify response into a hot-set entry (empty key when the
/// response carries no function list).
HotEntry hot_entry(const std::string& resp, std::optional<Found>& found) {
  HotEntry e;
  const auto v = fsr::obs::json_parse(resp);
  found = v ? parse_functions(*v) : std::nullopt;
  if (!found || found->empty()) return e;
  e.key = v->get_string("key");
  e.functions = std::string(functions_text(resp));
  // Entries in the first 80% of .text order, so every disasm of up to
  // 32 instructions has that many instructions after it.
  e.entries.assign(found->begin(),
                   found->begin() + static_cast<std::ptrdiff_t>(
                                        std::max<std::size_t>(1, found->size() * 4 / 5)));
  return e;
}

/// Upload the hot set; the response of each upload is the reference
/// every later hit must repeat byte for byte.
std::vector<HotEntry> upload_hot(const std::string& socket, const std::vector<Template>& tmpl,
                                 Outcome& out) {
  std::vector<HotEntry> hot;
  fsr::service::Client c;
  if (!c.connect(socket)) {
    out.check(false, "cannot connect to the daemon");
    return hot;
  }
  for (std::size_t i = 0; i < tmpl.size(); ++i) {
    const auto resp = c.request(upload_request(tmpl[i], kHotUploads + i));
    std::optional<Found> found;
    HotEntry e = resp ? hot_entry(*resp, found) : HotEntry{};
    out.check(found.has_value() && *found == tmpl[i].reference,
              tmpl[i].name + ": hot upload's function list differs from eval::run_tool_on");
    if (!e.key.empty()) hot.push_back(std::move(e));
  }
  return hot;
}

/// In-process Service::handle times for hits and disasms of the hot set.
void replay_hot(fsr::service::Service& svc, const std::vector<Template>& tmpl,
                std::uint64_t seed, std::vector<double>& hit_ms, std::vector<double>& disasm_ms) {
  std::vector<HotEntry> hot;
  for (std::size_t i = 0; i < tmpl.size(); ++i) {
    std::optional<Found> found;
    HotEntry e = hot_entry(svc.handle(upload_request(tmpl[i], kHotUploads + i)).json, found);
    if (!e.key.empty()) hot.push_back(std::move(e));
  }
  fsr::util::Rng rng(seed ^ 0x5e71ceULL);
  for (int i = 0; i < 2000 && !hot.empty(); ++i) {
    const HotEntry& e = hot[rng.range(0, hot.size() - 1)];
    const bool disasm = rng.chance(kDisasmShare);
    const std::string req =
        disasm ? disasm_request(e.key, e.entries[rng.range(0, e.entries.size() - 1)], 16)
               : key_request(e.key);
    const auto t0 = Clock::now();
    {
      const LayerSpan s(Layer::kHandle);
      (void)svc.handle(req);
    }
    (disasm ? disasm_ms : hit_ms).push_back(ms_since(t0, Clock::now()));
  }
}

/// The hit path of a daemon whose workload has no hits: after the
/// window, upload `probe` and send key identifies and disasms for it
/// over one connection. Returns the identify latencies (ms).
std::vector<double> probe_hits(const std::string& socket, const std::vector<Template>& probe,
                               std::uint64_t seed, Outcome& out) {
  constexpr int kRequests = 2000;
  const std::vector<HotEntry> hot = upload_hot(socket, probe, out);
  fsr::service::Client client;
  if (hot.empty() || !client.connect(socket)) {
    out.check(false, "hit probe could not reach the daemon");
    return {};
  }
  ConnResult r;
  std::vector<double> hit_ms;
  fsr::util::Rng rng(seed ^ 0x9b0beULL);
  for (int i = 0; i < kRequests; ++i) {
    const HotEntry& e = hot[static_cast<std::size_t>(i) % hot.size()];
    const bool disasm = rng.chance(kDisasmShare);
    const std::uint64_t at = disasm ? e.entries[rng.range(0, e.entries.size() - 1)] : 0;
    ++r.attempted;
    const auto t0 = Clock::now();
    const auto resp = client.request(disasm ? disasm_request(e.key, at, 16) : key_request(e.key));
    const double ms = ms_since(t0, Clock::now());
    if (disasm) {
      check_disasm(resp, at, 16, r);
    } else {
      hit_ms.push_back(ms);
      check_hit(resp, e, r);
    }
  }
  std::vector<ConnResult> results(1);
  results[0] = std::move(r);
  Window unused;
  std::uint64_t tp = 0, fn = 0;
  merge(results, unused, out, tp, fn);
  return hit_ms;
}

// ------------------------------------------------------------ cold-identify

constexpr int kColdCacheMb = 32;
constexpr std::size_t kProbeSet = 24;  // small binaries, ~10 MiB of images

/// One closed-loop window of unique uploads over kConnections.
Window cold_window(const std::string& socket, const std::vector<Template>& tmpl,
                   const Options& o, Outcome& out, std::uint64_t& tp, std::uint64_t& fn) {
  std::vector<ConnResult> results(kConnections);
  std::vector<std::thread> threads;
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(o.seconds));
  {
    const AlternateTracing alternate(o.trace, start, o.seconds);
    for (std::size_t c = 0; c < kConnections; ++c)
      threads.emplace_back([&, c] {
        ConnResult& r = results[c];
        fsr::service::Client client;
        if (!client.connect(socket)) {
          ++r.attempted, ++r.failed;
          r.checks.check(false, "cannot connect to the daemon");
          return;
        }
        fsr::util::Rng rng(o.seed * 1000003ULL + c);
        for (std::uint64_t seq = 0; Clock::now() < deadline; ++seq) {
          const Template& t = tmpl[rng.range(0, tmpl.size() - 1)];
          const std::uint64_t unique = (static_cast<std::uint64_t>(c) << 32) + seq;
          const std::string req = upload_request(t, unique);
          fsr::obs::ScopedItemId item(unique);
          ++r.attempted;
          const auto t0 = Clock::now();
          std::optional<std::string> resp;
          bool traced = false;
          {
            const LayerSpan s(Layer::kClientRequest);
            traced = s.recording();
            resp = client.request(req);
          }
          const auto done = Clock::now();
          Lane& lane = r.lane[traced ? 1 : 0];
          lane.cold_ms.push_back(ms_since(t0, done));
          lane.done_s.push_back(std::chrono::duration<double>(done - start).count());
          check_cold(resp, t, unique, r);
        }
      });
    for (auto& t : threads) t.join();
  }
  Window w;
  w.wall = std::chrono::duration<double>(Clock::now() - start).count();
  merge(results, w, out, tp, fn);
  return w;
}

}  // namespace

Outcome run_cold_identify(const Options& o) {
  Outcome out;
  std::vector<double> setups;
  std::unique_ptr<Daemon> daemon;
  std::vector<Template> tmpl;
  // Every binary of the corpus is an upload template.
  const std::vector<fsr::synth::BinaryConfig> configs = window_configs(o.seed);
  for (int i = 0; i < kSetups; ++i) {
    if (daemon) daemon->stop();
    daemon.reset();
    fsr::synth::BinaryCache::instance().clear();
    const double t0 = now_seconds();
    daemon = std::make_unique<Daemon>(o, kColdCacheMb, i);
    if (!daemon->ready()) {
      std::printf("cold-identify: daemon did not start\n");
      std::exit(3);
    }
    tmpl = make_templates(configs);
    // Fill the image cache past its budget, so the timed window runs
    // against a full, evicting cache.
    out.check(fill_until_evicting(daemon->socket(), tmpl, kSetupUploads),
              "set-up could not fill the image cache");
    setups.push_back(now_seconds() - t0);
  }
  const DaemonStats warm = daemon_stats(daemon->socket());
  double bytes = 0.0;
  for (const Template& t : tmpl) bytes += static_cast<double>(t.bytes.size());
  std::printf("cold-identify: %zu upload templates, %.0f KB each on average; %g images "
              "(%.1f MiB) in the %d MiB cache after set-up\n",
              tmpl.size(), bytes / 1e3 / static_cast<double>(tmpl.size()), warm.image_entries,
              warm.image_bytes / (1 << 20), kColdCacheMb);

  std::uint64_t tp = 0, fn = 0;
  const double cpu0 = daemon->cpu_seconds();
  const Window w = cold_window(daemon->socket(), tmpl, o, out, tp, fn);
  const double daemon_cpu = daemon->cpu_seconds() - cpu0;
  DaemonStats st = daemon_stats(daemon->socket());
  out.check(st.image_evictions > warm.image_evictions, "image cache did not evict in the window");
  // The traced run also measures the hit path, which the window never
  // takes, on the now idle daemon.
  std::vector<Template> probe, unused;
  std::vector<double> probe_hit_ms;
  if (o.trace) {
    split_templates(tmpl, o.seed, kProbeSet, probe, unused);
    probe_hit_ms = probe_hits(daemon->socket(), probe, o.seed, out);
    st = daemon_stats(daemon->socket());
  }
  const double rtt = o.trace ? ping_rtt_us(daemon->socket()) : 0.0;
  const double peak_mb = daemon->stop();

  const double recall = tp + fn == 0 ? 0.0 : static_cast<double>(tp) / static_cast<double>(tp + fn);
  out.check(recall >= 0.99, "FunSeeker recall over uploads below 99%: " + std::to_string(recall));
  const Window::Lane& plain = w.lane[0];
  const std::size_t n = count(plain.cold_ms);
  // A traced run's untraced lane spans five tenths of the window.
  const double rps = o.trace ? static_cast<double>(n) / (w.wall / 2)
                             : sliced_rate(plain.done_s, w.wall);
  const double p50 = chunked_percentile(plain.cold_ms, kChunk, 0.50);
  const double p99 = chunked_percentile(plain.cold_ms, kChunk, 0.99);
  std::printf("cold-identify: %zu untraced uploads in %.3f s, median %.1f req/s over tenths; "
              "p50 %.3f ms p99 %.3f ms (medians over chunks of %zu); FunSeeker recall %.4f; "
              "daemon peak RSS %.1f MiB; cache %g entries, %g evictions\n",
              n, w.wall, rps, p50, p99, kChunk, recall, peak_mb, st.image_entries,
              st.image_evictions);

  // The daemon's CPU per upload answered in the window, both lanes.
  const double cpu_ms = daemon_cpu * 1e3 /
                        static_cast<double>(w.lane[0].completed() + w.lane[1].completed());
  print_metric("cold_req_per_s", rps, "req/s");
  print_metric("cold_p50_ms", p50, "ms");
  print_metric("cold_p99_ms", p99, "ms");
  print_metric("daemon_cpu_ms_per_upload", cpu_ms, "ms");
  if (!o.trace) {
    out.metric("setup_s", median(setups), "s");
    out.metric("peak_rss_mb", peak_mb, "MiB");
    out.metric("cpu_ms_per_op", cpu_ms, "ms");
    out.metric("p50_ms", p50, "ms");
    return out;
  }

  const LayerTotal client = layer_total(Layer::kClientRequest);
  reset_layers();
  set_tracing(true);
  fsr::service::ServiceOptions so;
  so.cache_bytes = std::size_t{kColdCacheMb} << 20;
  fsr::service::Service svc(so);
  std::size_t insns = 0;
  constexpr int kRounds = 3;
  const std::vector<double> handle = replay_cold(svc, tmpl, kRounds, kReplayUploads, insns);
  std::vector<double> handle_hit, handle_disasm;
  replay_hot(svc, probe, o.seed, handle_hit, handle_disasm);
  set_tracing(false);
  export_trace_or_die(o);

  LayerReport rep;
  add_cold_layers(rep, handle, insns, kRounds);
  add_hit_layers(rep, handle_hit, handle_disasm, probe_hit_ms);
  add_daemon_layers(rep, st, rtt);
  // Client time = handler time + one round trip, the rest unattributed
  // (queueing for the pool, reader wake-ups, load-generator CPU).
  const double client_ms = static_cast<double>(client.ns) / 1e6;
  const double attributed = static_cast<double>(client.calls) * (mean(handle) + rtt / 1e3);
  rep.unattributed = client_ms > 0 ? (client_ms - attributed) / client_ms : 0.0;
  const double traced_rps = static_cast<double>(w.lane[1].completed()) / (w.wall / 2);
  rep.overhead = rps / traced_rps - 1.0;
  std::printf("trace: %.1f req/s in untraced tenths, %.1f req/s in traced tenths\n", rps,
              traced_rps);
  rep.print_and_export(out, "cold-identify", "client request time");
  return out;
}


Outcome run_hot_mixed(const Options& o) {
  Outcome out;
  std::vector<double> setups;
  std::unique_ptr<Daemon> daemon;
  std::vector<Template> hot_tmpl, cold_tmpl;
  std::vector<HotEntry> hot;
  const std::vector<fsr::synth::BinaryConfig> configs = window_configs(o.seed);
  for (int i = 0; i < kSetups; ++i) {
    if (daemon) daemon->stop();
    daemon.reset();
    fsr::synth::BinaryCache::instance().clear();
    const double t0 = now_seconds();
    daemon = std::make_unique<Daemon>(o, kHotCacheMb, i);
    if (!daemon->ready()) {
      std::printf("hot-mixed: daemon did not start\n");
      std::exit(3);
    }
    split_templates(make_templates(configs), o.seed, kHotSet, hot_tmpl, cold_tmpl);
    Outcome setup_checks;
    // Fill the cache with cold uploads first, so the hot set is the most
    // recently used content when the window opens.
    setup_checks.check(fill_until_evicting(daemon->socket(), cold_tmpl, kSetupUploads),
                       "set-up could not fill the image cache");
    hot = upload_hot(daemon->socket(), hot_tmpl, setup_checks);
    if (i + 1 == kSetups)
      for (const std::string& v : setup_checks.violations) out.check(false, v);
    setups.push_back(now_seconds() - t0);
  }
  out.check(hot.size() == kHotSet, "hot set incomplete");
  double hot_bytes = 0.0, upload_bytes = 0.0;
  for (const Template& t : hot_tmpl)
    hot_bytes += static_cast<double>(fsr::service::make_cached_image(t.bytes).approx_bytes());
  for (const Template& t : cold_tmpl) upload_bytes += static_cast<double>(t.bytes.size());
  std::printf("hot-mixed: hot set %zu binaries, %.1f MiB of images in a %d MiB cache; "
              "%zu upload templates, %.0f KB each on average\n",
              hot.size(), hot_bytes / (1 << 20), kHotCacheMb, cold_tmpl.size(),
              upload_bytes / 1e3 / static_cast<double>(cold_tmpl.size()));

  std::uint64_t tp = 0, fn = 0;
  const double cpu0 = daemon->cpu_seconds();
  const Window w = hot_window(daemon->socket(), hot, cold_tmpl, o, out, tp, fn);
  const double daemon_cpu = daemon->cpu_seconds() - cpu0;
  const DaemonStats st = daemon_stats(daemon->socket());
  const double rtt = o.trace ? ping_rtt_us(daemon->socket()) : 0.0;
  const double peak_mb = daemon->stop();

  const double recall = tp + fn == 0 ? 0.0 : static_cast<double>(tp) / static_cast<double>(tp + fn);
  out.check(recall >= 0.99, "FunSeeker recall over uploads below 99%: " + std::to_string(recall));
  std::vector<double> late = w.late_ms;
  const double late_p99 = percentile(late, 0.99);
  const Window::Lane& plain = w.lane[0];
  // A traced run's untraced lane spans five tenths of the window.
  const double rps = o.trace ? static_cast<double>(plain.completed()) / (w.wall / 2)
                             : sliced_rate(plain.done_s, w.wall);
  const double p50 = chunked_percentile(plain.hit_ms, kChunk, 0.50);
  const double p99 = chunked_percentile(plain.hit_ms, kChunk, 0.99);
  std::printf("hot-mixed: %zu untraced requests, median %.1f req/s over tenths (uploads offered "
              "%.0f/s); medians over chunks of %zu: hit p50 %.3f ms p99 %.3f ms (n=%zu); disasm "
              "p50 %.3f ms p99 %.3f ms (n=%zu); upload p50 %.3f ms p99 %.3f ms (n=%zu)\n",
              plain.completed(), rps, (kConnections - kAnalysts) * kUploadRate, kChunk, p50, p99,
              count(plain.hit_ms), chunked_percentile(plain.disasm_ms, kChunk, 0.5),
              chunked_percentile(plain.disasm_ms, kChunk, 0.99), count(plain.disasm_ms),
              chunked_percentile(plain.cold_ms, kChunk, 0.5),
              chunked_percentile(plain.cold_ms, kChunk, 0.99), count(plain.cold_ms));
  std::printf("hot-mixed: generator wake-up lateness p99 %.3f ms max %.3f ms (n=%zu); "
              "daemon peak RSS %.1f MiB; cache %g entries, %g evictions\n",
              late_p99, late.empty() ? 0.0 : late.back(), late.size(), peak_mb,
              st.image_entries, st.image_evictions);
  if (late_p99 > kMaxLateMs) {
    std::printf("hot-mixed: run invalid: the load generator fell behind its schedule "
                "(wake-up lateness p99 %.3f ms > %.0f ms)\n", late_p99, kMaxLateMs);
    std::fflush(stdout);
    std::exit(3);
  }

  const double cpu_ms = daemon_cpu * 1e3 /
                        static_cast<double>(w.lane[0].completed() + w.lane[1].completed());
  print_metric("hot_req_per_s", rps, "req/s");
  print_metric("hit_p50_ms", p50, "ms");
  print_metric("hit_p99_ms", p99, "ms");
  print_metric("disasm_p50_ms", chunked_percentile(plain.disasm_ms, kChunk, 0.50), "ms");
  print_metric("disasm_p99_ms", chunked_percentile(plain.disasm_ms, kChunk, 0.99), "ms");
  print_metric("cold_p50_ms", chunked_percentile(plain.cold_ms, kChunk, 0.50), "ms");
  print_metric("cold_p99_ms", chunked_percentile(plain.cold_ms, kChunk, 0.99), "ms");
  print_metric("daemon_cpu_ms_per_request", cpu_ms, "ms");
  if (!o.trace) {
    out.metric("setup_s", median(setups), "s");
    out.metric("peak_rss_mb", peak_mb, "MiB");
    out.metric("cpu_ms_per_op", cpu_ms, "ms");
    out.metric("p50_ms", p50, "ms");
    return out;
  }

  const LayerTotal client = layer_total(Layer::kClientRequest);
  reset_layers();
  set_tracing(true);
  fsr::service::ServiceOptions so;
  so.cache_bytes = std::size_t{kHotCacheMb} << 20;
  fsr::service::Service svc(so);
  std::vector<double> handle_hit, handle_disasm;
  replay_hot(svc, hot_tmpl, o.seed, handle_hit, handle_disasm);
  reset_layers();  // the cold replay's layer totals stand alone
  std::size_t insns = 0;
  constexpr int kRounds = 3;
  const std::vector<double> handle_cold =
      replay_cold(svc, cold_tmpl, kRounds, kReplayUploads, insns);
  set_tracing(false);
  export_trace_or_die(o);

  LayerReport rep;
  add_cold_layers(rep, handle_cold, insns, kRounds);
  const Window::Lane& traced = w.lane[1];
  std::vector<double> thit = flat(traced.hit_ms), uhit = flat(plain.hit_ms);
  add_hit_layers(rep, handle_hit, handle_disasm, uhit);
  add_daemon_layers(rep, st, rtt);
  // Uploads are timed from their due time, not inside a client span, so
  // the share is taken over the analysts' traced requests: their
  // Client::request time against, per request, the in-process handle
  // time of its class plus one round trip.
  const double client_ms = static_cast<double>(client.ns) / 1e6;
  const double attributed =
      static_cast<double>(count(traced.hit_ms)) * mean(handle_hit) +
      static_cast<double>(count(traced.disasm_ms)) * mean(handle_disasm) +
      static_cast<double>(client.calls) * rtt / 1e3;
  rep.unattributed = client_ms > 0 ? (client_ms - attributed) / client_ms : 0.0;
  rep.overhead = percentile(thit, 0.5) / percentile(uhit, 0.5) - 1.0;
  std::printf("trace: hit p50 %.3f ms in untraced tenths, %.3f ms in traced tenths\n",
              percentile(uhit, 0.5), percentile(thit, 0.5));
  rep.print_and_export(out, "hot-mixed", "analyst request time");
  return out;
}

// ------------------------------------------------------------ daemon child

int serve_main(const std::string& socket_path, const std::string& cache_mb) {
  // The daemon must not outlive the benchmark, whatever ends it.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  fsr::service::ServerOptions opts;
  opts.socket_path = socket_path;
  opts.threads = 4;
  opts.service.cache_bytes = static_cast<std::size_t>(std::stoul(cache_mb)) << 20;
  try {
    fsr::service::Server server(std::move(opts));
    server.start();
    server.wait();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench --serve: %s\n", e.what());
    return 1;
  }
  return 0;
}

}  // namespace perfbench
