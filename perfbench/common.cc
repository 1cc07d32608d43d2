#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "runtime/rng.h"
#include "tensor/pack_cache.h"

namespace perfbench {

using namespace fxcpp;

// ---- statistics -------------------------------------------------------------

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

bool bit_equal(const Tensor& a, const Tensor& b) {
  if (a.sizes() != b.sizes() || a.dtype() != b.dtype()) return false;
  const Tensor ac = a.contiguous(), bc = b.contiguous();
  return std::memcmp(ac.data<float>(), bc.data<float>(),
                     static_cast<std::size_t>(ac.numel()) * sizeof(float)) ==
         0;
}

double max_abs_diff(const Tensor& a, const Tensor& b) {
  if (a.sizes() != b.sizes()) return INFINITY;
  const Tensor ac = a.contiguous(), bc = b.contiguous();
  const float* pa = ac.data<float>();
  const float* pb = bc.data<float>();
  double d = 0.0;
  for (std::int64_t i = 0; i < ac.numel(); ++i) {
    const double e = std::fabs(static_cast<double>(pa[i]) - pb[i]);
    if (!(e <= d)) d = e;  // NaN propagates as a failure
  }
  return d;
}

double max_abs(const Tensor& a) {
  const Tensor ac = a.contiguous();
  const float* p = ac.data<float>();
  double m = 0.0;
  for (std::int64_t i = 0; i < ac.numel(); ++i)
    m = std::max(m, std::fabs(static_cast<double>(p[i])));
  return m;
}

void add_latency_metrics(Outcome& out, const std::vector<double>& all,
                         double window_q) {
  // Percentiles per window of kLatencyWindow consecutive ops, then the
  // window_q quantile across windows: a host stall that hits one window
  // moves that window's tail only. Runs shorter than two windows use all
  // samples.
  const std::size_t windows = all.size() / kLatencyWindow;
  std::vector<std::vector<double>> per_q(3);
  const double qs[3] = {0.50, 0.90, 0.99};
  for (std::size_t w = 0; w < std::max<std::size_t>(windows, 1); ++w) {
    const bool whole = windows < 2;
    const auto b = all.begin() + static_cast<std::ptrdiff_t>(
                                     whole ? 0 : w * kLatencyWindow);
    const auto e = whole ? all.end()
                         : b + static_cast<std::ptrdiff_t>(kLatencyWindow);
    const std::vector<double> win(b, e);
    for (int i = 0; i < 3; ++i) per_q[i].push_back(percentile(win, qs[i]));
    if (whole) break;
  }
  out.end_to_end.push_back(
      {"latency_p50_ms", "ms", percentile(per_q[0], window_q) * 1e3});
  out.end_to_end.push_back(
      {"latency_p90_ms", "ms", percentile(per_q[1], window_q) * 1e3});
  out.end_to_end.push_back(
      {"latency_p99_ms", "ms", percentile(per_q[2], window_q) * 1e3});
  out.config.push_back(
      {"latency_samples", "count", static_cast<double>(all.size())});
  out.config.push_back(
      {"latency_windows", "count", static_cast<double>(per_q[0].size())});
  // Whole-run figures, host stalls included.
  out.config.push_back(
      {"latency_run_p99_ms", "ms", percentile(all, 0.99) * 1e3});
  out.config.push_back(
      {"latency_run_max_ms", "ms", percentile(all, 1.0) * 1e3});
}

void add_setup_and_rss(Outcome& out, const std::vector<double>& setup_seconds) {
  out.end_to_end.push_back({"setup_s", "s", median(setup_seconds)});
  out.end_to_end.push_back({"peak_rss_mb", "MB", peak_rss_mb()});
  out.config.push_back({"setup_repeats", "count",
                        static_cast<double>(setup_seconds.size())});
}

Counters Counters::read() {
  Counters c;
  c.allocs = Storage::allocation_count();
  c.alloc_bytes = Storage::total_allocated_bytes();
  c.served_bytes = Storage::planner_served_bytes();
  const PackCache::GlobalStats g = PackCache::global_stats();
  c.panel_hits = g.panel_hits;
  c.panel_misses = g.panel_misses;
  return c;
}

void add_counter_metrics(Outcome& out, const Counters& a, const Counters& b,
                         double ops) {
  const double n = std::max(ops, 1.0);
  const double heap_bytes = static_cast<double>(b.alloc_bytes - a.alloc_bytes);
  const double served = static_cast<double>(b.served_bytes - a.served_bytes);
  const double hits = static_cast<double>(b.panel_hits - a.panel_hits);
  const double misses = static_cast<double>(b.panel_misses - a.panel_misses);
  auto& m = out.per_layer;
  m.push_back({"tensor.allocs_per_op", "count",
               static_cast<double>(b.allocs - a.allocs) / n});
  m.push_back({"tensor.alloc_bytes_per_op", "B", heap_bytes / n});
  m.push_back({"tensor.planner_served_frac", "ratio",
               served + heap_bytes > 0 ? served / (served + heap_bytes) : 0.0});
  m.push_back({"kernels.panel_misses_per_op", "count", misses / n});
  m.push_back({"kernels.panel_hit_ratio", "ratio",
               hits + misses > 0 ? hits / (hits + misses) : 0.0});
}

void add_plan_cache_metrics(Outcome& out, const fx::PlanCacheStats& a,
                            const fx::PlanCacheStats& b, double ops) {
  const double hits = static_cast<double>(b.hits - a.hits);
  const double misses = static_cast<double>(b.misses - a.misses);
  auto& m = out.per_layer;
  m.push_back({"plan_cache.hits", "count", hits});
  m.push_back({"plan_cache.misses", "count", misses});
  m.push_back({"plan_cache.hit_ratio", "ratio",
               hits + misses > 0 ? hits / (hits + misses) : 0.0});
  m.push_back(
      {"plan_cache.misses_per_op", "count", misses / std::max(ops, 1.0)});
  m.push_back({"plan_cache.inserts_per_op", "count",
               static_cast<double>(b.replans - a.replans) /
                   std::max(ops, 1.0)});
}

// ---- spans ------------------------------------------------------------------

namespace {

struct Open {
  int name;
  std::int64_t id, parent, start_ns;
  double child_ms;
};

thread_local std::vector<Open> t_stack;
std::atomic<std::uint32_t> g_next_tid{0};
thread_local std::uint32_t t_tid = g_next_tid.fetch_add(1);

}  // namespace

SpanRecorder& SpanRecorder::get() {
  static SpanRecorder r;
  return r;
}

int SpanRecorder::intern(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  const int id = static_cast<int>(names_.size());
  names_.push_back(name);
  aggs_.emplace_back();
  name_ids_.emplace(name, id);
  return id;
}

void SpanRecorder::begin(int name_id) {
  const std::int64_t parent = t_stack.empty() ? -1 : t_stack.back().id;
  t_stack.push_back({name_id, next_id_.fetch_add(1), parent, now_ns(), 0.0});
}

void SpanRecorder::end() {
  if (t_stack.empty()) return;
  const Open o = t_stack.back();
  t_stack.pop_back();
  const std::int64_t end_ns = now_ns();
  const double dur_ms = static_cast<double>(end_ns - o.start_ns) * 1e-6;
  if (!t_stack.empty()) t_stack.back().child_ms += dur_ms;
  record(o.name, o.id, o.parent, o.start_ns, end_ns, dur_ms - o.child_ms, 0);
}

void SpanRecorder::unwind_to(std::size_t depth) {
  while (t_stack.size() > depth) end();
}

std::size_t SpanRecorder::depth() const { return t_stack.size(); }

std::int64_t SpanRecorder::add(int name_id, std::int64_t start_ns,
                               std::int64_t end_ns, std::int64_t parent,
                               std::uint64_t request) {
  const std::int64_t id = next_id_.fetch_add(1);
  // Children added later are not subtracted: an after-the-fact span's self
  // time is its full duration.
  record(name_id, id, parent, start_ns, end_ns,
         static_cast<double>(end_ns - start_ns) * 1e-6, request);
  return id;
}

void SpanRecorder::record(int name, std::int64_t id, std::int64_t parent,
                          std::int64_t start_ns, std::int64_t end_ns,
                          double self_ms, std::uint64_t request) {
  std::lock_guard<std::mutex> lk(mu_);
  Aggregate& a = aggs_[static_cast<std::size_t>(name)];
  ++a.count;
  a.total_ms += static_cast<double>(end_ns - start_ns) * 1e-6;
  a.self_ms += self_ms;
  ++total_;
  if (raw_.size() < kMaxRawSpans)
    raw_.push_back({name, t_tid, id, parent, start_ns, end_ns, request});
}

SpanRecorder::Aggregate SpanRecorder::aggregate(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = name_ids_.find(name);
  return it == name_ids_.end() ? Aggregate{}
                               : aggs_[static_cast<std::size_t>(it->second)];
}

void SpanRecorder::reset() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& a : aggs_) a = Aggregate{};
  raw_.clear();
  total_ = 0;
}

std::uint64_t SpanRecorder::total_spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return total_;
}

bool SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::ofstream f(path);
  if (!f) return false;
  std::int64_t t0 = 0;
  for (std::size_t i = 0; i < raw_.size(); ++i)
    if (i == 0 || raw_[i].start_ns < t0) t0 = raw_[i].start_ns;
  f << "{\"displayTimeUnit\":\"ms\",\"spans_total\":" << total_
    << ",\"spans_written\":" << raw_.size() << ",\"traceEvents\":[\n";
  char buf[512];
  for (std::size_t i = 0; i < raw_.size(); ++i) {
    const Raw& r = raw_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,"
                  "\"parent\":%lld,\"request\":%llu}}\n",
                  i ? "," : "", names_[static_cast<std::size_t>(r.name)].c_str(),
                  r.tid, static_cast<double>(r.start_ns - t0) * 1e-3,
                  static_cast<double>(r.end_ns - r.start_ns) * 1e-3,
                  static_cast<long long>(r.id), static_cast<long long>(r.parent),
                  static_cast<unsigned long long>(r.request));
    f << buf;
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

Span::Span(const char* name) : on_(SpanRecorder::get().enabled()) {
  if (on_) {
    SpanRecorder& r = SpanRecorder::get();
    r.begin(r.intern(name));
  }
}

Span::~Span() {
  if (on_) SpanRecorder::get().end();
}

double span_mean_ms(const std::string& name) {
  const SpanRecorder::Aggregate a = SpanRecorder::get().aggregate(name);
  return a.count ? a.total_ms / static_cast<double>(a.count) : 0.0;
}

// ---- node kinds + hooks -----------------------------------------------------

std::string node_kind(const fx::GraphModule& gm, const fx::Node& n) {
  std::string what;
  switch (n.op()) {
    case fx::Opcode::CallModule:
      what = gm.resolve_module(n.target())->kind();
      break;
    case fx::Opcode::CallFunction:
    case fx::Opcode::CallMethod:
      what = n.target();
      break;
    default:
      return "other";
  }
  std::string low;
  for (char c : what) low.push_back(static_cast<char>(std::tolower(c)));
  auto has = [&](const char* s) { return low.find(s) != std::string::npos; };
  if (has("conv")) return "conv2d";
  if (has("linear") || has("matmul") || has("addmm")) return "linear";
  if (has("pool")) return "pool";
  if (has("flatten") || has("view") || has("reshape") || has("trtsim") ||
      has("getitem") || has("size") || has("graphmodule"))
    return "other";
  return "elementwise";
}

namespace {
thread_local std::vector<std::pair<std::int64_t, std::size_t>> t_runs;
}  // namespace

void SpanHooks::register_graph(const fx::GraphModule& gm) {
  SpanRecorder& r = SpanRecorder::get();
  run_id_ = r.intern("exec.run");
  other_id_ = r.intern("tensor.other");
  for (const fx::Node* n : gm.graph().nodes())
    kind_ids_[n] = r.intern("tensor." + node_kind(gm, *n));
}

void SpanHooks::on_run_begin(std::size_t) {
  SpanRecorder& r = SpanRecorder::get();
  t_runs.emplace_back(now_ns(), r.depth());
  r.begin(run_id_);
}

void SpanHooks::on_node_begin(const fx::Node& n) {
  auto it = kind_ids_.find(&n);
  SpanRecorder::get().begin(it == kind_ids_.end() ? other_id_ : it->second);
}

void SpanHooks::on_node_end(const fx::Node&, const fx::RtValue&) {
  SpanRecorder::get().end();
}

void SpanHooks::on_run_end() {
  if (t_runs.empty()) return;
  const auto [start, depth] = t_runs.back();
  t_runs.pop_back();
  SpanRecorder& r = SpanRecorder::get();
  // A node that threw left its span open; close it with the run.
  r.unwind_to(depth + 1);
  r.end();
  const double ms = static_cast<double>(now_ns() - start) * 1e-6;
  std::lock_guard<std::mutex> lk(mu_);
  run_ms_.push_back(ms);
}

std::vector<double> SpanHooks::run_ms() const {
  std::lock_guard<std::mutex> lk(mu_);
  return run_ms_;
}

void add_exec_metrics(Outcome& out, double ops, double conv_flops_per_op) {
  SpanRecorder& r = SpanRecorder::get();
  const double n = std::max(ops, 1.0);
  auto& m = out.per_layer;
  double node_self = 0.0;
  double conv_ms = 0.0;
  for (const char* k : {"conv2d", "linear", "pool", "elementwise", "other"}) {
    const double self = r.aggregate(std::string("tensor.") + k).self_ms;
    node_self += self;
    if (std::strcmp(k, "conv2d") == 0) conv_ms = self / n;
    m.push_back({std::string("tensor.") + k + "_ms", "ms", self / n});
  }
  m.push_back({"tensor.conv2d_gflops", "GFLOP/s",
               conv_ms > 0 ? conv_flops_per_op / (conv_ms * 1e-3) / 1e9 : 0.0});
  const SpanRecorder::Aggregate run = r.aggregate("exec.run");
  const double runs = std::max<double>(static_cast<double>(run.count), 1.0);
  const std::uint64_t node_spans =
      r.aggregate("tensor.conv2d").count + r.aggregate("tensor.linear").count +
      r.aggregate("tensor.pool").count +
      r.aggregate("tensor.elementwise").count +
      r.aggregate("tensor.other").count;
  m.push_back({"exec.runs", "count", static_cast<double>(run.count)});
  m.push_back({"exec.run_ms", "ms", run.total_ms / runs});
  m.push_back({"exec.node_self_ms", "ms", node_self / runs});
  m.push_back({"exec.overhead_ms", "ms", run.self_ms / runs});
  m.push_back(
      {"exec.nodes_per_run", "count", static_cast<double>(node_spans) / runs});
}

Tensor seeded_image(std::uint64_t seed, std::int64_t n, std::int64_t c,
                    std::int64_t h, std::int64_t w) {
  rt::Rng rng(0x1A6Eu ^ (seed * 0x9E3779B97F4A7C15ull));
  std::vector<float> v(static_cast<std::size_t>(n * c * h * w));
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return Tensor::from_vector(v, {n, c, h, w});
}

}  // namespace perfbench
