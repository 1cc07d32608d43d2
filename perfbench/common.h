// Shared pieces of the perfbench binary: run options, the metric/result
// record every workload fills, sample statistics, and the span recorder the
// traced run uses.
//
// Spans are recorded from the benchmark's own files only: around its calls
// into each layer's public functions, and per engine run / per node through
// the executors' public ExecHooks seam (core/exec_hooks.h). Nothing inside
// src/ is instrumented.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/exec_hooks.h"
#include "core/graph_module.h"
#include "core/plan_cache.h"
#include "tensor/tensor.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;  // where the traced run writes its span file
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

// What one workload run hands back to main(). `end_to_end` always comes
// from untraced measurement; `per_layer` is filled by traced runs only.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> config;  // numeric configuration stamps
};

// ---- time / statistics ---------------------------------------------------

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Linear-interpolated percentile, q in [0, 1]; 0 for an empty sample.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);
// Maximum resident set size of this process, in MiB.
double peak_rss_mb();

// Bit-level tensor comparison (shape, dtype and every byte).
bool bit_equal(const fxcpp::Tensor& a, const fxcpp::Tensor& b);
// max |a - b| over all elements (infinite on a shape mismatch), and max |a|.
double max_abs_diff(const fxcpp::Tensor& a, const fxcpp::Tensor& b);
double max_abs(const fxcpp::Tensor& a);

// The latency percentiles every workload reports, in milliseconds, from
// per-op samples in seconds, in op order. Each is the window_q quantile
// (the median by default), over windows of kLatencyWindow consecutive ops,
// of that window's percentile (all ops when the run has fewer than two
// windows).
constexpr std::size_t kLatencyWindow = 1000;
void add_latency_metrics(Outcome& out, const std::vector<double>& seconds,
                         double window_q = 0.5);
// Peak RSS + the workload's median set-up time.
void add_setup_and_rss(Outcome& out, const std::vector<double>& setup_seconds);

// Process-wide counters the per-layer metrics are deltas of.
struct Counters {
  std::int64_t allocs = 0, alloc_bytes = 0;
  std::int64_t served_bytes = 0;
  std::int64_t panel_hits = 0, panel_misses = 0;
  static Counters read();
};
// tensor.alloc*/planner_served_frac and kernels.panel_* over `ops` ops.
void add_counter_metrics(Outcome& out, const Counters& before,
                         const Counters& after, double ops);
// plan_cache.* from two snapshots of one cache, over `ops` ops.
void add_plan_cache_metrics(Outcome& out, const fxcpp::fx::PlanCacheStats& a,
                            const fxcpp::fx::PlanCacheStats& b, double ops);

// ---- spans ------------------------------------------------------------------

// In-memory span recorder. Every span has a name, start, end, parent and
// request id. Self time (duration minus the time covered by child spans) is
// aggregated per name exactly for every span; the raw spans are kept up to
// kMaxRawSpans and written as chrome://tracing JSON when the run ends.
class SpanRecorder {
 public:
  static constexpr std::size_t kMaxRawSpans = 100000;

  struct Aggregate {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };

  static SpanRecorder& get();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  int intern(const std::string& name);

  // Nested spans on the calling thread (parent = the innermost open span).
  void begin(int name_id);
  void end();
  // Close every span opened on this thread above `depth` open spans.
  void unwind_to(std::size_t depth);
  std::size_t depth() const;

  // A span whose times are known after the fact (request timelines built
  // from serving timestamps), tagged with its request id. Returns its id for
  // use as a parent.
  std::int64_t add(int name_id, std::int64_t start_ns, std::int64_t end_ns,
                   std::int64_t parent, std::uint64_t request);

  Aggregate aggregate(const std::string& name) const;
  // Drop aggregates and raw spans (keeps interned names).
  void reset();
  bool write_chrome_trace(const std::string& path) const;
  std::uint64_t total_spans() const;

 private:
  struct Raw {
    int name;
    std::uint32_t tid;
    std::int64_t id, parent, start_ns, end_ns;
    std::uint64_t request;
  };
  void record(int name, std::int64_t id, std::int64_t parent,
              std::int64_t start_ns, std::int64_t end_ns, double self_ms,
              std::uint64_t request);

  std::atomic<bool> enabled_{false};
  std::atomic<std::int64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, int> name_ids_;
  std::vector<Aggregate> aggs_;
  std::vector<Raw> raw_;
  std::uint64_t total_ = 0;
};

// RAII span around a call into a layer; a no-op while tracing is off.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_;
};

// Node kind bucket of a graph node, as used by the tensor.* metrics:
// conv2d, linear, pool, elementwise (pointwise math and normalization) or
// other (views, flatten, lowered engine segments).
std::string node_kind(const fxcpp::fx::GraphModule& gm,
                      const fxcpp::fx::Node& n);

// ExecHooks that record one "exec.run" span per engine run and one
// "tensor.<kind>" span per node. register_graph() must be called for every
// module whose runs are observed (node kinds are resolved up front).
class SpanHooks : public fxcpp::fx::ExecHooks {
 public:
  void register_graph(const fxcpp::fx::GraphModule& gm);

  void on_run_begin(std::size_t num_nodes) override;
  void on_node_begin(const fxcpp::fx::Node& n) override;
  void on_node_end(const fxcpp::fx::Node& n,
                   const fxcpp::fx::RtValue& out) override;
  void on_run_end() override;

  // Engine-run durations (ms), for percentiles.
  std::vector<double> run_ms() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<const fxcpp::fx::Node*, int> kind_ids_;
  int run_id_ = 0;
  int other_id_ = 0;
  std::vector<double> run_ms_;
};

// tensor.*_ms (self time per op by node kind), exec.* metrics and
// tensor.conv2d_gflops (computed conv FLOPs per op over conv self time).
void add_exec_metrics(Outcome& out, double ops, double conv_flops_per_op);
// Mean duration per call of a named span (ms); 0 if never recorded.
double span_mean_ms(const std::string& name);

// Seed-derived image batch [n, c, h, w] (standard normal).
fxcpp::Tensor seeded_image(std::uint64_t seed, std::int64_t n, std::int64_t c,
                           std::int64_t h, std::int64_t w);

// Workloads.
Outcome run_resnet18_b1(const Options& opt);
Outcome run_serve_mlp_poisson(const Options& opt);
Outcome run_capture_resnet50(const Options& opt);

}  // namespace perfbench
