// capture_resnet50 — closed loop, one caller. One op runs the paper's three
// transformation pipelines on ResNet-50 (width 16, 1000 classes, 1x3x32x32
// example input), each on its own freshly built module (built outside the
// timed span; fuse_conv_bn rewrites the root's submodules, so a module is
// never transformed twice):
//   (a) symbolic_trace -> fuse_conv_bn -> fuse_linear_relu -> recompile ->
//       compile_planned
//   (b) quant::prepare -> calibrate -> convert
//   (c) trt::lower_to_trtsim
// After every op (untimed) each produced module runs a probe input and must
// match the eager model: fp32 paths within kFp32Tol, the int8 path within
// kInt8Tol, both relative to the largest reference output.
#include <memory>
#include <vector>

#include "common.h"
#include "core/tracer.h"
#include "nn/models/resnet.h"
#include "passes/flops.h"
#include "passes/fuse_conv_bn.h"
#include "passes/fuse_linear_relu.h"
#include "passes/memory_planner.h"
#include "quant/quantize.h"
#include "runtime/rng.h"
#include "runtime/thread_pool.h"
#include "trt/lower.h"

namespace perfbench {

using namespace fxcpp;

namespace {

constexpr int kSetups = 9;
constexpr int kCalibBatches = 2;
constexpr double kFp32Tol = 1e-4;
constexpr double kInt8Tol = 0.1;

struct Fresh {
  nn::Module::Ptr eager_a;
  std::shared_ptr<fx::GraphModule> traced_b, traced_c;
};

nn::Module::Ptr build_model(std::uint64_t seed) {
  rt::Rng::global().reseed(seed);  // every build has the same weights
  return nn::models::resnet50(16, 1000);
}

Fresh build_fresh(std::uint64_t seed) {
  Fresh f;
  f.eager_a = build_model(seed);
  f.traced_b = fx::symbolic_trace(build_model(seed));
  f.traced_c = fx::symbolic_trace(build_model(seed));
  return f;
}

struct Produced {
  std::shared_ptr<fx::GraphModule> fp32, int8;
  trt::LoweredModel lowered;
  std::size_t traced_nodes = 0;
  int fused_conv_bn = 0, fused_linear_relu = 0, converted = 0;
};

// The timed op.
Produced transform(const Fresh& f, const Tensor& example,
                   const std::vector<Tensor>& calib) {
  Span op("capture.op");
  Produced p;
  {
    Span s("pipeline.fp32");
    {
      Span t("tracer.trace");
      p.fp32 = fx::symbolic_trace(f.eager_a);
    }
    p.traced_nodes = p.fp32->graph().size();
    {
      Span t("passes.fuse_conv_bn");
      p.fused_conv_bn = passes::fuse_conv_bn(*p.fp32);
    }
    {
      Span t("passes.fuse_linear_relu");
      p.fused_linear_relu = passes::fuse_linear_relu(*p.fp32);
    }
    {
      Span t("core.recompile");
      p.fp32->recompile();
    }
    {
      Span t("passes.compile_planned");
      passes::compile_planned(*p.fp32, {example});
    }
  }
  {
    Span s("pipeline.int8");
    p.int8 = f.traced_b;
    {
      Span t("quant.prepare");
      quant::prepare(*p.int8);
    }
    {
      Span t("quant.calibrate");
      quant::calibrate(*p.int8, calib);
    }
    {
      Span t("quant.convert");
      p.converted = quant::convert(*p.int8);
    }
  }
  {
    Span s("pipeline.trt");
    Span t("trt.lower");
    p.lowered = trt::lower_to_trtsim(f.traced_c, example);
  }
  return p;
}

Tensor run_tape(fx::GraphModule& gm, const Tensor& x, fx::ExecHooks* hooks) {
  if (!gm.compiled()) gm.recompile();
  return fx::rt_tensor(
      gm.compiled_graph().run(std::vector<fx::RtValue>{x}, hooks).at(0));
}

// Largest elementwise error relative to the largest reference output.
double rel_err(const Tensor& y, const Tensor& ref) {
  return perfbench::max_abs_diff(y, ref) / perfbench::max_abs(ref);
}

}  // namespace

Outcome run_capture_resnet50(const Options& opt) {
  rt::set_num_threads(1);
  rt::set_num_interop_threads(1);
  SpanRecorder::get().set_enabled(opt.trace);

  const Tensor example = seeded_image(opt.seed * 8 + 1, 1, 3, 32, 32);
  const Tensor probe = seeded_image(opt.seed * 8 + 2, 1, 3, 32, 32);
  std::vector<Tensor> calib;
  for (int i = 0; i < kCalibBatches; ++i)
    calib.push_back(seeded_image(opt.seed * 8 + 3 + i, 1, 3, 32, 32));

  Outcome out;
  std::vector<double> setup_s;
  auto timed_set_up = [&] {
    const std::int64_t t0 = now_ns();
    transform(build_fresh(opt.seed), example, calib);  // warm-up op
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  };
  timed_set_up();
  const Tensor ref =
      build_model(opt.seed)->forward({fx::Value(probe)}).tensor();

  // Check (untimed): each produced module against the eager reference.
  double fp32_err = 0.0, int8_err = 0.0;  // worst seen
  auto check = [&](Produced& p, fx::ExecHooks* hooks) {
    const Tensor ya = fx::rt_tensor(
        p.fp32->run_planned(std::vector<fx::RtValue>{probe}, hooks).at(0));
    const Tensor yb = run_tape(*p.int8, probe, hooks);
    const Tensor yc = run_tape(*p.lowered.module, probe, hooks);
    const double ef = std::max(rel_err(ya, ref), rel_err(yc, ref));
    const double ei = rel_err(yb, ref);
    fp32_err = std::max(fp32_err, ef);
    int8_err = std::max(int8_err, ei);
    return ef <= kFp32Tol && ei <= kInt8Tol;
  };

  struct PhaseResult {
    std::vector<double> latency;
    fx::PlanCacheStats cache;  // summed over every op's fresh cache
    Produced last;
  };
  // Ops until `seconds` elapse, with `setups` further set-ups timed at
  // evenly spaced points (see resnet18_b1.cc).
  auto phase = [&](double seconds, SpanHooks* hooks, int setups) {
    PhaseResult r;
    const std::int64_t start = now_ns();
    const std::int64_t len = static_cast<std::int64_t>(seconds * 1e9);
    for (int done = 0;;) {
      if (done < setups && now_ns() >= start + len * (done + 1) / (setups + 1)) {
        timed_set_up();
        ++done;
      }
      if (now_ns() >= start + len) break;
      bool ok = false;
      try {
        const Fresh f = build_fresh(opt.seed);
        const std::int64_t t0 = now_ns();
        Produced p = transform(f, example, calib);
        r.latency.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
        if (hooks) {
          hooks->register_graph(*p.fp32);
          hooks->register_graph(*p.int8);
          hooks->register_graph(*p.lowered.module);
        }
        ok = check(p, hooks);
        const fx::PlanCacheStats s = p.fp32->plan_cache()->stats();
        r.cache.hits += s.hits;
        r.cache.misses += s.misses;
        r.cache.replans += s.replans;
        r.last = std::move(p);
      } catch (const std::exception&) {
      }
      ++out.attempted;
      if (!ok) ++out.failed;
    }
    return r;
  };

  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  SpanRecorder::get().set_enabled(false);
  const PhaseResult u = phase(untraced_s, nullptr, kSetups - 1);
  double busy = 0.0;
  for (double s : u.latency) busy += s;
  add_setup_and_rss(out, setup_s);
  add_latency_metrics(out, u.latency);
  out.end_to_end.push_back({"throughput_per_s", "1/s",
                            static_cast<double>(u.latency.size()) / busy});
  out.config.push_back({"fp32_tolerance", "ratio", kFp32Tol});
  out.config.push_back({"int8_tolerance", "ratio", kInt8Tol});
  out.config.push_back({"fp32_max_err", "ratio", fp32_err});
  out.config.push_back({"int8_max_err", "ratio", int8_err});

  if (opt.trace) {
    SpanRecorder::get().set_enabled(true);
    SpanRecorder::get().reset();  // per-op span means from the traced half
    SpanHooks hooks;
    const Counters c0 = Counters::read();
    const PhaseResult t = phase(opt.seconds - untraced_s, &hooks, 0);
    const Counters c1 = Counters::read();
    const double ops = static_cast<double>(t.latency.size());
    // Conv FLOPs per op: the fp32 and int8 probe runs execute the same
    // convolutions (the TRTSim engine runs as one opaque segment).
    double conv_flops = 0.0;
    for (const passes::NodeCost& c :
         passes::estimate_cost(*t.last.fp32).per_node)
      if (c.node && node_kind(*t.last.fp32, *c.node) == "conv2d")
        conv_flops += c.flops;
    add_exec_metrics(out, ops, 2.0 * conv_flops);
    add_counter_metrics(out, c0, c1, ops);
    add_plan_cache_metrics(out, fx::PlanCacheStats{}, t.cache, ops);
    auto& m = out.per_layer;
    const auto plan = t.last.fp32->plan();
    m.push_back({"plan.arena_kb", "KiB",
                 plan ? static_cast<double>(plan->arena_bytes) / 1024.0 : 0.0});
    m.push_back({"plan.planned_frac", "ratio",
                 plan ? plan->planned_fraction() : 0.0});
    m.push_back({"tracer.trace_ms", "ms", span_mean_ms("tracer.trace")});
    m.push_back({"tracer.nodes", "count",
                 static_cast<double>(t.last.traced_nodes)});
    m.push_back({"core.recompile_ms", "ms", span_mean_ms("core.recompile")});
    m.push_back({"passes.fuse_conv_bn_ms", "ms",
                 span_mean_ms("passes.fuse_conv_bn")});
    m.push_back({"passes.fuse_conv_bn_count", "count",
                 static_cast<double>(t.last.fused_conv_bn)});
    m.push_back({"passes.fuse_linear_relu_ms", "ms",
                 span_mean_ms("passes.fuse_linear_relu")});
    m.push_back({"passes.fuse_linear_relu_count", "count",
                 static_cast<double>(t.last.fused_linear_relu)});
    m.push_back({"passes.compile_planned_ms", "ms",
                 span_mean_ms("passes.compile_planned")});
    m.push_back({"passes.nodes_after", "count",
                 static_cast<double>(t.last.fp32->graph().size())});
    m.push_back({"quant.prepare_ms", "ms", span_mean_ms("quant.prepare")});
    m.push_back({"quant.calibrate_ms", "ms", span_mean_ms("quant.calibrate")});
    m.push_back({"quant.convert_ms", "ms", span_mean_ms("quant.convert")});
    m.push_back({"quant.ops_converted", "count",
                 static_cast<double>(t.last.converted)});
    m.push_back({"trt.lower_ms", "ms", span_mean_ms("trt.lower")});
    m.push_back({"trt.engine_segments", "count",
                 static_cast<double>(t.last.lowered.engine_segments)});
    m.push_back({"trace.overhead_ms", "ms",
                 (median(t.latency) - median(u.latency)) * 1e3});
    m.push_back({"trace.latency_p50_ms", "ms", median(t.latency) * 1e3});
  }
  out.correct = out.failed == 0;
  return out;
}

}  // namespace perfbench
