// resnet18_b1 — closed loop, one caller: back-to-back planned forwards of a
// traced + fused ResNet-18 on one 1x3x32x32 image, serial intra- and
// inter-op threads. Every output is checked bit-for-bit against an
// Interpreter run of the same transformed module computed at set-up.
#include <memory>
#include <vector>

#include "common.h"
#include "core/interpreter.h"
#include "core/tracer.h"
#include "nn/models/resnet.h"
#include "passes/flops.h"
#include "passes/fuse_conv_bn.h"
#include "passes/fuse_linear_relu.h"
#include "passes/memory_planner.h"
#include "runtime/rng.h"
#include "runtime/thread_pool.h"

namespace perfbench {

using namespace fxcpp;

namespace {

constexpr int kSetups = 9;
constexpr int kWarmup = 50;
constexpr int kImages = 4;

struct Ready {
  std::shared_ptr<fx::GraphModule> gm;
  std::size_t traced_nodes = 0;
  int fused_conv_bn = 0;
  int fused_linear_relu = 0;
};

// Model build -> capture -> transforms -> planning -> warm-up: what a user
// pays before the first served forward.
Ready set_up(std::uint64_t seed, const std::vector<Tensor>& images) {
  rt::Rng::global().reseed(seed);  // identical weights on every repeat
  auto model = nn::models::resnet18(16, 64);
  Ready r;
  {
    Span s("tracer.trace");
    r.gm = fx::symbolic_trace(model);
  }
  r.traced_nodes = r.gm->graph().size();
  {
    Span s("passes.fuse_conv_bn");
    r.fused_conv_bn = passes::fuse_conv_bn(*r.gm);
  }
  {
    Span s("passes.fuse_linear_relu");
    r.fused_linear_relu = passes::fuse_linear_relu(*r.gm);
  }
  {
    Span s("core.recompile");
    r.gm->recompile();
  }
  {
    Span s("passes.compile_planned");
    passes::compile_planned(*r.gm, {images[0]});
  }
  for (int i = 0; i < kWarmup; ++i)
    r.gm->run_planned(std::vector<fx::RtValue>{images[i % kImages]});
  return r;
}

}  // namespace

Outcome run_resnet18_b1(const Options& opt) {
  rt::set_num_threads(1);
  rt::set_num_interop_threads(1);
  SpanRecorder::get().set_enabled(opt.trace);

  std::vector<Tensor> images;
  for (int i = 0; i < kImages; ++i)
    images.push_back(seeded_image(opt.seed * kImages + i, 1, 3, 32, 32));

  Outcome out;
  std::vector<double> setup_s;
  auto timed_set_up = [&] {
    const std::int64_t t0 = now_ns();
    Ready r = set_up(opt.seed, images);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    return r;
  };
  const Ready ready = timed_set_up();
  fx::GraphModule& gm = *ready.gm;

  // Reference outputs: the paper's reference executor on the same module.
  std::vector<Tensor> refs;
  for (const Tensor& x : images)
    refs.push_back(fx::rt_tensor(fx::Interpreter(gm).run(x)));

  // One timed phase: forwards until `seconds` elapse. `setups` further
  // set-ups are timed at evenly spaced points of the phase and discarded,
  // so setup_s samples the same host conditions as the forwards; their time
  // is not op time.
  auto phase = [&](double seconds, fx::ExecHooks* hooks,
                   std::vector<double>& lat, int setups) {
    const std::int64_t start = now_ns();
    const std::int64_t len = static_cast<std::int64_t>(seconds * 1e9);
    int done = 0;
    for (std::size_t i = 0;; ++i) {
      if (done < setups && now_ns() >= start + len * (done + 1) / (setups + 1)) {
        timed_set_up();
        ++done;
      }
      const std::int64_t t = now_ns();
      if (t >= start + len) break;
      const std::size_t k = i % kImages;
      bool ok = false;
      try {
        auto res = gm.run_planned(std::vector<fx::RtValue>{images[k]}, hooks);
        lat.push_back(static_cast<double>(now_ns() - t) * 1e-9);
        ok = bit_equal(fx::rt_tensor(res.at(0)), refs[k]);
      } catch (const std::exception&) {
      }
      ++out.attempted;
      if (!ok) ++out.failed;
    }
  };

  // End-to-end numbers come from an untraced phase; a traced run spends
  // half its time untraced (for the tracing-overhead figure) and half with
  // node hooks attached.
  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  SpanRecorder::get().set_enabled(false);
  std::vector<double> lat;
  phase(untraced_s, nullptr, lat, kSetups - 1);
  double busy = 0.0;
  for (double x : lat) busy += x;
  add_setup_and_rss(out, setup_s);
  add_latency_metrics(out, lat);
  out.end_to_end.push_back({"throughput_per_s", "1/s",
                            static_cast<double>(lat.size()) / busy});

  if (opt.trace) {
    SpanRecorder::get().set_enabled(true);
    SpanHooks hooks;
    hooks.register_graph(gm);
    double conv_flops = 0.0;
    for (const passes::NodeCost& c : passes::estimate_cost(gm).per_node)
      if (c.node && node_kind(gm, *c.node) == "conv2d") conv_flops += c.flops;
    const auto cache0 = gm.plan_cache()->stats();
    const Counters c0 = Counters::read();
    std::vector<double> traced;
    phase(opt.seconds - untraced_s, &hooks, traced, 0);
    const Counters c1 = Counters::read();
    const auto cache1 = gm.plan_cache()->stats();
    const double ops = static_cast<double>(traced.size());
    add_exec_metrics(out, ops, conv_flops);
    add_counter_metrics(out, c0, c1, ops);
    add_plan_cache_metrics(out, cache0, cache1, ops);
    auto& m = out.per_layer;
    const auto plan = gm.plan();
    m.push_back({"plan.arena_kb", "KiB",
                 plan ? static_cast<double>(plan->arena_bytes) / 1024.0 : 0.0});
    m.push_back({"plan.planned_frac", "ratio",
                 plan ? plan->planned_fraction() : 0.0});
    m.push_back({"tracer.trace_ms", "ms", span_mean_ms("tracer.trace")});
    m.push_back({"tracer.nodes", "count",
                 static_cast<double>(ready.traced_nodes)});
    m.push_back({"core.recompile_ms", "ms", span_mean_ms("core.recompile")});
    m.push_back({"passes.fuse_conv_bn_ms", "ms",
                 span_mean_ms("passes.fuse_conv_bn")});
    m.push_back({"passes.fuse_conv_bn_count", "count",
                 static_cast<double>(ready.fused_conv_bn)});
    m.push_back({"passes.fuse_linear_relu_ms", "ms",
                 span_mean_ms("passes.fuse_linear_relu")});
    m.push_back({"passes.fuse_linear_relu_count", "count",
                 static_cast<double>(ready.fused_linear_relu)});
    m.push_back({"passes.compile_planned_ms", "ms",
                 span_mean_ms("passes.compile_planned")});
    m.push_back({"passes.nodes_after", "count",
                 static_cast<double>(gm.graph().size())});
    m.push_back({"trace.overhead_ms", "ms",
                 (median(traced) - median(lat)) * 1e3});
    m.push_back({"trace.latency_p50_ms", "ms", median(traced) * 1e3});
  }
  out.correct = out.failed == 0;
  return out;
}

}  // namespace perfbench
