// serve_mlp_poisson — open loop: one generator thread sends requests on a
// seeded Poisson schedule at a fixed rate to an InferenceSession (default
// ServeOptions apart from the admission queue depth) over the deep serving
// MLP (64 -> 8x64 -> 64) with a batch-bucketed PlanCache. The same thread
// takes the responses between sends. Latency runs from each request's due
// time, so a stalled generator charges the wait to the requests it delayed.
// Every ok response is checked bit-for-bit against an Interpreter result
// for its input, drawn from a fixed seeded pool.
#include <chrono>
#include <cmath>
#include <deque>
#include <future>
#include <memory>
#include <vector>

#include "common.h"
#include "core/interpreter.h"
#include "core/tracer.h"
#include "nn/models/mlp.h"
#include "passes/memory_planner.h"
#include "runtime/rng.h"
#include "serve/loadgen.h"
#include "serve/session.h"

namespace perfbench {

using namespace fxcpp;

namespace {

constexpr std::int64_t kFeat = 64;
constexpr double kRatePerS = 8000.0;
constexpr int kPool = 256;
constexpr int kSetups = 9;
constexpr int kWarmup = 64;
// Admission bound (a deployment setting): deep enough that a ~15 ms stall
// of the machine at kRatePerS (~240 queued requests) stays far below the
// Normal-priority shed watermark (3/4 of the depth).
constexpr std::size_t kQueueDepth = 4096;
// Responses are taken only while the next send is at least this far off.
constexpr std::int64_t kCollectMarginNs = 20000;
// Latency percentiles are the lower quartile over 1000-request windows (the
// other workloads take the median). Host stalls come in bursts that can
// touch most windows of a run; a change to the server moves every window.
constexpr double kWindowQ = 0.25;

serve::ServeOptions serve_options(fx::ExecHooks* hooks) {
  serve::ServeOptions o;
  o.max_queue_depth = kQueueDepth;
  o.hooks = hooks;
  return o;
}

struct Ready {
  std::shared_ptr<fx::GraphModule> gm;
  std::unique_ptr<serve::InferenceSession> session;
  std::size_t traced_nodes = 0;
};

// Model build -> capture -> planning (+ every batch bucket) -> session ->
// warm-up requests.
Ready set_up(std::uint64_t seed, const std::vector<Tensor>& pool) {
  rt::Rng::global().reseed(seed);
  std::vector<std::int64_t> dims(1, kFeat);
  dims.insert(dims.end(), 8, 64);
  dims.push_back(64);
  auto model = nn::models::mlp(dims);
  Ready r;
  {
    Span s("tracer.trace");
    r.gm = fx::symbolic_trace(model);
  }
  r.traced_nodes = r.gm->graph().size();
  {
    Span s("passes.compile_planned");
    fx::PlanCacheOptions po;
    po.bucket_batch_dim = true;
    passes::compile_planned(*r.gm, {serve::request_input(0, 4, kFeat)}, po);
  }
  for (const std::int64_t rows : {1, 2, 4, 8, 16})
    r.gm->run_planned(serve::request_input(99, rows, kFeat));
  r.session =
      std::make_unique<serve::InferenceSession>(r.gm, serve_options(nullptr));
  for (int i = 0; i < kWarmup; ++i) r.session->run(pool[i % kPool]);
  return r;
}

struct Pending {
  serve::Ticket ticket;
  int idx = 0;
  std::int64_t due_ns = 0, submit_ns = 0;
};

struct PhaseResult {
  std::vector<double> latency, late, queue, exec;  // seconds
  std::uint64_t attempted = 0, failed = 0, shed = 0, expired = 0, ok = 0;
  double wall = 0.0;
};

PhaseResult phase(serve::InferenceSession& session, double seconds,
                  std::uint64_t seed, const std::vector<Tensor>& pool,
                  const std::vector<Tensor>& refs) {
  PhaseResult res;
  std::deque<Pending> inflight;
  const bool tracing = SpanRecorder::get().enabled();
  SpanRecorder& rec = SpanRecorder::get();
  const int req_id = rec.intern("serve.request");
  const int late_id = rec.intern("loadgen.late");
  const int queue_id = rec.intern("serve.queue_wait");
  const int exec_id = rec.intern("serve.exec");

  const std::int64_t start = now_ns() + 1000000;
  std::int64_t last_end = start;
  std::uint64_t n = 0;
  // Takes the oldest in-flight response (waiting for it if need be). The
  // server stamps its own times, so when the response is taken does not
  // change the latency it reports.
  auto collect = [&] {
    Pending p = std::move(inflight.front());
    inflight.pop_front();
    const serve::Response r = p.ticket.response.get();
    const std::int64_t exec_ns =
        p.submit_ns + static_cast<std::int64_t>(r.queue_seconds * 1e9);
    const std::int64_t end_ns =
        p.submit_ns + static_cast<std::int64_t>(r.total_seconds * 1e9);
    last_end = std::max(last_end, end_ns);
    ++n;
    if (tracing) {
      const std::int64_t root = rec.add(req_id, p.due_ns, end_ns, -1, n);
      rec.add(late_id, p.due_ns, p.submit_ns, root, n);
      rec.add(queue_id, p.submit_ns, exec_ns, root, n);
      rec.add(exec_id, exec_ns, end_ns, root, n);
    }
    if (!r.ok) {
      ++res.failed;
      if (r.code == ErrorCode::AdmissionRejected ||
          r.code == ErrorCode::CircuitOpen)
        ++res.shed;
      if (r.code == ErrorCode::DeadlineExceeded) ++res.expired;
      return;
    }
    if (!bit_equal(r.output, refs[static_cast<std::size_t>(p.idx)])) {
      ++res.failed;
      return;
    }
    ++res.ok;
    res.latency.push_back(static_cast<double>(end_ns - p.due_ns) * 1e-9);
    res.queue.push_back(r.queue_seconds);
    res.exec.push_back(r.total_seconds - r.queue_seconds);
  };
  auto ready = [](const Pending& p) {
    return p.ticket.response.wait_for(std::chrono::seconds(0)) ==
           std::future_status::ready;
  };

  // The generator is the only client thread: between sends it takes the
  // responses that are ready, then spins until the next due time. It never
  // sleeps or yields, so a send does not wait for the scheduler to hand
  // its core back.
  rt::Rng rng(0x9015Eu ^ (seed * 0x9E3779B97F4A7C15ull));
  const std::int64_t stop = start + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t due = start;
  for (;;) {
    due += static_cast<std::int64_t>(-std::log(1.0 - rng.uniform()) /
                                     kRatePerS * 1e9);
    if (due >= stop) break;
    const int idx = static_cast<int>(rng.randint(0, kPool - 1));
    while (!inflight.empty() && ready(inflight.front()) &&
           now_ns() < due - kCollectMarginNs)
      collect();
    while (now_ns() < due) {
    }
    Pending p;
    p.idx = idx;
    p.due_ns = due;
    p.submit_ns = now_ns();
    p.ticket = session.submit(pool[static_cast<std::size_t>(idx)]);
    res.late.push_back(static_cast<double>(p.submit_ns - due) * 1e-9);
    ++res.attempted;
    inflight.push_back(std::move(p));
  }
  while (!inflight.empty()) collect();
  res.wall = static_cast<double>(last_end - start) * 1e-9;
  return res;
}

}  // namespace

Outcome run_serve_mlp_poisson(const Options& opt) {
  // Threads stay at the library defaults (the session's private pool plus
  // the default intra-op setting; GEMMs of <= 16 rows never split).
  SpanRecorder::get().set_enabled(opt.trace);

  // Fixed seeded input pool with the Zipf row mix of the serving benches.
  std::vector<Tensor> pool;
  {
    rt::Rng rows_rng(0x2009Fu ^ opt.seed);
    for (int i = 0; i < kPool; ++i)
      pool.push_back(serve::request_input(opt.seed * 1000003ull + i,
                                          serve::zipf_rows(rows_rng), kFeat));
  }

  // All set-ups happen before the open-loop phase, which cannot pause: a
  // set-up inside it would compete with the traffic.
  Outcome out;
  std::vector<double> setup_s;
  Ready ready;
  for (int i = 0; i < kSetups; ++i) {
    ready.session.reset();  // a repeat stands up a fresh session
    const std::int64_t t0 = now_ns();
    ready = set_up(opt.seed, pool);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  fx::GraphModule& gm = *ready.gm;
  std::vector<Tensor> refs;
  for (const Tensor& x : pool)
    refs.push_back(fx::rt_tensor(fx::Interpreter(gm).run(x)));

  const double untraced_s = opt.trace ? opt.seconds / 2 : opt.seconds;
  SpanRecorder::get().set_enabled(false);
  const PhaseResult u =
      phase(*ready.session, untraced_s, opt.seed, pool, refs);
  ready.session->shutdown();
  out.attempted += u.attempted;
  out.failed += u.failed;
  add_setup_and_rss(out, setup_s);
  add_latency_metrics(out, u.latency, kWindowQ);
  out.end_to_end.push_back({"throughput_per_s", "1/s",
                            static_cast<double>(u.ok) / u.wall});
  out.config.push_back({"rate_per_s", "1/s", kRatePerS});
  out.config.push_back({"max_queue_depth", "count",
                        static_cast<double>(kQueueDepth)});
  out.config.push_back({"shed", "count", static_cast<double>(u.shed)});
  out.config.push_back({"expired", "count", static_cast<double>(u.expired)});
  out.config.push_back(
      {"loadgen_late_ms_p99", "ms", percentile(u.late, 0.99) * 1e3});
  out.config.push_back({"loadgen_late_ms_max", "ms",
                        percentile(u.late, 1.0) * 1e3});

  if (opt.trace) {
    SpanRecorder::get().set_enabled(true);
    SpanHooks hooks;
    hooks.register_graph(gm);
    serve::InferenceSession traced_session(ready.gm, serve_options(&hooks));
    for (int i = 0; i < kWarmup; ++i) traced_session.run(pool[i % kPool]);
    const serve::SessionStats s0 = traced_session.stats();
    const auto cache0 = gm.plan_cache()->stats();
    const Counters c0 = Counters::read();
    const PhaseResult t =
        phase(traced_session, opt.seconds - untraced_s, opt.seed + 1, pool,
              refs);
    traced_session.shutdown();
    const Counters c1 = Counters::read();
    const auto cache1 = gm.plan_cache()->stats();
    const serve::SessionStats s1 = traced_session.stats();
    out.attempted += t.attempted;
    out.failed += t.failed;

    const double ops = static_cast<double>(t.attempted);
    add_exec_metrics(out, ops, 0.0);
    add_counter_metrics(out, c0, c1, ops);
    add_plan_cache_metrics(out, cache0, cache1, ops);
    auto& m = out.per_layer;
    double arena = 0.0;
    for (const auto& e : cache1.per_entry)
      arena += static_cast<double>(e.arena_bytes);
    m.push_back({"plan.arena_kb", "KiB", arena / 1024.0});
    m.push_back({"plan.planned_frac", "ratio",
                 gm.plan() ? gm.plan()->planned_fraction() : 0.0});
    m.push_back({"tracer.trace_ms", "ms", span_mean_ms("tracer.trace")});
    m.push_back({"tracer.nodes", "count",
                 static_cast<double>(ready.traced_nodes)});
    m.push_back({"passes.compile_planned_ms", "ms",
                 span_mean_ms("passes.compile_planned")});
    m.push_back({"passes.nodes_after", "count",
                 static_cast<double>(gm.graph().size())});
    const double batches = static_cast<double>(s1.batches - s0.batches);
    m.push_back({"serve.queue_wait_ms_p50", "ms",
                 percentile(t.queue, 0.5) * 1e3});
    m.push_back({"serve.queue_wait_ms_p99", "ms",
                 percentile(t.queue, 0.99) * 1e3});
    m.push_back({"serve.exec_ms_p50", "ms", percentile(t.exec, 0.5) * 1e3});
    m.push_back({"serve.batch_run_ms_p50", "ms", median(hooks.run_ms())});
    m.push_back({"serve.batch_requests_mean", "count",
                 batches > 0 ? static_cast<double>(s1.completed - s0.completed) /
                                   batches
                             : 0.0});
    m.push_back({"serve.batch_rows_mean", "count",
                 batches > 0 ? static_cast<double>(s1.batched_rows -
                                                   s0.batched_rows) /
                                   batches
                             : 0.0});
    m.push_back({"serve.shed", "count", static_cast<double>(t.shed)});
    m.push_back({"serve.expired", "count", static_cast<double>(t.expired)});
    m.push_back({"resilience.breaker_trips", "count",
                 static_cast<double>(s1.breaker.trips - s0.breaker.trips)});
    m.push_back({"resilience.retries", "count",
                 static_cast<double>(s1.retries - s0.retries)});
    m.push_back({"resilience.degraded_runs", "count",
                 static_cast<double>(s1.degraded_rung_runs -
                                     s0.degraded_rung_runs)});
    m.push_back({"loadgen.late_ms_p99", "ms", percentile(t.late, 0.99) * 1e3});
    m.push_back({"loadgen.late_ms_max", "ms", percentile(t.late, 1.0) * 1e3});
    m.push_back({"trace.overhead_ms", "ms",
                 (median(t.latency) - median(u.latency)) * 1e3});
    m.push_back({"trace.latency_p50_ms", "ms", median(t.latency) * 1e3});
  }
  out.correct = out.failed == 0;
  return out;
}

}  // namespace perfbench
