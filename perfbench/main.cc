// perfbench — the repo benchmark's measuring binary.
//
//   perfbench --workload <resnet18_b1|serve_mlp_poisson|capture_resnet50>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// Prints one JSON object on its last stdout line: correctness, attempted and
// failed op counts, the end-to-end metrics (untraced measurement), the
// per-layer metrics (traced runs only) and the configuration stamp. run.py
// builds this binary from source and turns that line into the benchmark's
// result line.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "common.h"
#include "kernels/dispatch.h"
#include "runtime/rng.h"
#include "runtime/thread_pool.h"

namespace {

using perfbench::Metric;

void print_metrics(const char* key, const std::vector<Metric>& ms) {
  std::printf("\"%s\":{", key);
  for (std::size_t i = 0; i < ms.size(); ++i)
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", i ? "," : "",
                ms[i].name.c_str(), ms[i].value, ms[i].unit.c_str());
  std::printf("}");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-dir <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") opt.workload = v;
    else if (k == "--seed") opt.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") opt.seconds = std::atof(v.c_str());
    else if (k == "--trace") opt.trace = v == "1";
    else if (k == "--trace-dir") opt.trace_dir = v;
    else return usage();
  }
  if (argc % 2 == 0 || opt.workload.empty() || opt.seconds <= 0) return usage();

  // Weights and synthetic inputs repeat for a given seed.
  fxcpp::rt::Rng::global().reseed(opt.seed);

  perfbench::Outcome out;
  try {
    if (opt.workload == "resnet18_b1") {
      out = perfbench::run_resnet18_b1(opt);
    } else if (opt.workload == "serve_mlp_poisson") {
      out = perfbench::run_serve_mlp_poisson(opt);
    } else if (opt.workload == "capture_resnet50") {
      out = perfbench::run_capture_resnet50(opt);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload %s aborted: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  if (opt.trace && !opt.trace_dir.empty()) {
    const std::string path = opt.trace_dir + "/" + opt.workload + "-seed" +
                             std::to_string(opt.seed) + ".trace.json";
    if (!perfbench::SpanRecorder::get().write_chrome_trace(path))
      std::fprintf(stderr, "could not write %s\n", path.c_str());
  }
  if (opt.trace)
    out.per_layer.push_back(
        {"trace.spans", "count",
         static_cast<double>(perfbench::SpanRecorder::get().total_spans())});

  std::printf("{\"workload\":\"%s\",\"correct\":%s,\"attempted\":%llu,"
              "\"failed\":%llu,",
              opt.workload.c_str(), out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  print_metrics("end_to_end", out.end_to_end);
  std::printf(",");
  print_metrics("per_layer", out.per_layer);
  std::printf(",\"config\":{\"isa\":\"%s\",\"intra_op_threads\":%d,"
              "\"inter_op_threads\":%d,\"nproc\":%ld,"
              "\"hardware_concurrency\":%u,\"seed\":%llu,\"seconds\":%.17g,"
              "\"trace\":%d",
              fxcpp::kernels::isa_name(fxcpp::kernels::active_isa()),
              fxcpp::rt::get_num_threads(),
              fxcpp::rt::get_num_interop_threads(),
              sysconf(_SC_NPROCESSORS_ONLN),
              std::thread::hardware_concurrency(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
  for (const Metric& m : out.config)
    std::printf(",\"%s\":%.17g", m.name.c_str(), m.value);
  std::printf("}}\n");
  std::fflush(stdout);
  return 0;
}
