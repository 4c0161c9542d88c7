// sdcmd-bench: end-to-end EAM MD benchmark over Simulation::run and the
// RunSupervisor, with a separate traced run for per-layer metrics.
//
//   sdcmd-bench --workload bulk_nve|void_npt|supervised_ckpt --seed N
//               --seconds S --trace 0|1 [--scale full|tiny] [--self-test]
//               [--out-dir DIR]
//
// Runs on OMP_NUM_THREADS threads (run.py sets one per available CPU).
//
// Prints the host and build context, every metric with its unit and sample
// count, the correctness gates, and as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exit codes: 0 measured and
// correct, 1 a correctness gate failed (the JSON line is still printed),
// 2 bad arguments or a refused build (no JSON line).
#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>

#include "build_context.hpp"
#include "common/threads.hpp"
#include "obs/json.hpp"
#include "workloads.hpp"

namespace {

/// Why this binary must not be measured, or "" when it may be.
std::string refusal() {
  const std::string type = SDCMD_BENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo" && type != "MinSizeRel") {
    return "build type '" + type + "' is not an optimized build";
  }
  std::string sanitize = SDCMD_BENCH_SANITIZE;
  for (char& c : sanitize) c = static_cast<char>(std::toupper(c));
  if (!sanitize.empty() && sanitize != "OFF" && sanitize != "0" &&
      sanitize != "NO" && sanitize != "FALSE" && sanitize != "N") {
    return "SDCMD_SANITIZE=" + std::string(SDCMD_BENCH_SANITIZE);
  }
#if !defined(__OPTIMIZE__)
  return "compiled without optimization";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "compiled with a sanitizer";
#else
  return "";
#endif
}

const char* isa() {
#if defined(__AVX512F__)
  return "avx512f";
#elif defined(__AVX2__)
  return "avx2";
#elif defined(__AVX__)
  return "avx";
#elif defined(__SSE2__)
  return "sse2";
#else
  return "generic";
#endif
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string env(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : "";
}

void usage() {
  std::fprintf(stderr,
               "usage: sdcmd-bench --workload bulk_nve|void_npt|"
               "supervised_ckpt --seed N --seconds S --trace 0|1\n"
               "                   [--scale full|tiny] [--self-test] "
               "[--out-dir DIR]\n");
}

bool parse_args(int argc, char** argv, bench::Options& o) {
  bool have_workload = false;
  o.threads = sdcmd::max_threads();
  o.out_dir = "sdcmd-bench-out";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      o.self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        const auto w = bench::parse_workload(value);
        if (!w) return false;
        o.workload = *w;
        have_workload = true;
      } else if (arg == "--seed") {
        o.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value);
        if (!(o.seconds > 0.0 && o.seconds <= 120.0)) return false;
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return false;
        o.trace = value == "1";
      } else if (arg == "--scale") {
        if (value != "full" && value != "tiny") return false;
        o.tiny = value == "tiny";
      } else if (arg == "--out-dir") {
        o.out_dir = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return have_workload;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Options o;
  if (!parse_args(argc, argv, o)) {
    usage();
    return 2;
  }
  if (const std::string why = refusal(); !why.empty()) {
    std::fprintf(stderr, "sdcmd-bench: refusing to measure: %s\n",
                 why.c_str());
    return 2;
  }

  // Host and build context; a result is only comparable with another that
  // names the same.
  std::string context;
  {
    sdcmd::obs::JsonWriter w(context);
    w.begin_object();
    w.member("workload", bench::to_string(o.workload));
    w.member("seed", static_cast<std::int64_t>(o.seed));
    w.member("seconds", o.seconds);
    w.member("trace", o.trace);
    w.member("scale", o.tiny ? "tiny" : "full");
    w.member("self_test", o.self_test);
    w.member("nproc", static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
    w.member("threads", o.threads);
    w.member("cpu", cpu_model());
    w.member("isa", isa());
    w.member("OMP_PROC_BIND", env("OMP_PROC_BIND"));
    w.member("OMP_PLACES", env("OMP_PLACES"));
    w.member("compiler", SDCMD_BENCH_COMPILER);
    w.member("flags", SDCMD_BENCH_FLAGS);
    w.member("build_type", SDCMD_BENCH_BUILD_TYPE);
    w.end_object();
  }
  std::printf("context %s\n", context.c_str());
  std::fflush(stdout);

  bench::Report report;
  try {
    report = bench::run_workload(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sdcmd-bench: %s\n", e.what());
    return 1;
  }

  for (const std::string& line : report.budget) {
    std::printf("budget %s\n", line.c_str());
  }
  for (const std::string& line : report.gate_log) {
    std::printf("gate %s\n", line.c_str());
  }
  for (const bench::Metric& m : report.metrics) {
    std::printf("metric %-28s %16.6g %-11s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }

  const bool correct = report.gate_failures.empty();
  // The result line holds each metric's value and unit; the result file
  // also its sample count, the gates and the context.
  const auto write_result = [&](std::string& out, bool detailed) {
    sdcmd::obs::JsonWriter w(out);
    w.begin_object();
    w.member("correct", correct);
    w.member("attempted", static_cast<std::int64_t>(report.attempted));
    w.member("failed", static_cast<std::int64_t>(report.failed));
    w.key("metrics");
    w.begin_object();
    for (const bench::Metric& m : report.metrics) {
      w.key(m.name);
      w.begin_object();
      w.member("value", m.value);
      w.member("unit", m.unit);
      if (detailed) w.member("samples", m.samples);
      w.end_object();
    }
    w.end_object();
    if (detailed) {
      w.key("gates");
      w.begin_array();
      for (const std::string& line : report.gate_log) w.value(line);
      w.end_array();
    }
    w.end_object();
  };
  std::string result, detail;
  write_result(result, false);
  write_result(detail, true);

  std::ostringstream path;
  path << o.out_dir << "/result-" << bench::to_string(o.workload) << "-seed"
       << o.seed << "-trace" << (o.trace ? 1 : 0) << ".json";
  std::ofstream(path.str()) << "{\"context\": " << context
                            << ", \"result\": " << detail << "}\n";

  std::printf("%s\n", result.c_str());
  return correct ? 0 : 1;
}
