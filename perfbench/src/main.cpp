// perfbench: the repository's benchmark program.
//
//   perfbench --workload bg_tcp_read|kv_pipelined|bg_write_evict|all
//             [--seed N] [--seconds S] [--trace 0|1] [--span-dir DIR]
//             [--git-sha SHA] [--source-sha256 HEX]
//
// Prints a readable report, one JSON line of run metadata, and as its last
// line one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exits 1 when an output check fails, 2 on a usage error.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::RunReport;

struct Workload {
  const char* name;
  RunReport (*run)(const Options&);
};

constexpr Workload kWorkloads[] = {
    {"bg_tcp_read", perfbench::RunBgTcpRead},
    {"kv_pipelined", perfbench::RunKvPipelined},
    {"bg_write_evict", perfbench::RunBgWriteEvict},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload bg_tcp_read|kv_pipelined|"
               "bg_write_evict|all [--seed N] [--seconds S] [--trace 0|1]\n"
               "                 [--span-dir DIR] [--git-sha SHA] "
               "[--source-sha256 HEX]\n",
               why);
  std::exit(2);
}

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
      continue;
    }
    out.push_back(ch);
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(metrics[i].name) + ": {\"value\": " +
           Number(metrics[i].value) + ", \"unit\": " +
           Quote(metrics[i].unit) + "}";
  }
  return out + "}";
}

/// The end-to-end metrics of the result line: the ones that stay steady on
/// a host that steals CPU. The others are printed in the report and the
/// record line (see README.md).
std::vector<Metric> EndToEnd(const RunReport& r) {
  return {
      {"latency_p50_us", r.window.latency_p50_us, "us"},
      {"setup_s", r.setup_s, "s"},
      {"setup_rss_mb", r.setup_rss_mb, "MB"},
  };
}

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Run one workload and print its report and metadata lines.
Result RunOne(const Workload& wl, const Options& options,
              const std::string& git_sha, const std::string& source_sha) {
  std::printf("== %s (seed %llu, %.3g s, trace %d)\n", wl.name,
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::fflush(stdout);
  RunReport r = wl.run(options);

  Result res;
  res.correct = r.correct();
  res.attempted = r.window.ops + r.traced.ops;
  res.failed = r.window.failed + r.traced.failed;
  res.metrics = options.trace ? r.per_layer : EndToEnd(r);
  const double error_share =
      res.attempted == 0 ? 0.0
                         : static_cast<double>(res.failed) /
                               static_cast<double>(res.attempted);

  std::printf("  %-26s %16.4f ops/s\n", "throughput_ops_s",
              r.window.throughput_ops_s);
  std::printf("  %-26s %16.4f us\n", "latency_p99_us",
              r.window.latency_p99_us);
  std::printf("  %-26s %16.4f us\n", "cpu_us_per_op",
              r.window.cpu_us_per_op);
  for (const Metric& m : EndToEnd(r)) {
    std::printf("  %-26s %16.4f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("  %-26s %16.6f fraction (%llu failed of %llu attempted)\n",
              "error_share", error_share,
              static_cast<unsigned long long>(res.failed),
              static_cast<unsigned long long>(res.attempted));
  std::printf("  latency samples %llu over %zu slices, no-ops %llu, host "
              "steal %.3f\n",
              static_cast<unsigned long long>(r.window.samples),
              r.window.per_slice.size(),
              static_cast<unsigned long long>(r.window.noops),
              r.window.steal_share);
  std::printf("  slices (* = quiet, reported):\n");
  for (const perfbench::SliceFigures& f : r.window.per_slice) {
    std::printf("   %c %10.0f ops/s  p50 %8.2f us  p99 %9.1f us  cpu/op "
                "%7.2f us  interference %.3f\n",
                f.kept ? '*' : ' ', f.throughput_ops_s, f.latency_p50_us,
                f.latency_p99_us, f.cpu_us_per_op, f.interference);
  }
  if (options.trace) {
    for (const Metric& m : r.per_layer) {
      std::printf("  %-34s %16.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  for (const std::string& p : r.problems) {
    std::printf("  CHECK FAILED: %s\n", p.c_str());
  }

  std::printf(
      "{\"record\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"git_sha\": %s, \"source_sha256\": %s, "
      "\"nproc\": %ld, \"build_type\": %s, \"steal_share\": %s, "
      "\"kept_interference\": %s, \"latency_samples\": %llu, "
      "\"throughput_ops_s\": %s, \"latency_p99_us\": %s, "
      "\"cpu_us_per_op\": %s, \"peak_rss_mb\": %s, \"error_share\": %s, "
      "\"noops\": %llu, \"correct\": %s}}\n",
      Quote(wl.name).c_str(), static_cast<unsigned long long>(options.seed),
      Number(options.seconds).c_str(), options.trace ? 1 : 0,
      Quote(git_sha).c_str(), Quote(source_sha).c_str(),
      sysconf(_SC_NPROCESSORS_ONLN), Quote(PERFBENCH_BUILD_TYPE).c_str(),
      Number(r.window.steal_share).c_str(),
      Number(r.window.kept_interference).c_str(),
      static_cast<unsigned long long>(r.window.samples),
      Number(r.window.throughput_ops_s).c_str(),
      Number(r.window.latency_p99_us).c_str(),
      Number(r.window.cpu_us_per_op).c_str(),
      Number(perfbench::PeakResidentMb()).c_str(), Number(error_share).c_str(),
      static_cast<unsigned long long>(r.window.noops + r.traced.noops),
      r.correct() ? "true" : "false");
  std::fflush(stdout);
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string workload;
  std::string span_dir;
  std::string git_sha = "unknown";
  std::string source_sha = "unknown";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atof(value);
    } else if (arg == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
    } else if (arg == "--span-dir") {
      span_dir = value;
    } else if (arg == "--git-sha") {
      git_sha = value;
    } else if (arg == "--source-sha256") {
      source_sha = value;
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (options.seconds <= 0) Usage("--seconds must be positive");

  std::vector<const Workload*> selected;
  for (const Workload& wl : kWorkloads) {
    if (workload == "all" || workload == wl.name) selected.push_back(&wl);
  }
  if (selected.empty()) Usage(("unknown workload '" + workload + "'").c_str());

  Result total;
  for (const Workload* wl : selected) {
    Options o = options;
    if (options.trace && !span_dir.empty()) {
      o.span_path = span_dir + "/" + wl->name + ".spans.tsv";
    }
    Result r = RunOne(*wl, o, git_sha, source_sha);
    total.correct = total.correct && r.correct;
    total.attempted += r.attempted;
    total.failed += r.failed;
    // With several workloads, each metric name carries its workload.
    for (Metric& m : r.metrics) {
      if (selected.size() > 1) m.name = std::string(wl->name) + "." + m.name;
      total.metrics.push_back(std::move(m));
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              total.correct ? "true" : "false",
              static_cast<unsigned long long>(total.attempted),
              static_cast<unsigned long long>(total.failed),
              MetricsJson(total.metrics).c_str());
  return total.correct ? 0 : 1;
}
