// The three workloads. Each sets itself up several times (setup_s is the
// median), runs its closed loop, checks its outputs, and fills a RunReport.
//
//   bg_tcp_read     BG 1% writes over a 2-shard TCP tier (IQ refresh)
//   kv_pipelined    pipelined IQget/set traffic into one TcpServer
//   bg_write_evict  BG 10% writes, in-process IQServer under a cache budget
//                   (IQ invalidate)
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "layers.h"

namespace perfbench {

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its newest spans; empty = nowhere.
  std::string span_path;
};

struct RunReport {
  std::vector<std::string> problems;  // failed output checks; empty = correct
  double setup_s = 0;
  double setup_rss_mb = 0;
  WindowResult window;  // untraced
  WindowResult traced;  // traced run only
  std::vector<Metric> per_layer;  // traced run only

  bool correct() const { return problems.empty(); }
  void Fail(const std::string& why) { problems.push_back(why); }
};

RunReport RunBgTcpRead(const Options& options);
RunReport RunBgWriteEvict(const Options& options);
RunReport RunKvPipelined(const Options& options);

/// Build a fixture `kSetups` times, each after tearing the previous one
/// down, and keep the last. setup_s is the median build time over the quiet
/// builds (QuietSamples); setup_rss_mb is the resident set right after the
/// first build, before anything else in the process has run. Null (with a
/// recorded problem) if a build fails.
template <class Fixture, class Make>
std::unique_ptr<Fixture> SetUpRepeatedly(Make make, RunReport& report) {
  constexpr int kSetups = 5;
  std::vector<double> seconds;
  std::vector<double> interference;
  std::unique_ptr<Fixture> fixture;
  for (int i = 0; i < kSetups; ++i) {
    fixture.reset();
    HostCpu host = HostCpu::Read();
    Nanos cpu = ProcessCpuNanos();
    Nanos start = NowNanos();
    std::string error;
    fixture = make(&error);
    if (fixture == nullptr) {
      report.Fail("setup: " + error);
      return nullptr;
    }
    seconds.push_back(static_cast<double>(NowNanos() - start) / 1e9);
    interference.push_back(
        Interference(host, HostCpu::Read(), ProcessCpuNanos() - cpu));
    if (i == 0) report.setup_rss_mb = ResidentMb();
  }
  std::vector<bool> quiet = QuietSamples(interference);
  std::vector<double> kept;
  for (std::size_t i = 0; i < seconds.size(); ++i) {
    if (quiet[i]) kept.push_back(seconds[i]);
  }
  report.setup_s = Median(kept);
  return fixture;
}

}  // namespace perfbench
