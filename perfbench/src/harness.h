// The measuring harness shared by every workload: host probes (process CPU,
// resident set, CPU steal), the closed-loop runner that splits the timed
// window into slices, and the metric list a run prints.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/clock.h"

namespace perfbench {

using iq::Nanos;

inline Nanos NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
/// User + system CPU of the whole process so far.
Nanos ProcessCpuNanos();
/// Resident set of the process in MiB, now and at its peak.
double ResidentMb();
double PeakResidentMb();

/// Aggregate CPU counters of the host from /proc/stat.
struct HostCpu {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
  std::uint64_t busy = 0;  // user + nice + system
  static HostCpu Read();
};
/// Share of host CPU time stolen by the hypervisor between two readings.
double StealShare(const HostCpu& before, const HostCpu& after);
/// Share of host CPU time between two readings that this process did not
/// get or did not use: stolen by the hypervisor, or spent by other
/// processes in user and system mode. `own_cpu` is this process's CPU time
/// over the same interval.
double Interference(const HostCpu& before, const HostCpu& after,
                    Nanos own_cpu);
/// Which samples are quiet enough to report: those with interference at
/// most 0.02, or at most that of the quietest quarter when fewer are that
/// quiet.
std::vector<bool> QuietSamples(const std::vector<double>& interference);

/// Per-thread recorder handed to a loop body. The body calls Record() once
/// per completed operation; samples land in the slice that is current when
/// the operation ends.
class LoopThread {
 public:
  bool Running() const { return !stop_->load(std::memory_order_acquire); }
  /// `ops` counts the requests the operation stands for (1 per BG action,
  /// the batch size per kv batch); latency is per operation. `failed`,
  /// `noops` and `writes` count the requests among them that failed, did
  /// nothing by design, or wrote.
  void Record(Nanos latency, std::uint64_t ops, std::uint64_t failed,
              std::uint64_t noops = 0, std::uint64_t writes = 0);

 private:
  friend class ClosedLoop;
  struct Slice {
    std::vector<Nanos> latency;  // raw samples: exact percentiles
    std::uint64_t ops = 0;
    std::uint64_t writes = 0;
    std::uint64_t failed = 0;
    std::uint64_t noops = 0;
  };
  const std::atomic<bool>* stop_ = nullptr;
  const std::atomic<int>* slice_ = nullptr;  // -1 during warm-up
  std::vector<Slice> slices_;
};

/// The end-to-end figures of one slice of the timed window.
struct SliceFigures {
  double throughput_ops_s = 0;
  double latency_p50_us = 0;
  double latency_p99_us = 0;
  double cpu_us_per_op = 0;
  /// Share of host CPU time stolen by the hypervisor or used by other
  /// processes during the slice.
  double interference = 0;
  bool kept = false;  // among the quiet slices the figures come from
};

/// What one timed window measured. End-to-end figures are medians over the
/// window's quiet slices (QuietSamples), so a host that steals CPU for part
/// of the run moves them little.
struct WindowResult {
  double throughput_ops_s = 0;
  double latency_p50_us = 0;
  double latency_p99_us = 0;
  double cpu_us_per_op = 0;
  std::uint64_t samples = 0;   // latency observations (operations)
  std::uint64_t ops = 0;       // requests attempted
  std::uint64_t writes = 0;    // write requests among them
  std::uint64_t failed = 0;    // requests that failed
  std::uint64_t noops = 0;     // requests that did nothing by design
  double steal_share = 0;        // over the whole window
  double kept_interference = 0;  // median over the kept slices
  std::vector<SliceFigures> per_slice;
};

/// Runs `threads` closed-loop workers for `seconds`, split into a few
/// rounds. Each round starts fresh threads, each calling
/// `body(index, thread)`, which loops while thread.Running(); fresh threads
/// land on CPUs anew, so one unlucky placement moves a round, not the run.
/// A short warm-up precedes each round's timed part and is not counted.
/// `at_start` and `at_end` run on the calling thread at each round's first
/// and last slice boundary, so counter snapshots cover the same intervals
/// as the samples.
class ClosedLoop {
 public:
  using Body = std::function<void(int, LoopThread&)>;
  static WindowResult Run(int threads, double seconds, const Body& body,
                          const std::function<void()>& at_start,
                          const std::function<void()>& at_end);
};

/// One printed metric.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The median of `v` (0 for an empty vector).
double Median(std::vector<double> v);

}  // namespace perfbench
