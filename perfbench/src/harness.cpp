#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {
namespace {

/// Rounds per window, the length of one slice, and each round's uncounted
/// warm-up.
constexpr int kRounds = 4;
constexpr double kSliceSeconds = 0.25;
constexpr double kWarmupSeconds = 0.3;
/// A slice that lost at most this share of host CPU counts as quiet.
constexpr double kQuietInterference = 0.02;

Nanos TimevalNanos(const timeval& tv) {
  return static_cast<Nanos>(tv.tv_sec) * iq::kNanosPerSec +
         static_cast<Nanos>(tv.tv_usec) * iq::kNanosPerMicro;
}

/// Exact quantile q of `v` (reorders it).
Nanos Quantile(std::vector<Nanos>& v, double q) {
  if (v.empty()) return 0;
  auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

}  // namespace

Nanos ProcessCpuNanos() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return TimevalNanos(ru.ru_utime) + TimevalNanos(ru.ru_stime);
}

double ResidentMb() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0;
  long pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double PeakResidentMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // the value is in kB
    }
  }
  return 0;
}

HostCpu HostCpu::Read() {
  HostCpu c;
  std::ifstream stat("/proc/stat");
  std::string line;
  if (!std::getline(stat, line)) return c;
  std::istringstream in(line);
  std::string label;
  in >> label;  // "cpu"
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user and nice).
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    c.total += v;
    if (field == 7) c.steal = v;
    if (field <= 2) c.busy += v;
  }
  return c;
}

double StealShare(const HostCpu& before, const HostCpu& after) {
  std::uint64_t total = after.total - before.total;
  return total == 0 ? 0.0
                    : static_cast<double>(after.steal - before.steal) /
                          static_cast<double>(total);
}

double Interference(const HostCpu& before, const HostCpu& after,
                    Nanos own_cpu) {
  // /proc/stat counts 1/100 s. Interrupt time is left out: it is mostly
  // this process's own loopback traffic.
  double total = static_cast<double>(after.total - before.total);
  double steal = static_cast<double>(after.steal - before.steal);
  double foreign =
      std::max(0.0, static_cast<double>(after.busy - before.busy) -
                        static_cast<double>(own_cpu) / 1e7);
  return total > 0 ? (steal + foreign) / total : 0;
}

std::vector<bool> QuietSamples(const std::vector<double>& interference) {
  if (interference.empty()) return {};
  std::vector<double> sorted = interference;
  std::sort(sorted.begin(), sorted.end());
  const double threshold =
      std::max(kQuietInterference, sorted[(sorted.size() - 1) / 4]);
  std::vector<bool> quiet;
  for (double x : interference) quiet.push_back(x <= threshold);
  return quiet;
}

void LoopThread::Record(Nanos latency, std::uint64_t ops,
                        std::uint64_t failed, std::uint64_t noops,
                        std::uint64_t writes) {
  int s = slice_->load(std::memory_order_relaxed);
  if (s < 0 || static_cast<std::size_t>(s) >= slices_.size()) return;
  Slice& slice = slices_[static_cast<std::size_t>(s)];
  slice.latency.push_back(latency);
  slice.ops += ops;
  slice.writes += writes;
  slice.failed += failed;
  slice.noops += noops;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

WindowResult ClosedLoop::Run(int threads, double seconds, const Body& body,
                             const std::function<void()>& at_start,
                             const std::function<void()>& at_end) {
  const int slices = std::max(
      1, static_cast<int>(seconds / kRounds / kSliceSeconds + 0.5));
  const auto slice_length =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(seconds / kRounds / slices));
  WindowResult r;
  HostCpu host_before = HostCpu::Read();
  for (int round = 0; round < kRounds; ++round) {
    std::atomic<bool> stop{false};
    std::atomic<int> slice{-1};
    std::vector<LoopThread> state(static_cast<std::size_t>(threads));
    for (LoopThread& t : state) {
      t.stop_ = &stop;
      t.slice_ = &slice;
      t.slices_.resize(static_cast<std::size_t>(slices));
    }
    std::vector<std::thread> workers;
    workers.reserve(state.size());
    for (int i = 0; i < threads; ++i) {
      workers.emplace_back(
          [&body, &state, i] { body(i, state[static_cast<std::size_t>(i)]); });
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));

    std::vector<Nanos> wall(static_cast<std::size_t>(slices) + 1);
    std::vector<Nanos> cpu(static_cast<std::size_t>(slices) + 1);
    std::vector<HostCpu> host(static_cast<std::size_t>(slices) + 1);
    auto boundary = std::chrono::steady_clock::now();
    for (int i = 0; i <= slices; ++i) {
      if (i > 0) std::this_thread::sleep_until(boundary);
      if (i == slices) at_end();
      auto k = static_cast<std::size_t>(i);
      wall[k] = NowNanos();
      cpu[k] = ProcessCpuNanos();
      host[k] = HostCpu::Read();
      slice.store(i, std::memory_order_relaxed);  // i == slices: stop counting
      if (i == 0) at_start();
      boundary += slice_length;
    }
    stop.store(true, std::memory_order_release);
    for (std::thread& w : workers) w.join();

    for (std::size_t k = 0; k < static_cast<std::size_t>(slices); ++k) {
      std::vector<Nanos> merged;
      std::uint64_t ops = 0;
      for (const LoopThread& t : state) {
        const LoopThread::Slice& s = t.slices_[k];
        merged.insert(merged.end(), s.latency.begin(), s.latency.end());
        ops += s.ops;
        r.writes += s.writes;
        r.failed += s.failed;
        r.noops += s.noops;
      }
      r.samples += merged.size();
      r.ops += ops;
      if (ops == 0) continue;
      SliceFigures f;
      double slice_s = static_cast<double>(wall[k + 1] - wall[k]) / 1e9;
      f.throughput_ops_s = static_cast<double>(ops) / slice_s;
      f.latency_p50_us = static_cast<double>(Quantile(merged, 0.50)) / 1e3;
      f.latency_p99_us = static_cast<double>(Quantile(merged, 0.99)) / 1e3;
      Nanos own_cpu = cpu[k + 1] - cpu[k];
      f.cpu_us_per_op =
          static_cast<double>(own_cpu) / 1e3 / static_cast<double>(ops);
      f.interference = Interference(host[k], host[k + 1], own_cpu);
      r.per_slice.push_back(f);
    }
  }
  r.steal_share = StealShare(host_before, HostCpu::Read());

  std::vector<double> slice_interference;
  for (const SliceFigures& f : r.per_slice) {
    slice_interference.push_back(f.interference);
  }
  const std::vector<bool> quiet = QuietSamples(slice_interference);
  std::vector<double> tput, p50, p99, cpu_per_op, interference;
  for (std::size_t i = 0; i < r.per_slice.size(); ++i) {
    SliceFigures& f = r.per_slice[i];
    if (!quiet[i]) continue;
    f.kept = true;
    tput.push_back(f.throughput_ops_s);
    p50.push_back(f.latency_p50_us);
    p99.push_back(f.latency_p99_us);
    cpu_per_op.push_back(f.cpu_us_per_op);
    interference.push_back(f.interference);
  }
  r.throughput_ops_s = Median(tput);
  r.latency_p50_us = Median(p50);
  r.latency_p99_us = Median(p99);
  r.cpu_us_per_op = Median(cpu_per_op);
  r.kept_interference = Median(interference);
  return r;
}

}  // namespace perfbench
