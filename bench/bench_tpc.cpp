// bench_tpc: worker scaling of the TCP front end. Each cell starts a real
// iqcached stack (IQServer behind TcpServer) with N workers, drives it with
// N pipelined client connections issuing IQget hits over loopback, and
// measures aggregate responses/sec. A mixed cell at the largest worker count
// adds sets and multi-key gets, so writes and multi-shard reads contend with
// the hit path. Every cell runs kRounds times back to back and records the
// median with its min and max: single runs on a shared host move by 2x.
//
// Environment:
//   IQ_BENCH_SECONDS      measurement window per run in seconds (default 1.0)
//   IQ_BENCH_TPC_OUT      JSON artifact path (default BENCH_tpc.json)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/iq_server.h"
#include "net/channel.h"
#include "net/tcp_channel.h"
#include "net/tcp_server.h"

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kKeys = 256;
constexpr int kValueBytes = 64;
constexpr int kPipelineDepth = 64;
constexpr int kRounds = 5;

/// One cell: `clients` pipelined connections of IQget hits (plus a set /
/// multi-get slice when `mixed`) against a fresh server. Returns ops/s.
double RunCell(int workers, int clients, bool mixed, double seconds) {
  iq::IQServer server(iq::CacheStore::Config{.shard_count = 16,
                                             .memory_budget_bytes = 0},
                      iq::IQServer::Config{});
  std::vector<std::string> keys;
  keys.reserve(kKeys);
  const std::string value(kValueBytes, 'v');
  for (int i = 0; i < kKeys; ++i) {
    keys.push_back("hot" + std::to_string(i));
    server.store().Set(keys.back(), value);
  }

  iq::net::TcpServer::Config cfg;
  cfg.workers = workers;
  // Workers block in epoll_wait: with as many clients as workers, spinning
  // workers would take cores from the clients at the largest cell.
  cfg.spin_polls = 0;
  iq::net::TcpServer tcp(server, cfg);
  std::string error;
  if (!tcp.Start(&error)) {
    std::fprintf(stderr, "bench_tpc: %s\n", error.c_str());
    std::exit(1);
  }

  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> total{0};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      std::string conn_error;
      auto channel =
          iq::net::TcpChannel::Connect("127.0.0.1", tcp.port(), &conn_error);
      if (channel == nullptr) {
        std::fprintf(stderr, "bench_tpc: %s\n", conn_error.c_str());
        return;
      }
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      std::uint64_t ops = 0;
      std::size_t i = static_cast<std::size_t>(c) * 37;
      while (!stop.load(std::memory_order_relaxed)) {
        for (int b = 0; b < kPipelineDepth; ++b) {
          iq::net::Request r;
          std::size_t n = i++ % kKeys;
          if (mixed && b % 8 == 7) {
            // Write slice: sets keep the shards' mutation path hot.
            r.command = iq::net::Command::kSet;
            r.key = keys[n];
            r.data = value;
          } else if (mixed && b % 16 == 2) {
            // Multi-key get: one request locks two shards.
            r.command = iq::net::Command::kGet;
            r.keys = {keys[n], keys[(n + kKeys / 2) % kKeys]};
          } else {
            r.command = iq::net::Command::kIQGet;
            r.key = keys[n];
            r.session = 0;
          }
          channel->SendNoWait(r);
        }
        if (!channel->Flush()) break;
        std::vector<iq::net::Response> got = channel->Drain();
        if (got.size() != static_cast<std::size_t>(kPipelineDepth)) {
          break;  // transport died
        }
        ops += got.size();
      }
      total.fetch_add(ops, std::memory_order_relaxed);
    });
  }

  const auto start = Clock::now();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : threads) t.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();
  tcp.Stop();
  return elapsed > 0 ? static_cast<double>(total.load()) / elapsed : 0;
}

/// A cell's ops/s over kRounds runs.
struct CellStats {
  double median = 0;
  double min = 0;
  double max = 0;
};

CellStats RunRounds(int workers, int clients, bool mixed, double seconds) {
  std::vector<double> runs;
  for (int r = 0; r < kRounds; ++r) {
    runs.push_back(RunCell(workers, clients, mixed, seconds));
  }
  std::sort(runs.begin(), runs.end());
  return {runs[kRounds / 2], runs.front(), runs.back()};
}

void PrintCell(FILE* f, const char* indent, int workers, const CellStats& c) {
  std::fprintf(f,
               "%s{\"workers\": %d, \"ops_per_sec\": %.0f, "
               "\"min_ops_per_sec\": %.0f, \"max_ops_per_sec\": %.0f}",
               indent, workers, c.median, c.min, c.max);
}

}  // namespace

int main() {
  const double seconds = iq::bench::EnvDouble("IQ_BENCH_SECONDS", 1.0);
  const unsigned hw = std::thread::hardware_concurrency();
  const int worker_counts[] = {1, 2, 4};

  std::printf("bench_tpc: pipelined IQget hits over loopback, depth %d, "
              "%d keys x %d-byte values, %.1fs per run, %d runs per cell, "
              "%u hardware threads\n\n",
              kPipelineDepth, kKeys, kValueBytes, seconds, kRounds, hw);

  std::vector<CellStats> hit_ops;
  std::printf("  %-8s %16s %16s %16s\n", "workers", "median ops/s", "min",
              "max");
  for (int w : worker_counts) {
    // One client connection per worker, so every worker has traffic.
    hit_ops.push_back(RunRounds(w, /*clients=*/w, /*mixed=*/false, seconds));
    std::printf("  %-8d %16.0f %16.0f %16.0f\n", w, hit_ops.back().median,
                hit_ops.back().min, hit_ops.back().max);
  }
  const double scaling =
      hit_ops[0].median > 0 ? hit_ops[2].median / hit_ops[0].median : 0;
  std::printf("\n  %d-vs-1 worker scaling (ratio of medians): %.2fx\n",
              worker_counts[2], scaling);

  const int max_workers = worker_counts[2];
  const CellStats mixed =
      RunRounds(max_workers, max_workers, /*mixed=*/true, seconds);
  std::printf("  mixed (set + multi-get slices), %d workers: median %.0f "
              "ops/s (min %.0f, max %.0f)\n",
              max_workers, mixed.median, mixed.min, mixed.max);

  // Read the revision before opening the record: truncating a tracked
  // record first would make every revision read "-dirty".
  const std::string source_rev = iq::bench::SourceRevision();
  const char* out_path = std::getenv("IQ_BENCH_TPC_OUT");
  if (out_path == nullptr) out_path = "BENCH_tpc.json";
  FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_tpc: cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"bench_tpc\",\n"
               "  \"git_sha\": \"%s\",\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"keys\": %d,\n"
               "  \"value_bytes\": %d,\n"
               "  \"pipeline_depth\": %d,\n"
               "  \"window_seconds\": %.2f,\n"
               "  \"rounds_per_cell\": %d,\n"
               "  \"iqget_hit_cells\": [\n",
               source_rev.c_str(), hw, kKeys, kValueBytes,
               kPipelineDepth, seconds, kRounds);
  for (std::size_t i = 0; i < hit_ops.size(); ++i) {
    PrintCell(f, "    ", worker_counts[i], hit_ops[i]);
    std::fprintf(f, "%s\n", i + 1 < hit_ops.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"mixed_cell\": ");
  PrintCell(f, "", max_workers, mixed);
  std::fprintf(f,
               ",\n"
               "  \"scaling_4_workers_vs_1\": %.2f\n"
               "}\n",
               scaling);
  std::fclose(f);
  std::printf("  wrote %s\n", out_path);
  return 0;
}
