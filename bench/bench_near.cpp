// bench_near: what a client-side near cache with validity leases buys on
// the read path (DESIGN.md §4.10).
//
// Three cells over loopback TCP, identical read-heavy workload, differing
// only in the server-granted validity interval:
//   - off       near_validity = 0 (every read is a wire round trip)
//   - ttl 1ms   short grants: frequent self-expiry, frequent re-fetch
//   - ttl 10ms  long grants: most reads served from the client process
//
// Each cell runs kClientThreads threads, one TCP connection + IQClient +
// session each, over a warmed hot keyspace. Per-read latency lands in a
// log2 histogram split hit-vs-near-hit, so the report shows the shape of
// the win: near hits cost a mutex + map lookup (hundreds of ns), wire hits
// cost two syscalls + epoll (tens of µs).
//
// Attribution note: client and server share this host. On a 1-CPU runner
// the req/s delta UNDERstates the win — every wire round trip burns both
// client cycles (syscalls) and server cycles (epoll/parse/dispatch) from
// the same budget, so a near hit refunds both sides at once; on a real
// deployment the refunded server cycles belong to other clients. Treat the
// near-hit RTT histogram as the robust signal, not absolute req/s.
//
// Output: human table on stdout and BENCH_near.json (override with
// IQ_BENCH_NEAR_OUT). Env knobs: IQ_BENCH_SECONDS (window, default 1.0).
#include <atomic>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/iq_client.h"
#include "core/iq_server.h"
#include "core/near_cache.h"
#include "net/remote_backend.h"
#include "net/tcp_channel.h"
#include "net/tcp_server.h"

using namespace iq;

namespace {

constexpr int kClientThreads = 4;
// Small enough that a thread revisits a key well inside a 1ms grant once
// near hits start (at wire speed a revisit costs kKeys round trips), so
// the 1ms cell sits between "always lapsed" and "always fresh" instead of
// degenerating to one of them.
constexpr int kKeys = 8;
constexpr std::size_t kValueBytes = 100;
constexpr int kBuckets = 32;  // bucket i counts latencies in [2^i, 2^(i+1)) ns

struct Histogram {
  std::uint64_t bucket[kBuckets] = {};
  std::uint64_t count = 0;

  void Record(Nanos ns) {
    if (ns < 1) ns = 1;
    int b = 0;
    while ((Nanos{1} << (b + 1)) <= ns && b + 1 < kBuckets) ++b;
    ++bucket[b];
    ++count;
  }
  void Merge(const Histogram& o) {
    for (int i = 0; i < kBuckets; ++i) bucket[i] += o.bucket[i];
    count += o.count;
  }
  /// Upper bound (ns) of the bucket holding the q-th quantile sample.
  Nanos Quantile(double q) const {
    if (count == 0) return 0;
    std::uint64_t rank = static_cast<std::uint64_t>(q * static_cast<double>(count));
    std::uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
      seen += bucket[i];
      if (seen > rank) return Nanos{1} << (i + 1);
    }
    return Nanos{1} << kBuckets;
  }
};

struct CellResult {
  long long ttl_ms = 0;
  double rps = 0;
  std::uint64_t reads = 0;
  std::uint64_t near_hits = 0;
  std::uint64_t wire_requests = 0;  // server-side request count for the cell
  Histogram wire_hist;              // reads answered over the wire
  Histogram near_hist;              // reads served from the near cache
};

/// One measurement cell: fresh server + TCP front end with the given
/// validity, warmed keyspace, read storm from kClientThreads clients.
CellResult RunCell(long long ttl_ms, Nanos window) {
  CellResult cell;
  cell.ttl_ms = ttl_ms;

  IQServer::Config scfg;
  scfg.near_validity = ttl_ms * kNanosPerMilli;
  IQServer server(CacheStore::Config{}, scfg);
  const std::string value(kValueBytes, 'v');
  for (int k = 0; k < kKeys; ++k) {
    server.store().Set("n:" + std::to_string(k), value);
  }

  net::TcpServer::Config tcfg;
  tcfg.workers = 2;
  net::TcpServer tcp(server, tcfg);
  std::string error;
  if (!tcp.Start(&error)) {
    std::fprintf(stderr, "bench_near: %s\n", error.c_str());
    std::exit(1);
  }

  const Clock& clock = SteadyClock::Instance();
  Nanos deadline = clock.Now() + window;
  std::mutex merge_mu;
  std::atomic<std::uint64_t> reads{0};
  std::atomic<std::uint64_t> near_hits{0};
  std::vector<std::thread> threads;
  threads.reserve(kClientThreads);
  for (int t = 0; t < kClientThreads; ++t) {
    threads.emplace_back([&, t] {
      std::string err;
      auto channel = net::TcpChannel::Connect("127.0.0.1", tcp.port(), &err);
      if (!channel) {
        std::fprintf(stderr, "bench_near: %s\n", err.c_str());
        std::exit(1);
      }
      net::RemoteBackend remote(*channel);
      IQClient::Config ccfg;
      ccfg.near_capacity = ttl_ms > 0 ? kKeys : 0;
      ccfg.seed = 42 + static_cast<std::uint64_t>(t);
      IQClient client(remote, ccfg);
      auto session = client.NewSession();

      Histogram wire, near;
      std::uint64_t n = static_cast<std::uint64_t>(t) * 7;  // decorrelate
      std::uint64_t local_reads = 0, local_near = 0;
      while (clock.Now() < deadline) {
        std::string key = "n:" + std::to_string(n++ % kKeys);
        Nanos t0 = clock.Now();
        ClientGetResult r = session->Get(key, /*max_retries=*/2);
        Nanos dt = clock.Now() - t0;
        ++local_reads;
        if (r.status == ClientGetResult::Status::kHit) {
          (r.near_hit ? near : wire).Record(dt);
          if (r.near_hit) ++local_near;
        } else if (r.status == ClientGetResult::Status::kMissRecompute) {
          session->Put(key, value);  // re-warm (evicted or invalidated)
        }
      }
      session->Abort();
      reads.fetch_add(local_reads, std::memory_order_relaxed);
      near_hits.fetch_add(local_near, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(merge_mu);
      cell.wire_hist.Merge(wire);
      cell.near_hist.Merge(near);
    });
  }
  for (auto& th : threads) th.join();
  cell.wire_requests = tcp.Stats().requests;
  tcp.Stop();

  cell.reads = reads.load();
  cell.near_hits = near_hits.load();
  cell.rps = static_cast<double>(cell.reads) /
             (static_cast<double>(window) / kNanosPerSec);
  return cell;
}

void PrintHist(const char* label, const Histogram& h) {
  if (h.count == 0) {
    std::printf("    %-10s (no samples)\n", label);
    return;
  }
  std::printf("    %-10s p50 <= %8lld ns   p99 <= %8lld ns   (%llu samples)\n",
              label, static_cast<long long>(h.Quantile(0.50)),
              static_cast<long long>(h.Quantile(0.99)),
              static_cast<unsigned long long>(h.count));
}

void JsonHist(FILE* f, const char* name, const Histogram& h, bool last) {
  std::fprintf(f, "      \"%s\": {\"samples\": %llu, \"p50_ns\": %lld, "
               "\"p99_ns\": %lld, \"log2_buckets\": [",
               name, static_cast<unsigned long long>(h.count),
               static_cast<long long>(h.Quantile(0.50)),
               static_cast<long long>(h.Quantile(0.99)));
  int top = kBuckets;
  while (top > 1 && h.bucket[top - 1] == 0) --top;
  for (int i = 0; i < top; ++i) {
    std::fprintf(f, "%s%llu", i ? ", " : "",
                 static_cast<unsigned long long>(h.bucket[i]));
  }
  std::fprintf(f, "]}%s\n", last ? "" : ",");
}

}  // namespace

int main() {
  Nanos window = static_cast<Nanos>(
      bench::EnvDouble("IQ_BENCH_SECONDS", 1.0) * kNanosPerSec);

  const long long ttls_ms[] = {0, 1, 10};
  std::vector<CellResult> cells;
  std::printf(
      "bench_near: loopback TCP reads, %d hot keys, %zu-byte values, "
      "%d client threads\n"
      "  (client+server share this host: wire round trips burn both sides' "
      "cycles,\n   so req/s understates the win — see the RTT histograms)\n\n",
      kKeys, kValueBytes, kClientThreads);
  for (long long ttl : ttls_ms) {
    CellResult cell = RunCell(ttl, window);
    double ratio = cell.reads > 0 ? 100.0 * static_cast<double>(cell.near_hits) /
                                        static_cast<double>(cell.reads)
                                  : 0;
    std::printf("  near ttl %2lldms  %12.0f reads/s  %5.1f%% near hits  "
                "%llu wire requests\n",
                cell.ttl_ms, cell.rps, ratio,
                static_cast<unsigned long long>(cell.wire_requests));
    PrintHist("wire hit", cell.wire_hist);
    PrintHist("near hit", cell.near_hist);
    cells.push_back(std::move(cell));
  }

  double speedup = cells.front().rps > 0 ? cells.back().rps / cells.front().rps : 0;
  std::printf("\n  ttl 10ms vs off: %.2fx reads/s, %llu vs %llu wire requests\n",
              speedup, static_cast<unsigned long long>(cells.back().wire_requests),
              static_cast<unsigned long long>(cells.front().wire_requests));

  // Read the revision before opening the record: truncating a tracked
  // record first would make every revision read "-dirty".
  const std::string source_rev = bench::SourceRevision();
  const char* out_path = std::getenv("IQ_BENCH_NEAR_OUT");
  if (out_path == nullptr) out_path = "BENCH_near.json";
  FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_near: cannot write %s\n", out_path);
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"bench\": \"bench_near\",\n"
               "  \"git_sha\": \"%s\",\n"
               "  \"hardware_concurrency\": %u,\n"
               "  \"note\": \"client and server share one host; req/s "
               "understates the near-cache win because each wire round trip "
               "burns both client and server cycles from the same CPU "
               "budget\",\n"
               "  \"client_threads\": %d,\n"
               "  \"keys\": %d,\n"
               "  \"cells\": [\n",
               source_rev.c_str(),
               std::thread::hardware_concurrency(), kClientThreads, kKeys);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellResult& c = cells[i];
    std::fprintf(f,
                 "    {\"near_ttl_ms\": %lld, \"reads_per_sec\": %.0f, "
                 "\"reads\": %llu, \"near_hits\": %llu, "
                 "\"wire_requests\": %llu,\n",
                 c.ttl_ms, c.rps, static_cast<unsigned long long>(c.reads),
                 static_cast<unsigned long long>(c.near_hits),
                 static_cast<unsigned long long>(c.wire_requests));
    JsonHist(f, "wire_hit_rtt", c.wire_hist, false);
    JsonHist(f, "near_hit_rtt", c.near_hist, true);
    std::fprintf(f, "    }%s\n", i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n"
               "  \"speedup_ttl10_vs_off\": %.2f\n"
               "}\n",
               speedup);
  std::fclose(f);
  std::printf("  wrote %s\n", out_path);
  return 0;
}
