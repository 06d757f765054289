// Shared support for the table/figure benchmark binaries.
//
// Scale knobs (environment variables, all optional):
//   IQ_BENCH_MEMBERS       members in the small graph        (default 1000)
//   IQ_BENCH_MEMBERS_LARGE members in the large graph        (default 4000)
//   IQ_BENCH_SECONDS       measurement window per cell, sec  (default 1.0)
//   IQ_BENCH_SEED          RNG seed                          (default 42)
//
// The paper ran 10K/100K-member graphs on a multi-host testbed; this
// harness runs everything in-process on whatever machine it gets, so the
// defaults are scaled down. The *shape* of each table (who wins, where
// staleness appears, what IQ drives to zero) is the reproduction target,
// not the absolute numbers. See EXPERIMENTS.md.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "core/iq_server.h"
#include "bg/workload.h"
#include "casql/casql.h"

namespace iq::bench {

inline std::int64_t EnvInt(const char* name, std::int64_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoll(v) : fallback;
}

inline double EnvDouble(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atof(v) : fallback;
}

struct BenchScale {
  bg::GraphConfig small_graph;
  bg::GraphConfig large_graph;
  Nanos cell_duration;
  std::uint64_t seed;

  static BenchScale FromEnv() {
    BenchScale s;
    s.small_graph.members = EnvInt("IQ_BENCH_MEMBERS", 1000);
    s.small_graph.friends_per_member = 10;
    s.small_graph.resources_per_member = 2;
    s.small_graph.comments_per_resource = 2;
    s.large_graph = s.small_graph;
    s.large_graph.members = EnvInt("IQ_BENCH_MEMBERS_LARGE", 4000);
    s.cell_duration =
        static_cast<Nanos>(EnvDouble("IQ_BENCH_SECONDS", 1.0) * kNanosPerSec);
    s.seed = static_cast<std::uint64_t>(EnvInt("IQ_BENCH_SEED", 42));
    return s;
  }
};

/// One loaded CASQL universe: database + graph + pools, reusable across
/// measurement cells (each cell re-snapshots ground truth and gets a fresh
/// cache server).
class BenchUniverse {
 public:
  BenchUniverse(bg::GraphConfig graph, sql::Database::Config db_config,
                std::uint64_t seed)
      : graph_(graph), db_(db_config), seed_(seed) {
    bg::CreateBgTables(db_);
    bg::LoadGraph(db_, graph_);
    pools_.SeedFromGraph(graph_);
  }

  /// Run one measurement cell: fresh IQ-Server (cold or warmed cache),
  /// validator snapshotted from the live database.
  bg::WorkloadResult RunCell(const casql::CasqlConfig& casql_config,
                             const bg::Mix& mix, int threads,
                             Nanos duration, bool warm_cache = false,
                             bool validate = true,
                             IQServer::Config server_config = {}) {
    IQServer server(CacheStore::Config{}, server_config);
    return RunCellWithServer(server, casql_config, mix, threads, duration,
                             warm_cache, validate);
  }

  /// Variant taking a caller-owned server so its stats can be inspected.
  bg::WorkloadResult RunCellWithServer(IQServer& server,
                                       const casql::CasqlConfig& casql_config,
                                       const bg::Mix& mix, int threads,
                                       Nanos duration, bool warm_cache = false,
                                       bool validate = true) {
    casql::CasqlSystem system(db_, server, casql_config);
    if (warm_cache) bg::WarmCache(system, graph_);
    bg::WorkloadConfig wl;
    wl.mix = mix;
    wl.threads = threads;
    wl.duration = duration;
    wl.seed = seed_++;
    wl.validate = validate;
    wl.seed_validator_from_db = true;
    return bg::RunWorkload(system, pools_, graph_, wl);
  }

  const bg::GraphConfig& graph() const { return graph_; }
  sql::Database& db() { return db_; }
  bg::ActionPools& pools() { return pools_; }

 private:
  bg::GraphConfig graph_;
  sql::Database db_;
  bg::ActionPools pools_;
  std::uint64_t seed_;
};

inline casql::CasqlConfig MakeCasqlConfig(casql::Technique t,
                                          casql::Consistency c,
                                          casql::LeasePlacement p =
                                              casql::LeasePlacement::kInsideTxn) {
  casql::CasqlConfig cfg;
  cfg.technique = t;
  cfg.consistency = c;
  cfg.placement = p;
  cfg.client.backoff_base = 20 * kNanosPerMicro;
  cfg.client.backoff_cap = 2 * kNanosPerMilli;
  return cfg;
}

/// The checkout's commit, `git describe --always --dirty` style (a
/// "-dirty" suffix marks uncommitted changes), or "none" outside a git
/// tree. Benches record it beside their numbers.
inline std::string SourceRevision() {
  std::string rev;
#ifdef IQ_SOURCE_DIR
  if (FILE* p = ::popen("git -C '" IQ_SOURCE_DIR
                        "' describe --always --dirty --abbrev=40 2>/dev/null",
                        "r")) {
    char buf[128];
    while (std::fgets(buf, sizeof(buf), p) != nullptr) rev += buf;
    ::pclose(p);
  }
#endif
  while (!rev.empty() && (rev.back() == '\n' || rev.back() == ' ')) {
    rev.pop_back();
  }
  return rev.empty() ? "none" : rev;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n%s\n", title.c_str());
  for (std::size_t i = 0; i < title.size(); ++i) std::printf("=");
  std::printf("\n");
}

}  // namespace iq::bench
