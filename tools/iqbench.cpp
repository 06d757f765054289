// iqbench: command-line driver for casql workloads over any client design.
//
//   iqbench [--technique=invalidate|refresh|incremental]
//           [--consistency=none|cas|read-lease|iq]
//           [--placement=prior|inside]
//           [--members=N] [--friends=N] [--threads=N] [--seconds=S]
//           [--mix=0.1|1|10] [--seed=N] [--warm] [--no-validate]
//           [--db-read-us=N] [--db-write-us=N] [--db-commit-us=N]
//           [--lease-ms=N] [--eager-delete]
//
// In-process mode runs the BG social workload against an IQServer in this
// process and prints a one-screen report: throughput, latency percentiles,
// restart statistics, unpredictable-read percentage, and server counters.
//
// Remote mode (--connect=host:port[,host:port,...]) drives running iqcached
// instances over TCP with the same casql client and the same flags. An
// in-process sql::Database holds the ground truth: a `ctr` table of
// counters and a `data` table of read-only rows. Each worker thread binds
// its own CasqlSystem to its own remote stack (one pipelined connection per
// endpoint; a ShardedBackend ring over several). A write op increments one
// counter, or two in one session at --multikey-rate; a read op reads one
// counter and two data rows. A settle pass at the end increments, reads and
// raw-gets every counter: each cached value must equal its `ctr` row, or
// the run fails (exit 1).
//
// The one hand-issued session sequence is the own-update probe: no casql
// path re-reads a key under its own Q lease, and iqcheck needs that re-read
// to see a session lose its own buffered delta (Section 4.2.2). Under
// --technique=incremental every eighth write op of a worker also runs it.
#include <algorithm>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "check/oplog.h"
#include "core/iq_server.h"
#include "core/sharded_backend.h"
#include "bg/workload.h"
#include "casql/casql.h"
#include "net/channel.h"
#include "net/channel_pool.h"
#include "net/remote_backend.h"
#include "net/server.h"
#include "util/histogram.h"
#include "util/rng.h"

using namespace iq;

namespace {

struct Options {
  casql::Technique technique = casql::Technique::kRefresh;
  casql::Consistency consistency = casql::Consistency::kIQ;
  casql::LeasePlacement placement = casql::LeasePlacement::kInsideTxn;
  bg::MemberId members = 1000;
  int friends = 10;
  int threads = 16;
  double seconds = 3.0;
  double mix = 1.0;
  std::uint64_t seed = 42;
  bool warm = false;
  bool validate = true;
  Nanos db_read = 30 * kNanosPerMicro;
  Nanos db_write = 60 * kNanosPerMicro;
  Nanos db_commit = 60 * kNanosPerMicro;
  Nanos lease_lifetime = 10 * kNanosPerSec;
  bool deferred_delete = true;
  /// Near cache (DESIGN.md §4.10): validity interval (ms) the server
  /// grants with every clean IQget hit, and the client-side near-cache
  /// capacity in entries. --near-ttl-ms > 0 enables both ends; repeat
  /// reads inside the interval are served locally with zero round trips.
  long long near_ttl_ms = 0;
  std::size_t near_cap = 4096;
  std::string connect;  // host:port of a running iqcached; empty = in-process
  /// Remote mode: connect/read/write deadline per socket operation. Bounds
  /// how long any request can block on a dead or wedged server.
  int timeout_ms = 2000;
  /// Online staleness audit: fraction of reads re-checked against ground
  /// truth. Any detected stale read fails an IQ run (exit 1).
  double audit_rate = 0.0;
  /// Client-side op log for the offline checker (tools/iqcheck): every
  /// client-visible read/write/commit/abort is appended here and dumped to
  /// this file at the end of the run. Empty = off.
  std::string oplog;
  /// In-process mode: dump the server's lease trace (TRACE_INFO header +
  /// TRACE lines, iqcheck --trace format) to this file after the run.
  std::string trace_out;
  /// In-process mode: per-shard lease-trace ring capacity. Size it above
  /// the run's event count or iqcheck will refuse to certify (ring wrap).
  std::size_t trace_capacity = 1024;
  /// Remote mode: Zipfian skew (theta) for counter/data key selection;
  /// 0 = uniform. Hot keys concentrate lease contention for the checker's
  /// scenario matrix (theta 0.99 ~ YCSB's default skew).
  double zipf = 0.0;
  /// Remote mode: fraction of write sessions that increment TWO counters
  /// in one session (two leases, one commit) — multi-key sessions for the
  /// checker's scenario matrix.
  double multikey_rate = 0.0;
};

bool StartsWith(const char* arg, const char* prefix, const char** value) {
  std::size_t n = std::strlen(prefix);
  if (std::strncmp(arg, prefix, n) != 0) return false;
  *value = arg + n;
  return true;
}

void PrintUsage(std::FILE* out) {
  std::fprintf(out,
               "usage: iqbench [--technique=invalidate|refresh|incremental]\n"
               "               [--consistency=none|cas|read-lease|iq]\n"
               "               [--placement=prior|inside] [--members=N]\n"
               "               [--friends=N] [--threads=N] [--seconds=S]\n"
               "               [--mix=0.1|1|10] [--seed=N] [--warm]\n"
               "               [--no-validate] [--db-read-us=N]\n"
               "               [--db-write-us=N] [--db-commit-us=N]\n"
               "               [--lease-ms=N] [--eager-delete]\n"
               "               [--near-ttl-ms=N] [--near-cap=N]\n"
               "               [--audit-rate=F]\n"
               "               [--oplog=FILE] [--trace-out=FILE]\n"
               "               [--trace-capacity=N]\n"
               "       iqbench --connect=host:port[,host:port,...]\n"
               "               [--technique=...] [--consistency=...]\n"
               "               [--placement=...] [--threads=N] [--seconds=S]\n"
               "               [--mix=PCT] [--seed=N] [--db-read-us=N]\n"
               "               [--db-write-us=N] [--db-commit-us=N]\n"
               "               [--timeout-ms=N] [--audit-rate=F]\n"
               "               [--near-ttl-ms=N] [--near-cap=N]\n"
               "               [--oplog=FILE] [--zipf=THETA]\n"
               "               [--multikey-rate=F]\n"
               "       iqbench --help\n"
               "(--threads >= 1, --seconds > 0, --mix in [0,100], rates in\n"
               " [0,1], --zipf in [0,1), --timeout-ms >= 1; --near-ttl-ms in\n"
               " remote mode requires the server to run with a matching\n"
               " --near-validity-ms; grants are server-side)\n");
}

[[noreturn]] void Usage(const char* bad) {
  std::fprintf(stderr, "iqbench: bad argument '%s'\n", bad);
  PrintUsage(stderr);
  std::exit(2);
}

/// The whole of `v` as an integer in [lo, hi], or exit with the usage.
long long IntArg(const char* arg, const char* v, long long lo,
                 long long hi = LLONG_MAX) {
  char* end = nullptr;
  errno = 0;
  long long n = std::strtoll(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE || n < lo || n > hi) {
    Usage(arg);
  }
  return n;
}

/// The whole of `v` as a finite number, or exit with the usage; `ok`
/// checks its range.
template <typename InRange>
double RealArg(const char* arg, const char* v, InRange ok) {
  char* end = nullptr;
  double x = std::strtod(v, &end);
  if (end == v || *end != '\0' || !std::isfinite(x) || !ok(x)) Usage(arg);
  return x;
}

Options Parse(int argc, char** argv) {
  Options opt;
  auto rate = [](double x) { return x >= 0 && x <= 1; };
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    const char* arg = argv[i];
    if (std::strcmp(arg, "--help") == 0) {
      PrintUsage(stdout);
      std::exit(0);
    } else if (StartsWith(arg, "--technique=", &v)) {
      if (std::strcmp(v, "invalidate") == 0) {
        opt.technique = casql::Technique::kInvalidate;
      } else if (std::strcmp(v, "refresh") == 0) {
        opt.technique = casql::Technique::kRefresh;
      } else if (std::strcmp(v, "incremental") == 0) {
        opt.technique = casql::Technique::kIncremental;
      } else {
        Usage(arg);
      }
    } else if (StartsWith(arg, "--consistency=", &v)) {
      if (std::strcmp(v, "none") == 0) {
        opt.consistency = casql::Consistency::kNone;
      } else if (std::strcmp(v, "cas") == 0) {
        opt.consistency = casql::Consistency::kCas;
      } else if (std::strcmp(v, "read-lease") == 0) {
        opt.consistency = casql::Consistency::kReadLease;
      } else if (std::strcmp(v, "iq") == 0) {
        opt.consistency = casql::Consistency::kIQ;
      } else {
        Usage(arg);
      }
    } else if (StartsWith(arg, "--placement=", &v)) {
      if (std::strcmp(v, "prior") == 0) {
        opt.placement = casql::LeasePlacement::kPriorToTxn;
      } else if (std::strcmp(v, "inside") == 0) {
        opt.placement = casql::LeasePlacement::kInsideTxn;
      } else {
        Usage(arg);
      }
    } else if (StartsWith(arg, "--members=", &v)) {
      opt.members = IntArg(arg, v, 1);
    } else if (StartsWith(arg, "--friends=", &v)) {
      opt.friends = static_cast<int>(IntArg(arg, v, 0, INT_MAX));
    } else if (StartsWith(arg, "--threads=", &v)) {
      opt.threads = static_cast<int>(IntArg(arg, v, 1, INT_MAX));
    } else if (StartsWith(arg, "--seconds=", &v)) {
      opt.seconds = RealArg(arg, v, [](double x) { return x > 0; });
    } else if (StartsWith(arg, "--mix=", &v)) {
      opt.mix = RealArg(arg, v, [](double x) { return x >= 0 && x <= 100; });
    } else if (StartsWith(arg, "--seed=", &v)) {
      opt.seed = static_cast<std::uint64_t>(IntArg(arg, v, 0));
    } else if (std::strcmp(arg, "--warm") == 0) {
      opt.warm = true;
    } else if (std::strcmp(arg, "--no-validate") == 0) {
      opt.validate = false;
    } else if (StartsWith(arg, "--db-read-us=", &v)) {
      opt.db_read = IntArg(arg, v, 0, INT_MAX) * kNanosPerMicro;
    } else if (StartsWith(arg, "--db-write-us=", &v)) {
      opt.db_write = IntArg(arg, v, 0, INT_MAX) * kNanosPerMicro;
    } else if (StartsWith(arg, "--db-commit-us=", &v)) {
      opt.db_commit = IntArg(arg, v, 0, INT_MAX) * kNanosPerMicro;
    } else if (StartsWith(arg, "--lease-ms=", &v)) {
      opt.lease_lifetime = IntArg(arg, v, 0, INT_MAX) * kNanosPerMilli;
    } else if (std::strcmp(arg, "--eager-delete") == 0) {
      opt.deferred_delete = false;
    } else if (StartsWith(arg, "--near-ttl-ms=", &v)) {
      opt.near_ttl_ms = IntArg(arg, v, 0, INT_MAX);
    } else if (StartsWith(arg, "--near-cap=", &v)) {
      opt.near_cap = static_cast<std::size_t>(IntArg(arg, v, 0));
    } else if (StartsWith(arg, "--connect=", &v)) {
      opt.connect = v;
    } else if (StartsWith(arg, "--timeout-ms=", &v)) {
      opt.timeout_ms = static_cast<int>(IntArg(arg, v, 1, INT_MAX));
    } else if (StartsWith(arg, "--audit-rate=", &v)) {
      opt.audit_rate = RealArg(arg, v, rate);
    } else if (StartsWith(arg, "--oplog=", &v)) {
      opt.oplog = v;
    } else if (StartsWith(arg, "--trace-out=", &v)) {
      opt.trace_out = v;
    } else if (StartsWith(arg, "--trace-capacity=", &v)) {
      opt.trace_capacity = static_cast<std::size_t>(IntArg(arg, v, 0));
    } else if (StartsWith(arg, "--zipf=", &v)) {
      opt.zipf = RealArg(arg, v, [](double x) { return x >= 0 && x < 1; });
    } else if (StartsWith(arg, "--multikey-rate=", &v)) {
      opt.multikey_rate = RealArg(arg, v, rate);
    } else {
      Usage(arg);
    }
  }
  return opt;
}

// ---- configuration and report shared by both modes ---------------------------

sql::Database::Config DatabaseConfig(const Options& opt) {
  sql::Database::Config cfg;
  cfg.read_delay = opt.db_read;
  cfg.write_delay = opt.db_write;
  cfg.commit_delay = opt.db_commit;
  return cfg;
}

casql::CasqlConfig CasqlConfigFor(const Options& opt, check::OpLog* log) {
  casql::CasqlConfig cfg;
  cfg.technique = opt.technique;
  cfg.consistency = opt.consistency;
  cfg.placement = opt.placement;
  cfg.audit_rate = opt.audit_rate;
  cfg.op_log = log;
  cfg.client.seed = opt.seed;
  if (opt.near_ttl_ms > 0) cfg.client.near_capacity = opt.near_cap;
  return cfg;
}

void PrintAudit(const casql::AuditStats& audit) {
  std::printf("audit          %llu samples, stale_reads_detected=%llu, "
              "%llu skipped, %llu bounded\n",
              static_cast<unsigned long long>(audit.samples),
              static_cast<unsigned long long>(audit.stale_reads_detected),
              static_cast<unsigned long long>(audit.skipped),
              static_cast<unsigned long long>(audit.bounded));
}

void PrintNearCache(const NearCache::Stats& ns, std::size_t entries) {
  std::printf("near cache     %llu hits (zero round trips), %llu expired, "
              "%llu invalidated, %llu evictions (%zu entries)\n",
              static_cast<unsigned long long>(ns.hits),
              static_cast<unsigned long long>(ns.expired),
              static_cast<unsigned long long>(ns.invalidated),
              static_cast<unsigned long long>(ns.evictions), entries);
}

bool DumpOpLog(const check::OpLog& log, const std::string& path) {
  if (path.empty() || log.DumpToFile(path)) return true;
  std::fprintf(stderr, "iqbench: cannot write op log '%s'\n", path.c_str());
  return false;
}

// ---- remote mode ------------------------------------------------------------

constexpr int kCounters = 8;
constexpr int kDataRows = 64;
/// Under --technique=incremental, one write op in this many per worker also
/// runs the own-update probe.
constexpr std::uint64_t kProbeEvery = 8;

std::string CounterKey(int id) { return "ctr:" + std::to_string(id); }
std::string DataKey(int id) { return "data:" + std::to_string(id); }

/// The ground truth of a remote run: `ctr` holds the counters the writers
/// increment, `data` the rows that are only ever read. Each data row is
/// 100 bytes tagged with its id, so a value served under the wrong key is
/// stale to the auditor.
void LoadRemoteTables(sql::Database& db) {
  db.CreateTable(sql::SchemaBuilder("ctr")
                     .AddInt("id")
                     .AddInt("n")
                     .PrimaryKey({"id"})
                     .Build());
  db.CreateTable(sql::SchemaBuilder("data")
                     .AddInt("id")
                     .AddText("v")
                     .PrimaryKey({"id"})
                     .Build());
  auto txn = db.Begin();
  for (int i = 0; i < kCounters; ++i) txn->Insert("ctr", {sql::V(i), sql::V(0)});
  for (int i = 0; i < kDataRows; ++i) {
    std::string value = "row " + std::to_string(i) + " ";
    value.resize(100, 'x');
    txn->Insert("data", {sql::V(i), sql::V(std::move(value))});
  }
  txn->Commit();
}

/// A row's cached text (its second column): what a read recomputes on a
/// miss and what the auditor compares a hit against.
casql::ComputeFn RowValue(const char* table, int id) {
  return [table, id](sql::Transaction& txn) -> std::optional<std::string> {
    auto row = txn.SelectByPk(table, {sql::V(id)});
    if (!row) return std::nullopt;
    if (auto n = sql::AsInt((*row)[1])) return std::to_string(*n);
    return sql::AsText((*row)[1]);
  };
}

/// One write session adding 1 to each counter in `ids` (ascending, so
/// contending sessions take their leases in one direction). Every key
/// carries both rules, refresh (old + 1, skipped on a miss) and an Incr
/// delta, so the same spec runs under every technique.
casql::WriteSpec IncrementSpec(std::vector<int> ids) {
  casql::WriteSpec spec;
  for (int id : ids) {
    casql::KeyUpdate u;
    u.key = CounterKey(id);
    u.refresh = [](const std::optional<std::string>& old)
        -> std::optional<std::string> {
      if (!old) return std::nullopt;
      return std::to_string(std::atoll(old->c_str()) + 1);
    };
    u.delta = DeltaOp{DeltaOp::Kind::kIncr, {}, 1};
    spec.updates.push_back(std::move(u));
  }
  spec.body = [ids = std::move(ids)](sql::Transaction& txn) {
    for (int id : ids) {
      if (txn.UpdateByPk("ctr", {sql::V(id)}, [](sql::Row& row) {
            row[1] = sql::V(*sql::AsInt(row[1]) + 1);
          }) != sql::TxnResult::kOk) {
        return false;
      }
    }
    return true;
  };
  return spec;
}

/// The own-update visibility probe (Section 4.2.2): QaRead, a buffered
/// Incr, a second QaRead under the same live Q lease, then Abort, which
/// discards the delta, so the probe changes neither the cache nor the
/// database. The server must replay the pending delta into the re-read; the
/// read_own record lets iqcheck flag a pre-delta value reappearing
/// (non_monotonic_session).
void OwnUpdateProbe(IQSession& session, const std::string& key,
                    check::OpLog* log) {
  auto record = [&](check::OpKind kind, const std::optional<std::string>& v) {
    if (log) {
      log->Record(session.id(), kind, TraceKeyHash(key), check::OpValueHash(v));
    }
  };
  std::optional<std::string> before;
  if (session.QaRead(key, before) == ClientQResult::kGranted) {
    record(before ? check::OpKind::kReadHit : check::OpKind::kReadMiss, before);
    if (before && session.Incr(key, 1) == ClientQResult::kGranted) {
      record(check::OpKind::kDelta, std::nullopt);
      std::optional<std::string> own;
      if (session.QaRead(key, own) == ClientQResult::kGranted) {
        record(check::OpKind::kReadOwn, own);
      }
    }
  }
  session.Abort();
  if (log) log->Record(session.id(), check::OpKind::kAbort, 0);
}

/// One client thread's view of the remote tier: one reconnecting pipelined
/// connection per endpoint, a RemoteBackend per connection, and (for >1
/// endpoint) a ShardedBackend routing over them. All threads use the same
/// shard names (the endpoint labels), so every thread's ring agrees on key
/// placement. The stack survives a server kill: the channel fails fast and
/// reconnects lazily, and the router's circuit breaker keeps the healthy
/// shards unaffected while the dead one heals.
struct RemoteStack {
  std::unique_ptr<net::ChannelPool> pool;
  std::vector<std::unique_ptr<net::RemoteBackend>> backends;
  std::unique_ptr<ShardedBackend> router;
  KvsBackend* backend = nullptr;  // router, or the single backend

  static std::unique_ptr<RemoteStack> Connect(
      const std::vector<net::Endpoint>& endpoints, int timeout_ms,
      std::string* error) {
    auto stack = std::make_unique<RemoteStack>();
    net::ChannelPool::Config pool_cfg;
    pool_cfg.channel.channel.connect_timeout_ms = timeout_ms;
    pool_cfg.channel.channel.io_timeout_ms = timeout_ms;
    // A shard may be mid-restart when a worker (re)builds its stack; let
    // its channel come up "down" and heal through backoff.
    pool_cfg.require_initial_connect = false;
    stack->pool = net::ChannelPool::Connect(endpoints, pool_cfg, error);
    if (!stack->pool) return nullptr;
    std::vector<ShardedBackend::Shard> shards;
    for (std::size_t i = 0; i < stack->pool->size(); ++i) {
      stack->backends.push_back(
          std::make_unique<net::RemoteBackend>(stack->pool->channel(i)));
      net::RemoteBackend* remote = stack->backends.back().get();
      net::ReconnectingChannel* channel = &stack->pool->channel(i);
      shards.push_back({net::Name(stack->pool->endpoint(i)), remote, 1,
                        [remote] { return net::ParseIQStats(remote->Stats()); },
                        [channel] { return channel->reconnects(); },
                        [remote](std::size_t max_events) {
                          auto drain = remote->TraceWithInfo(max_events);
                          return drain ? std::move(drain->events)
                                       : std::vector<TraceEvent>{};
                        },
                        [remote] {
                          auto drain = remote->TraceWithInfo(1);
                          return drain && drain->has_info ? drain->info
                                                          : TraceInfo{};
                        }});
    }
    if (endpoints.size() == 1) {
      stack->backend = stack->backends[0].get();
    } else {
      stack->router = std::make_unique<ShardedBackend>(std::move(shards));
      stack->backend = stack->router.get();
    }
    return stack;
  }
};

/// What the remote workers hand back as they exit, summed under one mutex.
struct RemoteTotals {
  std::uint64_t ops = 0;
  LatencyHistogram latency;
  casql::AuditStats audit;
  NearCache::Stats near;
  std::size_t near_entries = 0;
  // Fault-recovery evidence from each worker's own stack: the settle-pass
  // stack connects fresh and would report zeros even after a shard kill.
  std::uint64_t reconnects = 0;
  std::uint64_t transport_errors = 0;
  std::uint64_t shard_trips = 0;
  std::uint64_t shard_recoveries = 0;
  bool connect_failed = false;
};

int RunRemote(const Options& opt) {
  std::string error;
  std::vector<net::Endpoint> endpoints = net::ParseEndpoints(opt.connect, &error);
  if (endpoints.empty()) {
    std::fprintf(stderr, "iqbench: %s\n", error.c_str());
    return 1;
  }
  std::printf("iqbench: remote cache tier:");
  for (const net::Endpoint& ep : endpoints) {
    std::printf(" %s", net::Name(ep).c_str());
  }
  std::printf(" (%zu shard%s) | %s / %s / %s | %d threads, %.1fs, %.1f%% "
              "writes\n",
              endpoints.size(), endpoints.size() == 1 ? "" : "s",
              casql::ToString(opt.technique), casql::ToString(opt.consistency),
              casql::ToString(opt.placement), opt.threads, opt.seconds,
              opt.mix);
  if (opt.zipf > 0 || opt.multikey_rate > 0) {
    std::printf("iqbench: zipf=%.2f multikey-rate=%.2f\n", opt.zipf,
                opt.multikey_rate);
  }

  sql::Database db(DatabaseConfig(opt));
  LoadRemoteTables(db);
  check::OpLog op_log;
  check::OpLog* log = opt.oplog.empty() ? nullptr : &op_log;
  const casql::CasqlConfig base_cfg = CasqlConfigFor(opt, log);

  // Seed the tier from the database, so values an earlier run left on the
  // same servers cannot pass for cached truth. Seed records are logged
  // before the install, like write intents.
  {
    auto setup = RemoteStack::Connect(endpoints, opt.timeout_ms, &error);
    if (!setup) {
      std::fprintf(stderr, "iqbench: %s\n", error.c_str());
      return 1;
    }
    auto txn = db.Begin();
    auto seed = [&](const std::string& key, const casql::ComputeFn& value) {
      std::string v = *value(*txn);
      if (log) {
        log->Record(0, check::OpKind::kSeed, TraceKeyHash(key),
                    check::OpValueHash(v));
      }
      setup->backend->Set(key, v);
    };
    for (int i = 0; i < kCounters; ++i) seed(CounterKey(i), RowValue("ctr", i));
    for (int i = 0; i < kDataRows; ++i) seed(DataKey(i), RowValue("data", i));
    txn->Rollback();
  }

  // Key pickers: Zipfian skew (scrambled so hot ids spread over the space)
  // concentrates lease contention on a few hot counters. The generators
  // are stateless after construction and shared across threads.
  std::optional<ScrambledZipfian> ctr_zipf, data_zipf;
  if (opt.zipf > 0) {
    ctr_zipf.emplace(kCounters, opt.zipf);
    data_zipf.emplace(kDataRows, opt.zipf);
  }
  auto pick_ctr = [&](Rng& rng) {
    return static_cast<int>(ctr_zipf ? ctr_zipf->Next(rng)
                                     : rng.NextUint64(kCounters));
  };
  auto pick_data = [&](Rng& rng) {
    return static_cast<int>(data_zipf ? data_zipf->Next(rng)
                                      : rng.NextUint64(kDataRows));
  };

  std::mutex totals_mu;
  RemoteTotals totals;
  const Clock& clock = SteadyClock::Instance();
  Nanos deadline = clock.Now() + static_cast<Nanos>(opt.seconds * kNanosPerSec);

  std::vector<std::thread> threads;
  for (int t = 0; t < opt.threads; ++t) {
    threads.emplace_back([&, t] {
      std::string conn_error;
      auto stack = RemoteStack::Connect(endpoints, opt.timeout_ms, &conn_error);
      if (!stack) {
        std::fprintf(stderr, "iqbench: thread %d: %s\n", t, conn_error.c_str());
        std::lock_guard lock(totals_mu);
        totals.connect_failed = true;
        return;
      }
      // One system per worker: a system binds one backend, and each
      // worker's channels carry one request at a time.
      casql::CasqlConfig cfg = base_cfg;
      cfg.client.seed = opt.seed + static_cast<std::uint64_t>(t) * 31;
      casql::CasqlSystem system(db, *stack->backend, cfg);
      auto conn = system.Connect();
      std::unique_ptr<IQSession> probe;
      if (opt.technique == casql::Technique::kIncremental) {
        probe = system.client().NewSession();
      }
      Rng rng(opt.seed + static_cast<std::uint64_t>(t) * 7919);
      LatencyHistogram latency;
      std::uint64_t ops = 0;
      std::uint64_t writes = 0;
      while (clock.Now() < deadline) {
        Nanos start = clock.Now();
        if (rng.NextUint64(10000) < static_cast<std::uint64_t>(opt.mix * 100)) {
          int idx = pick_ctr(rng);
          if (probe && ++writes % kProbeEvery == 0) {
            OwnUpdateProbe(*probe, CounterKey(idx), log);
          }
          if (opt.multikey_rate > 0 && rng.NextBool(opt.multikey_rate)) {
            int jdx = pick_ctr(rng);
            while (jdx == idx) jdx = static_cast<int>(rng.NextUint64(kCounters));
            conn->Write(IncrementSpec({std::min(idx, jdx), std::max(idx, jdx)}));
          } else {
            conn->Write(IncrementSpec({idx}));
          }
        } else {
          int c = pick_ctr(rng);
          conn->Read(CounterKey(c), RowValue("ctr", c));
          for (int k = 0; k < 2; ++k) {
            int d = pick_data(rng);
            conn->Read(DataKey(d), RowValue("data", d));
          }
        }
        latency.Record(clock.Now() - start);
        ++ops;
      }
      std::lock_guard lock(totals_mu);
      totals.ops += ops;
      totals.latency.Merge(latency);
      casql::AuditStats audit = system.audit_stats();
      totals.audit.samples += audit.samples;
      totals.audit.stale_reads_detected += audit.stale_reads_detected;
      totals.audit.skipped += audit.skipped;
      totals.audit.bounded += audit.bounded;
      if (NearCache* near = system.client().near_cache()) {
        NearCache::Stats ns = near->stats();
        totals.near.hits += ns.hits;
        totals.near.expired += ns.expired;
        totals.near.invalidated += ns.invalidated;
        totals.near.evictions += ns.evictions;
        totals.near_entries += near->size();
      }
      for (std::size_t i = 0; i < stack->pool->size(); ++i) {
        totals.reconnects += stack->pool->channel(i).reconnects();
        totals.transport_errors += stack->pool->channel(i).transport_errors();
      }
      if (stack->router) {
        auto rs = stack->router->router_stats();
        totals.shard_trips += rs.shard_trips;
        totals.shard_recoveries += rs.shard_recoveries;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  if (totals.connect_failed) {
    std::fprintf(stderr, "iqbench: a worker lost its connection\n");
    return 1;
  }

  // Settle pass, serialized through a Q lease per counter: one casql
  // increment (it waits out a lease a torn connection stranded, and on a
  // restarted shard it runs against a missing key), then a casql Read (a
  // miss recomputes from the database and installs), then a raw Get, which
  // must equal the counter's `ctr` row. A lost update, a desynced pipeline
  // or a mis-routed fan-out shows up as a mismatch. The deadline also gives
  // a just-restarted shard time to accept connections.
  auto settle = RemoteStack::Connect(endpoints, opt.timeout_ms, &error);
  if (!settle) {
    std::fprintf(stderr, "iqbench: %s\n", error.c_str());
    return 1;
  }
  casql::CasqlConfig settle_cfg = base_cfg;
  settle_cfg.client.seed = opt.seed ^ 0xC0FFEE;
  casql::CasqlSystem settle_system(db, *settle->backend, settle_cfg);
  auto settle_conn = settle_system.Connect();
  Nanos settle_deadline = clock.Now() + 10 * kNanosPerSec;
  bool settled = true;
  bool balanced = true;
  long long increments = 0;
  for (int i = 0; i < kCounters; ++i) {
    std::string key = CounterKey(i);
    bool committed = false;
    while (!committed && clock.Now() < settle_deadline) {
      committed = settle_conn->Write(IncrementSpec({i})).committed;
    }
    if (!committed) {
      std::fprintf(stderr, "iqbench: %s unreachable during settle pass\n",
                   key.c_str());
      settled = false;
      continue;
    }
    settle_conn->Read(key, RowValue("ctr", i));
    auto item = settle->backend->Get(key);
    if (item && log) {
      log->Record(0, check::OpKind::kReadHit, TraceKeyHash(key),
                  check::OpValueHash(item->value));
    }
    std::string truth = *RowValue("ctr", i)(*db.Begin());
    increments += std::atoll(truth.c_str());
    if (!item || item->value != truth) {
      std::fprintf(stderr, "iqbench: %s = %s, expected %s\n", key.c_str(),
                   item ? item->value.c_str() : "(miss)", truth.c_str());
      balanced = false;
    }
  }

  std::printf("throughput     %12.0f ops/sec (%llu ops, %lld increments)\n",
              static_cast<double>(totals.ops) / opt.seconds,
              static_cast<unsigned long long>(totals.ops), increments);
  std::printf("latency        %s\n", totals.latency.Summary().c_str());
  std::printf("counter balance %s\n", settled && balanced ? "exact" : "VIOLATED");
  if (opt.audit_rate > 0) PrintAudit(totals.audit);
  if (opt.near_ttl_ms > 0) PrintNearCache(totals.near, totals.near_entries);
  std::printf(
      "fault recovery  %llu transport errors, %llu reconnects, "
      "%llu trips, %llu recoveries (worker-side)\n",
      static_cast<unsigned long long>(totals.transport_errors),
      static_cast<unsigned long long>(totals.reconnects),
      static_cast<unsigned long long>(totals.shard_trips),
      static_cast<unsigned long long>(totals.shard_recoveries));
  if (settle->router) {
    std::printf("\ncache tier (aggregated + per-shard):\n%s",
                settle->router->FormatStats().c_str());
  } else {
    std::printf("\ncache server:\n%s",
                settle->backends[0]->Stats().c_str());
  }
  if (!DumpOpLog(op_log, opt.oplog)) return 1;
  // Under IQ an imbalance or a detected stale read is a consistency bug and
  // fails the run; the baselines are expected to diverge (that is the
  // paper's point), so they report without failing.
  bool violated = !balanced || totals.audit.stale_reads_detected != 0;
  return settled && !(opt.consistency == casql::Consistency::kIQ && violated)
             ? 0
             : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt = Parse(argc, argv);
  if (!opt.connect.empty()) return RunRemote(opt);

  std::printf("iqbench: %s / %s / %s | %lld members, %d threads, %.1fs, %.1f%% writes\n",
              casql::ToString(opt.technique), casql::ToString(opt.consistency),
              casql::ToString(opt.placement),
              static_cast<long long>(opt.members), opt.threads, opt.seconds,
              opt.mix);

  sql::Database db(DatabaseConfig(opt));

  bg::GraphConfig graph;
  graph.members = opt.members;
  graph.friends_per_member = opt.friends;
  graph.resources_per_member = 2;
  graph.comments_per_resource = 2;

  std::printf("loading social graph...\n");
  bg::CreateBgTables(db);
  std::size_t rows = bg::LoadGraph(db, graph);
  std::printf("  %zu rows loaded\n", rows);
  bg::ActionPools pools;
  pools.SeedFromGraph(graph);

  IQServer::Config server_cfg;
  server_cfg.lease_lifetime = opt.lease_lifetime;
  server_cfg.deferred_delete = opt.deferred_delete;
  server_cfg.trace_capacity = opt.trace_capacity;
  server_cfg.near_validity = opt.near_ttl_ms * kNanosPerMilli;
  IQServer server(CacheStore::Config{}, server_cfg);

  check::OpLog op_log;
  casql::CasqlSystem system(
      db, server, CasqlConfigFor(opt, opt.oplog.empty() ? nullptr : &op_log));

  if (opt.warm) {
    std::printf("warming the cache...\n");
    bg::WarmCache(system, graph);
  }

  bg::WorkloadConfig wl;
  wl.mix = bg::MixForWritePercent(opt.mix);
  wl.threads = opt.threads;
  wl.duration = static_cast<Nanos>(opt.seconds * kNanosPerSec);
  wl.seed = opt.seed;
  wl.validate = opt.validate;
  wl.seed_validator_from_db = true;

  std::printf("running...\n\n");
  bg::WorkloadResult result = bg::RunWorkload(system, pools, graph, wl);

  std::printf("throughput     %12.0f actions/sec (%llu actions, %llu no-ops)\n",
              result.Throughput(),
              static_cast<unsigned long long>(result.actions),
              static_cast<unsigned long long>(result.failed_actions));
  std::printf("latency        %s\n", result.latency.Summary().c_str());
  std::printf("SLA (95%%<100ms) %s\n",
              result.latency.FractionBelow(100 * kNanosPerMilli) >= 0.95
                  ? "met"
                  : "MISSED");
  if (opt.validate) {
    std::printf("unpredictable  %llu of %llu reads (%.3f%%)\n",
                static_cast<unsigned long long>(result.validation.unpredictable),
                static_cast<unsigned long long>(result.validation.reads_checked),
                result.validation.StalePercent());
  }
  std::printf("write sessions %llu (avg %.2f Q-restarts among %llu restarted, max %llu)\n",
              static_cast<unsigned long long>(result.restarts.write_sessions),
              result.restarts.AvgRestarts(),
              static_cast<unsigned long long>(result.restarts.restarted_sessions),
              static_cast<unsigned long long>(result.restarts.max_q_restarts));
  if (opt.audit_rate > 0) PrintAudit(system.audit_stats());
  if (NearCache* near = system.client().near_cache()) {
    PrintNearCache(near->stats(), near->size());
  }
  std::printf("\ncache server:\n%s", net::FormatStats(server).c_str());
  // Artifacts for the offline checker: the client op log and the server's
  // lease trace with its completeness header (iqcheck --oplog / --trace).
  if (!DumpOpLog(op_log, opt.oplog)) return 1;
  if (!opt.trace_out.empty()) {
    std::string text = FormatTraceInfo(server.TraceInfoTotal());
    text += FormatTraceEvents(
        server.TraceSnapshot(std::numeric_limits<std::size_t>::max()));
    std::ofstream out(opt.trace_out, std::ios::binary | std::ios::trunc);
    out << text;
    if (!out.good()) {
      std::fprintf(stderr, "iqbench: cannot write trace '%s'\n",
                   opt.trace_out.c_str());
      return 1;
    }
  }
  // In IQ mode the audit has zero false positives, so any detection is a
  // real consistency bug: fail the run. Baselines are expected to be stale
  // (that is the paper's point), so they report without failing.
  if (opt.consistency == casql::Consistency::kIQ &&
      system.audit_stats().stale_reads_detected != 0) {
    return 1;
  }
  return 0;
}
