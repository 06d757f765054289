// The two BG workloads. Both run their own copy of the bg::RunWorkload loop,
// because bg_tcp_read needs one CasqlSystem per client thread (a system
// binds one backend, and a RemoteBackend serializes its channel) while all
// threads share one Database, Validator and ActionPools; and because the
// loop must split its window into slices, tell no-ops from failures, and
// open a root span around every action in the traced run.
#include <cstdio>

#include "bg/workload.h"
#include "casql/casql.h"
#include "net/remote_backend.h"
#include "net/tcp_channel.h"
#include "workloads.h"

namespace perfbench {
namespace {

using iq::bg::ActionKind;

/// A 10k-member social graph shaped like iqbench's: its warm working set is
/// 40k keys, about 3.7 MB by the CacheStore's accounting.
iq::bg::GraphConfig Graph() {
  iq::bg::GraphConfig g;
  g.members = 10000;
  g.friends_per_member = 10;
  g.resources_per_member = 2;
  g.comments_per_resource = 2;
  return g;
}

/// bg_write_evict's cache budget: about half the warm working set.
constexpr std::size_t kEvictBudgetBytes = 2'000'000;

/// The Validator sees every write and one read action in this many.
constexpr std::uint64_t kReadLogEvery = 8;

/// BG's skew convention: exponent = 1 - theta, theta 0.27 gives 70/20.
constexpr double kBgZipfTheta = 0.27;

bool IsWrite(ActionKind k) {
  return k == ActionKind::kInviteFriend || k == ActionKind::kAcceptFriend ||
         k == ActionKind::kRejectFriend || k == ActionKind::kThawFriendship;
}

ActionKind PickAction(const iq::bg::Mix& mix, iq::Rng& rng) {
  double u = rng.NextDouble();
  double acc = 0;
  for (std::size_t i = 0; i < mix.probability.size(); ++i) {
    acc += mix.probability[i];
    if (u < acc) return static_cast<ActionKind>(i);
  }
  return ActionKind::kViewProfile;
}

/// One client thread's stacks over the TCP tier: the plain one, and (for
/// the traced run) the same layers with a timing decorator at every
/// boundary:
///   tier span -> ShardedBackend -> shard span -> RemoteBackend
///   -> TimedChannel -> TcpChannel.
struct TcpClient {
  std::vector<std::unique_ptr<iq::net::TcpChannel>> channels;
  std::vector<std::unique_ptr<iq::net::RemoteBackend>> remotes;
  std::unique_ptr<iq::ShardedBackend> router;
  std::unique_ptr<iq::casql::CasqlSystem> system;

  std::vector<std::unique_ptr<TimedChannel>> timed_channels;
  std::vector<std::unique_ptr<iq::net::RemoteBackend>> timed_remotes;
  std::vector<std::unique_ptr<TimedBackend>> shard_spans;
  std::unique_ptr<iq::ShardedBackend> timed_router;
  std::unique_ptr<TimedBackend> tier_span;
  std::unique_ptr<iq::casql::CasqlSystem> timed_system;
};

std::unique_ptr<iq::ShardedBackend> MakeRouter(
    const std::vector<iq::KvsBackend*>& children) {
  std::vector<iq::ShardedBackend::Shard> shards;
  for (std::size_t i = 0; i < children.size(); ++i) {
    iq::ShardedBackend::Shard s;
    s.name = "shard" + std::to_string(i);
    s.backend = children[i];
    shards.push_back(std::move(s));
  }
  return std::make_unique<iq::ShardedBackend>(std::move(shards));
}

struct BgFixture {
  iq::sql::Database db{iq::sql::Database::Config{}};  // no artificial delays
  iq::bg::GraphConfig graph = Graph();
  iq::bg::ActionPools pools;
  iq::casql::CasqlConfig casql;
  std::vector<std::unique_ptr<iq::IQServer>> servers;
  std::vector<std::unique_ptr<iq::net::TcpServer>> wire;
  std::vector<TcpClient> clients;  // bg_tcp_read: one per client thread
  // bg_write_evict: one system over the in-process server, shared by all
  // threads, and its traced twin.
  std::unique_ptr<iq::casql::CasqlSystem> shared;
  std::unique_ptr<TimedBackend> shared_tier_span;
  std::unique_ptr<iq::casql::CasqlSystem> shared_timed;

  BgFixture() {
    iq::bg::CreateBgTables(db);
    iq::bg::LoadGraph(db, graph);
    pools.SeedFromGraph(graph);
  }

  std::vector<iq::casql::CasqlSystem*> Systems(bool traced) const {
    std::vector<iq::casql::CasqlSystem*> out;
    for (const TcpClient& c : clients) {
      out.push_back(traced ? c.timed_system.get() : c.system.get());
    }
    if (shared) out.push_back(traced ? shared_timed.get() : shared.get());
    return out;
  }

  std::vector<iq::ShardedBackend*> Routers(bool traced) const {
    std::vector<iq::ShardedBackend*> out;
    for (const TcpClient& c : clients) {
      out.push_back(traced ? c.timed_router.get() : c.router.get());
    }
    return out;
  }

  CounterSources Sources(bool traced) {
    CounterSources s;
    for (auto& srv : servers) s.servers.push_back(srv.get());
    for (auto& w : wire) s.wire.push_back(w.get());
    s.routers = Routers(traced);
    s.db = &db;
    return s;
  }
};

constexpr int kTcpShards = 2;
constexpr int kTcpClients = 2;
constexpr int kEvictThreads = 4;

std::unique_ptr<BgFixture> MakeTcpFixture(std::string* error) {
  auto f = std::make_unique<BgFixture>();
  f->casql.technique = iq::casql::Technique::kRefresh;
  f->casql.consistency = iq::casql::Consistency::kIQ;
  for (int s = 0; s < kTcpShards; ++s) {
    f->servers.push_back(std::make_unique<iq::IQServer>(
        iq::CacheStore::Config{}, iq::IQServer::Config{}));
    iq::net::TcpServer::Config cfg;
    cfg.workers = 1;
    f->wire.push_back(
        std::make_unique<iq::net::TcpServer>(*f->servers.back(), cfg));
    if (!f->wire.back()->Start(error)) return nullptr;
  }
  f->clients.resize(kTcpClients);
  for (TcpClient& c : f->clients) {
    std::vector<iq::KvsBackend*> children;
    for (auto& w : f->wire) {
      c.channels.push_back(
          iq::net::TcpChannel::Connect("127.0.0.1", w->port(), error));
      if (c.channels.back() == nullptr) return nullptr;
      c.remotes.push_back(
          std::make_unique<iq::net::RemoteBackend>(*c.channels.back()));
      children.push_back(c.remotes.back().get());
    }
    c.router = MakeRouter(children);
    c.system =
        std::make_unique<iq::casql::CasqlSystem>(f->db, *c.router, f->casql);
  }
  // Warm in process, through a router over the servers themselves. The ring
  // depends only on the shard names, so every key lands on the server the
  // TCP clients route it to; and set-up time does not hinge on how the host
  // schedules the spinning network threads.
  std::vector<iq::KvsBackend*> local;
  for (auto& server : f->servers) local.push_back(server.get());
  std::unique_ptr<iq::ShardedBackend> router = MakeRouter(local);
  iq::casql::CasqlSystem warm(f->db, *router, f->casql);
  iq::bg::WarmCache(warm, f->graph);
  return f;
}

void AddTcpTracing(BgFixture& f, SpanRecorder& recorder) {
  for (TcpClient& c : f.clients) {
    std::vector<iq::KvsBackend*> children;
    for (auto& ch : c.channels) {
      c.timed_channels.push_back(std::make_unique<TimedChannel>(*ch, recorder));
      c.timed_remotes.push_back(
          std::make_unique<iq::net::RemoteBackend>(*c.timed_channels.back()));
      c.shard_spans.push_back(std::make_unique<TimedBackend>(
          *c.timed_remotes.back(), recorder, "shard"));
      children.push_back(c.shard_spans.back().get());
    }
    c.timed_router = MakeRouter(children);
    c.tier_span = std::make_unique<TimedBackend>(*c.timed_router, recorder,
                                                 "tier");
    c.timed_system =
        std::make_unique<iq::casql::CasqlSystem>(f.db, *c.tier_span, f.casql);
  }
}

std::unique_ptr<BgFixture> MakeEvictFixture(std::string* /*error*/) {
  auto f = std::make_unique<BgFixture>();
  f->casql.technique = iq::casql::Technique::kInvalidate;
  f->casql.consistency = iq::casql::Consistency::kIQ;
  iq::CacheStore::Config store;
  store.memory_budget_bytes = kEvictBudgetBytes;
  f->servers.push_back(
      std::make_unique<iq::IQServer>(store, iq::IQServer::Config{}));
  f->shared = std::make_unique<iq::casql::CasqlSystem>(
      f->db, *f->servers.back(), f->casql);
  iq::bg::WarmCache(*f->shared, f->graph);
  return f;
}

void AddEvictTracing(BgFixture& f, SpanRecorder& recorder) {
  f.shared_tier_span =
      std::make_unique<TimedBackend>(*f.servers[0], recorder, "tier");
  f.shared_timed = std::make_unique<iq::casql::CasqlSystem>(
      f.db, *f.shared_tier_span, f.casql);
}

struct BgPhase {
  WindowResult window;
  iq::bg::BGActions::RestartStats restarts;
  Counters delta;  // over the timed window
  std::uint64_t transport_errors = 0;  // over the whole phase
};

/// One closed-loop phase: `threads` workers, worker i on systems[i % n].
/// With a recorder, every worker attaches a span buffer and records a
/// "bg.action" root span around each action.
BgPhase RunPhase(BgFixture& f, bool traced, int threads, const iq::bg::Mix& mix,
                 double seconds, std::uint64_t seed,
                 std::vector<iq::bg::ThreadLog>& logs,
                 SpanRecorder* recorder) {
  const std::vector<iq::casql::CasqlSystem*> systems = f.Systems(traced);
  const std::uint32_t action_span =
      recorder != nullptr ? recorder->NameId("bg.action") : 0;
  std::vector<iq::bg::BGActions::RestartStats> restarts(
      static_cast<std::size_t>(threads));
  iq::Rng seeder(seed);
  std::vector<iq::Rng> rngs;
  for (int i = 0; i < threads; ++i) rngs.push_back(seeder.Fork());

  logs.resize(logs.size() + static_cast<std::size_t>(threads));
  iq::bg::ThreadLog* phase_logs =
      &logs[logs.size() - static_cast<std::size_t>(threads)];

  CounterSources sources = f.Sources(traced);
  Counters start_of_phase = Snapshot(sources);
  Counters before;
  BgPhase phase;
  phase.window = ClosedLoop::Run(
      threads, seconds,
      [&](int i, LoopThread& t) {
        auto w = static_cast<std::size_t>(i);
        if (recorder != nullptr) recorder->AttachThisThread();
        iq::Rng& rng = rngs[w];  // advances across rounds
        iq::ZipfianGenerator zipf(static_cast<std::uint64_t>(f.graph.members),
                                  1.0 - kBgZipfTheta);
        // Every write is logged for the Validator, and one read action in
        // kReadLogEvery: logging every read would hold gigabytes of logs.
        iq::casql::CasqlSystem& system = *systems[w % systems.size()];
        iq::bg::BGActions logged(system, f.pools, f.graph, &phase_logs[w],
                                 rng.Fork());
        iq::bg::BGActions unlogged(system, f.pools, f.graph, nullptr,
                                   rng.Fork());
        std::uint64_t reads = 0;
        while (t.Running()) {
          ActionKind kind = PickAction(mix, rng);
          auto member = static_cast<iq::bg::MemberId>(zipf.Next(rng));
          bool write = IsWrite(kind);
          iq::bg::BGActions& actions =
              write || reads++ % kReadLogEvery == 0 ? logged : unlogged;
          Nanos start = NowNanos();
          bool ok;
          {
            SpanScope root(action_span);  // a no-op in an untraced phase
            ok = actions.Run(kind, member);
          }
          Nanos latency = NowNanos() - start;
          // A write that finds its pool empty or its precondition gone (a
          // duplicate invite) is a BG no-op; a read that returns nothing is
          // a failure.
          t.Record(latency, 1, !ok && !write ? 1 : 0, !ok && write ? 1 : 0,
                   ok && write ? 1 : 0);
        }
        restarts[w].Merge(logged.restart_stats());
        if (recorder != nullptr) recorder->DetachThisThread();
      },
      [&] { before = Snapshot(sources); },
      [&] { Accumulate(phase.delta, Snapshot(sources), before); });
  Counters end_of_phase = Snapshot(sources);
  phase.transport_errors = end_of_phase.router.transport_errors -
                           start_of_phase.router.transport_errors;
  for (const auto& r : restarts) phase.restarts.Merge(r);
  return phase;
}

/// The shared body of both BG workloads.
template <class Make, class AddTracing>
RunReport RunBg(const Options& options, Make make, AddTracing add_tracing,
                int threads, const iq::bg::Mix& mix, bool in_process_tier) {
  RunReport report;
  std::unique_ptr<BgFixture> f =
      SetUpRepeatedly<BgFixture>(make, report);
  if (f == nullptr) return report;

  iq::bg::Validator validator;
  iq::bg::SeedValidatorFromDb(validator, f->db, f->graph);
  std::vector<iq::bg::ThreadLog> logs;
  std::uint64_t transport_errors = 0;

  if (!options.trace) {
    BgPhase p = RunPhase(*f, false, threads, mix, options.seconds,
                         options.seed, logs, nullptr);
    report.window = p.window;
    transport_errors += p.transport_errors;
  } else {
    // Half the window untraced, half traced, on the same fixture: the
    // difference is the tracing overhead.
    SpanRecorder recorder;
    add_tracing(*f, recorder);
    BgPhase plain = RunPhase(*f, false, threads, mix, options.seconds / 2,
                             options.seed, logs, nullptr);
    BgPhase traced = RunPhase(*f, true, threads, mix, options.seconds / 2,
                              options.seed + 1, logs, &recorder);
    report.window = plain.window;
    report.traced = traced.window;
    transport_errors += plain.transport_errors + traced.transport_errors;
    for (const TcpClient& c : f->clients) {
      for (const auto& ch : c.timed_channels) {
        transport_errors += ch->failures();
      }
    }
    LayerInputs in;
    in.in_process_tier = in_process_tier;
    in.untraced = plain.window;
    in.traced = traced.window;
    in.restarts = traced.restarts;
    in.delta = traced.delta;
    in.spans = recorder.Aggregate();
    report.per_layer = PerLayerMetrics(in);
    if (!options.span_path.empty() && !recorder.Dump(options.span_path)) {
      report.Fail("cannot write spans to " + options.span_path);
    }
  }

  if (transport_errors != 0) {
    report.Fail(std::to_string(transport_errors) + " transport errors");
  }
  if (report.window.failed + report.traced.failed != 0) {
    report.Fail(std::to_string(report.window.failed + report.traced.failed) +
                " read actions returned no value");
  }
  for (auto& log : logs) validator.Absorb(std::move(log));
  iq::bg::ValidationReport v = validator.Validate();
  std::printf("validation: %llu unpredictable of %llu reads checked\n",
              static_cast<unsigned long long>(v.unpredictable),
              static_cast<unsigned long long>(v.reads_checked));
  if (v.reads_checked == 0) report.Fail("validator checked no reads");
  if (v.unpredictable != 0) {
    report.Fail(std::to_string(v.unpredictable) + " unpredictable reads");
  }
  for (std::size_t i = 0; i < f->servers.size(); ++i) {
    std::string bad = f->servers[i]->store().CheckInvariants();
    if (!bad.empty()) {
      report.Fail("server " + std::to_string(i) + " invariants: " + bad);
    }
    std::size_t leases = f->servers[i]->LeaseCount();
    if (leases != 0) {
      report.Fail("server " + std::to_string(i) + " holds " +
                  std::to_string(leases) + " leases after the run");
    }
  }
  return report;
}

}  // namespace

RunReport RunBgTcpRead(const Options& options) {
  return RunBg(options, MakeTcpFixture, AddTcpTracing, kTcpClients,
               iq::bg::LowWriteMix(), /*in_process_tier=*/false);
}

RunReport RunBgWriteEvict(const Options& options) {
  return RunBg(options, MakeEvictFixture, AddEvictTracing, kEvictThreads,
               iq::bg::HighWriteMix(), /*in_process_tier=*/true);
}

}  // namespace perfbench
