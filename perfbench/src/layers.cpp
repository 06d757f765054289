#include "layers.h"

namespace perfbench {
namespace {

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// The wire dispatcher's command classes, as the metric names spell them.
const char* ClassName(std::size_t c) {
  static const char* const kNames[iq::kCommandClassCount] = {
      "get",   "store", "delete", "incrdecr", "iqget",  "iqset", "qaread",
      "sar",   "qareg", "dar",    "iqdelta",  "commit", "abort", "other"};
  return kNames[c];
}

// The monotonic counters the per-layer metrics read, per counter struct.
constexpr std::uint64_t iq::CacheStats::*kCacheFields[] = {
    &iq::CacheStats::gets, &iq::CacheStats::get_hits,
    &iq::CacheStats::opt_hits, &iq::CacheStats::opt_fallbacks,
    &iq::CacheStats::evictions};
constexpr std::uint64_t iq::net::TcpServerStats::*kWireFields[] = {
    &iq::net::TcpServerStats::bytes_read,
    &iq::net::TcpServerStats::bytes_written,
    &iq::net::TcpServerStats::requests};
constexpr std::uint64_t iq::ShardedBackendStats::*kRouterFields[] = {
    &iq::ShardedBackendStats::fanout_commits,
    &iq::ShardedBackendStats::fanout_aborts,
    &iq::ShardedBackendStats::cross_shard_sessions,
    &iq::ShardedBackendStats::transport_errors};
constexpr std::uint64_t iq::sql::Database::Stats::*kDbFields[] = {
    &iq::sql::Database::Stats::txns_started, &iq::sql::Database::Stats::reads,
    &iq::sql::Database::Stats::conflicts};

/// sum += after - before over `fields`.
template <class T, std::size_t N>
void AddDiff(T& sum, const T& after, const T& before,
             std::uint64_t T::* const (&fields)[N]) {
  for (auto f : fields) sum.*f += after.*f - before.*f;
}

}  // namespace

Counters Snapshot(const CounterSources& sources) {
  Counters c;
  for (iq::IQServer* s : sources.servers) {
    iq::IQServerStats leases = s->Stats();
    for (const iq::IQStatsField& f : iq::kIQStatsFields) {
      c.leases.*(f.member) += leases.*(f.member);
    }
    AddDiff(c.kvs, s->store().Stats(), {}, kCacheFields);
    for (std::size_t k = 0; k < iq::kCommandClassCount; ++k) {
      iq::LatencyHistogram h = s->command_latencies().Merged(k);
      c.cmd_count[k] += h.Count();
      c.cmd_total_ns[k] += h.MeanNanos() * static_cast<double>(h.Count());
    }
  }
  for (iq::net::TcpServer* t : sources.wire) {
    AddDiff(c.wire, t->Stats(), {}, kWireFields);
  }
  for (iq::ShardedBackend* r : sources.routers) {
    AddDiff(c.router, r->router_stats(), {}, kRouterFields);
  }
  if (sources.db != nullptr) c.db = sources.db->GetStats();
  return c;
}

void Accumulate(Counters& sum, const Counters& after, const Counters& before) {
  for (const iq::IQStatsField& f : iq::kIQStatsFields) {
    sum.leases.*(f.member) +=
        after.leases.*(f.member) - before.leases.*(f.member);
  }
  AddDiff(sum.kvs, after.kvs, before.kvs, kCacheFields);
  AddDiff(sum.wire, after.wire, before.wire, kWireFields);
  AddDiff(sum.router, after.router, before.router, kRouterFields);
  AddDiff(sum.db, after.db, before.db, kDbFields);
  for (std::size_t k = 0; k < iq::kCommandClassCount; ++k) {
    sum.cmd_count[k] += after.cmd_count[k] - before.cmd_count[k];
    sum.cmd_total_ns[k] += after.cmd_total_ns[k] - before.cmd_total_ns[k];
  }
}

std::vector<Metric> PerLayerMetrics(const LayerInputs& in) {
  std::vector<Metric> m;
  auto add = [&m](std::string name, double value, const char* unit) {
    m.push_back({std::move(name), value, unit});
  };
  auto span = [&in](const std::string& name) -> const SpanStats& {
    static const SpanStats kEmpty;
    auto it = in.spans.find(name);
    return it == in.spans.end() ? kEmpty : it->second;
  };
  // Sum of count and self time over every span of one layer ("tier.*").
  auto layer = [&in](const std::string& prefix) {
    std::pair<double, double> count_self{0, 0};
    for (const auto& [name, st] : in.spans) {
      if (name.rfind(prefix, 0) != 0) continue;
      count_self.first += static_cast<double>(st.count);
      count_self.second += st.self_ns;
    }
    return count_self;
  };

  const Counters& c = in.delta;
  const double ops = static_cast<double>(in.traced.ops);
  const double writes = static_cast<double>(in.traced.writes);

  // bench: the run itself.
  add("bench.trace_overhead",
      1.0 - Ratio(in.traced.throughput_ops_s, in.untraced.throughput_ops_s),
      "fraction");
  add("bench.untraced_ops_s", in.untraced.throughput_ops_s, "ops/s");
  add("bench.traced_ops_s", in.traced.throughput_ops_s, "ops/s");
  add("bench.latency_samples", static_cast<double>(in.traced.samples),
      "count");
  add("bench.ops", ops, "count");
  add("bench.writes", writes, "count");
  add("bench.error_share",
      Ratio(static_cast<double>(in.traced.failed), ops), "fraction");
  add("bench.steal_share", in.traced.steal_share, "fraction");

  // bg: the application above the cache tier.
  const SpanStats& action = span("bg.action");
  add("bg.app_self_us", action.SelfMeanUs(), "us");
  add("bg.noop_share", Ratio(static_cast<double>(in.traced.noops), ops),
      "fraction");

  // core: calls through KvsBackend, per verb, and the router.
  const auto [tier_calls, tier_self_ns] = layer("tier.");
  const auto [shard_calls, shard_self_ns] = layer("shard.");
  add("core.tier_calls", tier_calls, "count");
  add("core.tier_calls_per_action",
      Ratio(tier_calls, static_cast<double>(action.count)), "1/op");
  for (std::size_t v = 0; v + 1 < kVerbCount; ++v) {
    std::string verb = VerbName(static_cast<Verb>(v));
    const SpanStats& st = span("tier." + verb);
    add("core.tier_verb_calls." + verb, static_cast<double>(st.count),
        "count");
    add("core.tier_verb_us." + verb + ".mean", st.MeanUs(), "us");
    add("core.tier_verb_us." + verb + ".p50", st.P50Us(), "us");
  }
  add("core.router_self_us",
      shard_calls > 0 ? Ratio(tier_self_ns, tier_calls) / 1e3 : 0.0, "us");
  // A casql connection keeps one router session id across its
  // transactions, so sessions are counted where they end: each commit, DaR
  // or abort that touched a shard.
  const double router_sessions =
      static_cast<double>(c.router.fanout_commits + c.router.fanout_aborts);
  add("core.sessions", router_sessions, "count");
  add("core.cross_shard_sessions",
      static_cast<double>(c.router.cross_shard_sessions), "count");
  add("core.cross_shard_share",
      Ratio(static_cast<double>(c.router.cross_shard_sessions),
            router_sessions),
      "fraction");
  for (std::size_t v = 0; v + 1 < kVerbCount; ++v) {
    std::string verb = VerbName(static_cast<Verb>(v));
    add("core.server_verb_us." + verb,
        in.in_process_tier ? span("tier." + verb).MeanUs() : 0.0, "us");
  }

  // net: codec, round trips, the server's own time, kv batches.
  const SpanStats& rtt = span("net.round_trip");
  double server_count = 0;
  double server_ns = 0;
  for (std::size_t k = 0; k < iq::kCommandClassCount; ++k) {
    server_count += static_cast<double>(c.cmd_count[k]);
    server_ns += c.cmd_total_ns[k];
  }
  const double server_mean_us = Ratio(server_ns, server_count) / 1e3;
  add("net.codec_self_us", Ratio(shard_self_ns, shard_calls) / 1e3, "us");
  add("net.round_trips", static_cast<double>(rtt.count), "count");
  add("net.rtt_us", rtt.P50Us(), "us");
  add("net.rtt_mean_us", rtt.MeanUs(), "us");
  add("net.server_requests", server_count, "count");
  add("net.server_mean_us", server_mean_us, "us");
  for (std::size_t k = 0; k < iq::kCommandClassCount; ++k) {
    add(std::string("net.server_us.") + ClassName(k),
        Ratio(c.cmd_total_ns[k], static_cast<double>(c.cmd_count[k])) / 1e3,
        "us");
  }
  add("net.wire_wait_us",
      rtt.count > 0 ? rtt.MeanUs() - server_mean_us : 0.0, "us");
  const SpanStats& batch = span("kv.batch");
  add("net.batches", static_cast<double>(batch.count), "count");
  add("net.batch_us", batch.MeanUs(), "us");
  add("net.requests", static_cast<double>(c.wire.requests), "count");
  add("net.bytes_per_request",
      Ratio(static_cast<double>(c.wire.bytes_read + c.wire.bytes_written),
            static_cast<double>(c.wire.requests)),
      "B");

  // kvs: the CacheStore.
  add("kvs.gets", static_cast<double>(c.kvs.gets), "count");
  add("kvs.get_hits", static_cast<double>(c.kvs.get_hits), "count");
  add("kvs.hit_ratio",
      Ratio(static_cast<double>(c.kvs.get_hits),
            static_cast<double>(c.kvs.gets)),
      "fraction");
  add("kvs.opt_hit_share",
      Ratio(static_cast<double>(c.kvs.opt_hits),
            static_cast<double>(c.kvs.get_hits)),
      "fraction");
  add("kvs.opt_fallbacks", static_cast<double>(c.kvs.opt_fallbacks), "count");
  add("kvs.evictions", static_cast<double>(c.kvs.evictions), "count");
  add("kvs.evictions_per_op",
      Ratio(static_cast<double>(c.kvs.evictions), ops), "1/op");

  // leases: the lease table.
  add("leases.i_granted", static_cast<double>(c.leases.i_granted), "count");
  add("leases.i_granted_per_action",
      Ratio(static_cast<double>(c.leases.i_granted), ops), "1/op");
  add("leases.i_voided", static_cast<double>(c.leases.i_voided), "count");
  add("leases.i_voided_per_write",
      Ratio(static_cast<double>(c.leases.i_voided), writes), "1/write");
  add("leases.q_rejected", static_cast<double>(c.leases.q_rejected), "count");
  add("leases.q_rejected_per_write",
      Ratio(static_cast<double>(c.leases.q_rejected), writes), "1/write");
  add("leases.stale_sets_dropped",
      static_cast<double>(c.leases.stale_sets_dropped), "count");

  // casql and rdbms: session restarts and the SQL engine.
  const double sessions = static_cast<double>(in.restarts.write_sessions);
  add("casql.write_sessions", sessions, "count");
  add("casql.q_restarts_per_write",
      Ratio(static_cast<double>(in.restarts.total_q_restarts), sessions),
      "1/write");
  add("rdbms.restarts_per_write",
      Ratio(static_cast<double>(in.restarts.total_rdbms_restarts), sessions),
      "1/write");
  add("rdbms.txns", static_cast<double>(c.db.txns_started), "count");
  add("rdbms.txns_per_action",
      Ratio(static_cast<double>(c.db.txns_started), ops), "1/op");
  add("rdbms.reads", static_cast<double>(c.db.reads), "count");
  add("rdbms.reads_per_action", Ratio(static_cast<double>(c.db.reads), ops),
      "1/op");
  add("rdbms.conflicts", static_cast<double>(c.db.conflicts), "count");
  add("rdbms.conflicts_per_txn",
      Ratio(static_cast<double>(c.db.conflicts),
            static_cast<double>(c.db.txns_started)),
      "1/txn");
  return m;
}

}  // namespace perfbench
