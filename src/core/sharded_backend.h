// ShardedBackend: a KvsBackend that partitions the cache tier across N
// child backends — the paper's testbed shape, where the IQ-Twemcached tier
// is a set of independent cache servers and the client library routes each
// key to exactly one of them. Children are in-process IQServers, TCP
// net::RemoteBackends, or any mix; everything above KvsBackend (IQClient,
// the casql session layer, the BG benchmark) runs unchanged on the
// multi-server tier.
//
// Routing is a consistent-hash ring with virtual nodes: each shard
// contributes `weight * vnodes_per_weight` points hashed from its name, and
// a key belongs to the clockwise successor of its hash. Same shard list =>
// same ring, so independent router instances (one per client thread, one
// per process) agree on placement.
//
// Session identity is the real refactor. The upper stack holds ONE
// SessionId per session, but leases and quarantine registries live
// per-shard, in the child that owns each key. The router therefore treats
// its own GenID() values as virtual ids and lazily mints a child SessionId
// (via the child's GenID()) the first time a session takes a Q lease or
// buffers a delta on a shard. A read through a shard the session holds
// nothing on goes to the child as session 0, so a session that only read
// leaves nothing at the router and needs no closing Abort.
// Commit/Abort/DaR fan out to exactly the touched shards; a QaRead/IQDelta
// rejection releases every touched shard immediately (fan-out abort) so a
// Q lease stranded on shard A can never deadlock the session's retry after
// it backs off — the paper's "release all, abort, retry" rule, enforced
// at the router even if a caller forgets.
//
// Fault tolerance: a per-shard circuit breaker watches for transport
// errors from the child. After `down_after_errors` consecutive failures
// the shard is marked down and operations on its keys fail fast with
// kTransportError — reads then degrade to RDBMS pass-through and writes
// restart their session, both without waiting out a connect timeout per
// request. One request per probe_interval is let through as a health
// probe; its first success heals the shard. The healthy shards are never
// affected: keys stay put on the ring (no rerouting — moving a key to
// another shard would abandon the leases protecting it on its home shard).
//
// Thread safety: safe for concurrent sessions (the session map is striped
// by virtual id); one session stays single-threaded, as everywhere else in
// this codebase. Child backends must themselves be thread-safe if shared.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/iq_server.h"

namespace iq {

/// Router-level counters (the per-shard work is counted by the children).
struct ShardedBackendStats {
  std::uint64_t sessions = 0;            // virtual ids handed out by GenID()
  std::uint64_t shard_sessions = 0;      // child ids minted on first lease
  std::uint64_t fanout_commits = 0;      // logical commits (incl. DaR)
  std::uint64_t fanout_aborts = 0;       // logical aborts
  std::uint64_t cross_shard_sessions = 0;  // sessions that touched >1 shard
  std::uint64_t reject_releases = 0;     // fan-out releases after a Q reject
  std::uint64_t transport_errors = 0;    // child calls that failed transport
  std::uint64_t shard_trips = 0;         // shards marked down
  std::uint64_t shard_recoveries = 0;    // shards healed by a probe
};

class ShardedBackend final : public KvsBackend {
 public:
  struct Shard {
    /// Ring identity and stats label. Distinct per shard; changing a name
    /// reshuffles that shard's ring points.
    std::string name;
    KvsBackend* backend = nullptr;  // not owned
    /// Relative capacity: multiplies the shard's virtual-node count.
    std::uint32_t weight = 1;
    /// Optional counter snapshot used by Stats()/FormatStats(). Bind
    /// IQServer::Stats for an in-process child; for a TCP child use
    /// net::ParseIQStats over the child's `stats` response.
    std::function<IQServerStats()> stats;
    /// Optional reconnect counter for FormatStats(); bind
    /// net::ReconnectingChannel::reconnects for a TCP child.
    std::function<std::uint64_t()> reconnects;
    /// Optional lease-trace drain used by TraceSnapshot(): the newest (up
    /// to) max_events events, oldest first. Bind IQServer::TraceSnapshot
    /// for an in-process child; for a TCP child bind the `trace` verb via
    /// net::RemoteBackend::TraceWithInfo.
    std::function<std::vector<TraceEvent>(std::size_t)> trace;
    /// Optional drain-completeness accounting for TraceInfoTotal(); bind
    /// IQServer::TraceInfoTotal or the TRACE_INFO wire header.
    std::function<TraceInfo()> trace_info;
  };

  struct Config {
    /// Ring points per unit of shard weight. More points = smoother key
    /// distribution at O(points) ring-build cost; lookups stay O(log n).
    std::size_t vnodes_per_weight = 64;
    std::size_t session_stripes = 16;
    /// Consecutive transport errors before a shard is marked down. Down
    /// shards fail fast (no round trip): reads degrade to RDBMS
    /// pass-through, writes restart their session. 0 disables tripping.
    std::uint32_t down_after_errors = 3;
    /// While a shard is down, at most one request per interval goes through
    /// as a health probe; its success heals the shard for everyone.
    Nanos probe_interval = 500 * kNanosPerMilli;
    const Clock* clock = nullptr;  // null = process steady clock
  };

  ShardedBackend(std::vector<Shard> shards, Config config);
  explicit ShardedBackend(std::vector<Shard> shards)
      : ShardedBackend(std::move(shards), Config{}) {}

  const Clock& clock() const override { return clock_; }

  // ---- the IQ command set, routed ----------------------------------------
  SessionId GenID() override;
  GetReply IQget(std::string_view key, SessionId session = 0) override;
  StoreResult IQset(std::string_view key, std::string_view value,
                    LeaseToken token) override;
  QaReadReply QaRead(std::string_view key, SessionId session) override;
  StoreResult SaR(std::string_view key, std::optional<std::string_view> v_new,
                  LeaseToken token) override;
  QuarantineResult QaReg(SessionId tid, std::string_view key) override;
  void DaR(SessionId tid) override;
  QuarantineResult IQDelta(SessionId tid, std::string_view key,
                           DeltaOp delta) override;
  void Commit(SessionId tid) override;
  void Abort(SessionId tid) override;
  void ReleaseKey(SessionId tid, std::string_view key) override;

  // ---- plain memcached operations, routed --------------------------------
  std::optional<CacheItem> Get(std::string_view key) override;
  StoreResult Set(std::string_view key, std::string_view value) override;
  StoreResult Add(std::string_view key, std::string_view value) override;
  StoreResult Cas(std::string_view key, std::string_view value,
                  std::uint64_t cas) override;
  StoreResult Append(std::string_view key, std::string_view blob) override;
  StoreResult Prepend(std::string_view key, std::string_view blob) override;
  std::optional<std::uint64_t> Incr(std::string_view key,
                                    std::uint64_t amount) override;
  std::optional<std::uint64_t> Decr(std::string_view key,
                                    std::uint64_t amount) override;
  bool DeleteVoid(std::string_view key) override;

  // ---- introspection -----------------------------------------------------

  std::size_t shard_count() const { return shards_.size(); }
  const Shard& shard(std::size_t i) const { return shards_[i]; }
  /// True while shard `i` is tripped (failing fast between probes).
  bool ShardDown(std::size_t i) const {
    return health_[i].down.load(std::memory_order_acquire);
  }
  /// Ring position of `key` (stable across router instances with the same
  /// shard list).
  std::size_t ShardFor(std::string_view key) const;

  /// Sum of the child counter snapshots (shards without a stats provider
  /// contribute zeros). A session that touched k shards commits/aborts on
  /// each of them, so the aggregated commits/aborts count per-shard
  /// fan-outs; router_stats() has the logical session counts.
  IQServerStats Stats() const;
  ShardedBackendStats router_stats() const;

  /// memcached-style "STAT name value\r\n" lines: the router counters, the
  /// aggregated IQ counters, then a per-shard breakdown
  /// (shard<i>_endpoint/weight plus every IQ counter as shard<i>_<name>).
  std::string FormatStats() const;

  /// Advance the router's metrics window over the aggregated Stats() and
  /// return lifetime totals plus the delta since the previous call. One
  /// logical scraper per router, same contract as IQServer::WindowedStats.
  StatsWindowSample WindowedStats();

  /// The newest (up to) `max_events` lease-trace events across every child
  /// with a trace provider, stable-merged oldest first on (at, child,
  /// shard, seq). Equal timestamps (ManualClock tests, coarse clocks) keep
  /// a deterministic — and per-key causal — order, because any one key's
  /// events all come from one (child, shard) ring where seq is program
  /// order. Children without a provider contribute nothing.
  std::vector<TraceEvent> TraceSnapshot(std::size_t max_events) const;
  /// Summed drain-completeness accounting across every child with a
  /// trace_info provider.
  TraceInfo TraceInfoTotal() const;

 private:
  /// One live session: the lazily minted child id per shard (0 = shard not
  /// touched yet).
  struct SessionState {
    std::vector<SessionId> shard_sids;
  };
  struct alignas(64) Stripe {
    mutable std::mutex mu;
    std::unordered_map<SessionId, SessionState> sessions;
  };
  struct RingPoint {
    std::uint64_t point;
    std::uint32_t shard;
  };
  /// Per-shard circuit breaker. Trips after `down_after_errors` consecutive
  /// transport failures; while tripped, `next_probe` rations real requests
  /// to one per probe_interval (CAS-claimed) and everyone else fails fast
  /// with zero syscalls.
  struct alignas(64) ShardHealth {
    std::atomic<std::uint32_t> consecutive_errors{0};
    std::atomic<bool> down{false};
    std::atomic<Nanos> next_probe{0};
    std::atomic<std::uint64_t> transport_errors{0};
  };

  Stripe& StripeFor(SessionId s) const {
    return stripes_[s % stripes_.size()];
  }

  /// Child id for (tid, shard), minted via the child's GenID() on the
  /// session's first lease-taking verb there. The mint happens outside the stripe lock (it may be a network
  /// round trip); first writer wins on the defensive re-check.
  SessionId ShardSession(SessionId tid, std::size_t shard);
  /// Child id if the session already touched the shard, else 0. Never
  /// mints.
  SessionId LookupShardSession(SessionId tid, std::size_t shard) const;
  /// Remove and return the session's minted child ids (empty if none).
  std::vector<SessionId> TakeSession(SessionId tid);
  /// Fan-out Abort over every touched shard and drop the session — the
  /// mandatory release after a child rejected QaRead/IQDelta.
  void ReleaseAllTouched(SessionId tid);

  /// False while the shard is down and the probe slot for this interval is
  /// already claimed: the caller must fail fast without touching the child.
  /// True means "go ahead" — either the shard is healthy or this caller won
  /// the probe slot.
  bool AllowRequest(std::size_t shard);
  /// Feed the circuit breaker after a child call. Success resets the error
  /// streak and heals a down shard; a transport error extends it and trips
  /// the shard at the configured threshold.
  void RecordResult(std::size_t shard, bool transport_error);

  std::vector<Shard> shards_;
  Config config_;
  const Clock& clock_;
  std::vector<RingPoint> ring_;  // sorted by point
  mutable std::vector<Stripe> stripes_;
  std::unique_ptr<ShardHealth[]> health_;  // one per shard
  std::atomic<SessionId> next_sid_{1};
  StatsWindow metrics_window_;

  // Router counters, same relaxed-atomic discipline as IQShardStats.
  std::atomic<std::uint64_t> sessions_{0};
  std::atomic<std::uint64_t> shard_sessions_{0};
  std::atomic<std::uint64_t> fanout_commits_{0};
  std::atomic<std::uint64_t> fanout_aborts_{0};
  std::atomic<std::uint64_t> cross_shard_sessions_{0};
  std::atomic<std::uint64_t> reject_releases_{0};
  std::atomic<std::uint64_t> transport_errors_{0};
  std::atomic<std::uint64_t> shard_trips_{0};
  std::atomic<std::uint64_t> shard_recoveries_{0};
};

}  // namespace iq
