#include "core/sharded_backend.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace iq {
namespace {

std::uint64_t Fnv1a(std::string_view s) {
  std::uint64_t h = 14695981039346656037ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  // FNV's multiply only diffuses low bits upward, and ring placement is
  // decided by the most significant bits — short, similar labels ("s0#17")
  // would otherwise cluster and starve whole shards of keyspace. A
  // splitmix64-style finalizer spreads every input bit across the word.
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ull;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebull;
  h ^= h >> 31;
  return h;
}

// Counter names and members come from the canonical kIQStatsFields table
// (core/iq_stats.h), shared with net::FormatStats/ParseIQStats so the
// per-shard lines stay grep-compatible with a child's own `stats` output.
void Accumulate(IQServerStats& total, const IQServerStats& s) {
  for (const IQStatsField& f : kIQStatsFields) total.*f.member += s.*f.member;
}

}  // namespace

ShardedBackend::ShardedBackend(std::vector<Shard> shards, Config config)
    : shards_(std::move(shards)),
      config_(config),
      clock_(config.clock != nullptr ? *config.clock
                                     : SteadyClock::Instance()),
      stripes_(config.session_stripes > 0 ? config.session_stripes : 1),
      health_(std::make_unique<ShardHealth[]>(
          shards_.empty() ? 1 : shards_.size())) {
  if (shards_.empty()) {
    throw std::invalid_argument("ShardedBackend: no shards");
  }
  std::size_t vnodes =
      config_.vnodes_per_weight > 0 ? config_.vnodes_per_weight : 1;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    std::uint32_t weight = shards_[i].weight > 0 ? shards_[i].weight : 1;
    std::size_t points = static_cast<std::size_t>(weight) * vnodes;
    for (std::size_t v = 0; v < points; ++v) {
      std::string label = shards_[i].name;
      label.push_back('#');
      label += std::to_string(v);
      ring_.push_back({Fnv1a(label), static_cast<std::uint32_t>(i)});
    }
  }
  std::sort(ring_.begin(), ring_.end(), [](const RingPoint& a,
                                           const RingPoint& b) {
    return a.point != b.point ? a.point < b.point : a.shard < b.shard;
  });
}

std::size_t ShardedBackend::ShardFor(std::string_view key) const {
  if (shards_.size() == 1) return 0;
  std::uint64_t h = Fnv1a(key);
  // Clockwise successor on the ring; past the last point wraps to the
  // first.
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), h,
      [](const RingPoint& p, std::uint64_t v) { return p.point < v; });
  if (it == ring_.end()) it = ring_.begin();
  return it->shard;
}

// ---- shard health ----------------------------------------------------------

bool ShardedBackend::AllowRequest(std::size_t shard) {
  ShardHealth& h = health_[shard];
  if (!h.down.load(std::memory_order_acquire)) return true;
  // Down: ration real requests to one probe per interval. The CAS claims
  // the slot; losers fail fast with zero syscalls.
  Nanos due = h.next_probe.load(std::memory_order_acquire);
  Nanos now = clock_.Now();
  return now >= due &&
         h.next_probe.compare_exchange_strong(due, now + config_.probe_interval,
                                              std::memory_order_acq_rel);
}

void ShardedBackend::RecordResult(std::size_t shard, bool transport_error) {
  ShardHealth& h = health_[shard];
  if (!transport_error) {
    // Loads before stores: keep the healthy fast path read-only on the
    // shared health line so concurrent sessions don't ping-pong it.
    if (h.consecutive_errors.load(std::memory_order_relaxed) != 0) {
      h.consecutive_errors.store(0, std::memory_order_relaxed);
    }
    if (h.down.load(std::memory_order_acquire) &&
        h.down.exchange(false, std::memory_order_acq_rel)) {
      shard_recoveries_.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  h.transport_errors.fetch_add(1, std::memory_order_relaxed);
  transport_errors_.fetch_add(1, std::memory_order_relaxed);
  std::uint32_t streak =
      h.consecutive_errors.fetch_add(1, std::memory_order_relaxed) + 1;
  if (config_.down_after_errors == 0) return;  // breaker disabled
  if (streak >= config_.down_after_errors) {
    if (!h.down.exchange(true, std::memory_order_acq_rel)) {
      shard_trips_.fetch_add(1, std::memory_order_relaxed);
    }
    // Tripping and a failed probe both push the next probe out one full
    // interval from now.
    h.next_probe.store(clock_.Now() + config_.probe_interval,
                       std::memory_order_release);
  }
}

// ---- session plumbing ------------------------------------------------------

SessionId ShardedBackend::GenID() {
  sessions_.fetch_add(1, std::memory_order_relaxed);
  return next_sid_.fetch_add(1, std::memory_order_relaxed);
}

SessionId ShardedBackend::ShardSession(SessionId tid, std::size_t shard) {
  Stripe& st = StripeFor(tid);
  {
    std::lock_guard lock(st.mu);
    auto it = st.sessions.find(tid);
    if (it != st.sessions.end() && !it->second.shard_sids.empty() &&
        it->second.shard_sids[shard] != 0) {
      return it->second.shard_sids[shard];
    }
  }
  // Mint outside the stripe lock: on a remote shard this is a round trip,
  // and other sessions in the stripe must not wait behind it.
  SessionId child = shards_[shard].backend->GenID();
  if (child == 0) return 0;  // mint failed (dead remote): caller maps to
                             // kTransportError; nothing to record in the map
  std::lock_guard lock(st.mu);
  SessionState& state = st.sessions.try_emplace(tid).first->second;
  if (state.shard_sids.empty()) state.shard_sids.resize(shards_.size(), 0);
  SessionId& slot = state.shard_sids[shard];
  if (slot == 0) {
    // A session is single-threaded by contract; this re-check only guards
    // against a misbehaving caller, in which case the first mint wins and
    // the loser's child id is simply never used (children are free).
    slot = child;
    shard_sessions_.fetch_add(1, std::memory_order_relaxed);
  }
  return slot;
}

SessionId ShardedBackend::LookupShardSession(SessionId tid,
                                             std::size_t shard) const {
  Stripe& st = StripeFor(tid);
  std::lock_guard lock(st.mu);
  auto it = st.sessions.find(tid);
  if (it == st.sessions.end() || it->second.shard_sids.empty()) return 0;
  return it->second.shard_sids[shard];
}

std::vector<SessionId> ShardedBackend::TakeSession(SessionId tid) {
  Stripe& st = StripeFor(tid);
  std::lock_guard lock(st.mu);
  auto it = st.sessions.find(tid);
  if (it == st.sessions.end()) return {};
  std::vector<SessionId> sids = std::move(it->second.shard_sids);
  st.sessions.erase(it);
  return sids;
}

void ShardedBackend::ReleaseAllTouched(SessionId tid) {
  std::vector<SessionId> sids = TakeSession(tid);
  for (std::size_t i = 0; i < sids.size(); ++i) {
    // Down shards are skipped, not probed: an Abort cannot report success,
    // and the child's lease expiry reclaims whatever the session held.
    if (sids[i] != 0 && !ShardDown(i)) shards_[i].backend->Abort(sids[i]);
  }
}

// ---- the IQ command set ----------------------------------------------------

GetReply ShardedBackend::IQget(std::string_view key, SessionId session) {
  std::size_t s = ShardFor(key);
  GetReply err;
  err.status = GetReply::Status::kTransportError;
  if (!AllowRequest(s)) return err;  // down: degrade to RDBMS pass-through
  // A read never mints. A session bound on this shard reads under its
  // child id, so it sees its own quarantines and buffered deltas; one that
  // holds nothing here has nothing of its own to see and reads as session
  // 0, which leaves the router nothing to release for it.
  SessionId sid = session == 0 ? 0 : LookupShardSession(session, s);
  GetReply reply = shards_[s].backend->IQget(key, sid);
  RecordResult(s, reply.status == GetReply::Status::kTransportError);
  return reply;
}

StoreResult ShardedBackend::IQset(std::string_view key, std::string_view value,
                                  LeaseToken token) {
  // Tokens are child-issued; the key's shard is the child that issued it.
  std::size_t s = ShardFor(key);
  if (!AllowRequest(s)) return StoreResult::kTransportError;
  StoreResult r = shards_[s].backend->IQset(key, value, token);
  RecordResult(s, r == StoreResult::kTransportError);
  return r;
}

QaReadReply ShardedBackend::QaRead(std::string_view key, SessionId session) {
  std::size_t s = ShardFor(key);
  QaReadReply err;
  err.status = QaReadReply::Status::kTransportError;
  if (!AllowRequest(s)) return err;  // down: fail the write session fast
  SessionId sid = ShardSession(session, s);
  if (sid == 0) {
    RecordResult(s, true);
    return err;
  }
  QaReadReply reply = shards_[s].backend->QaRead(key, sid);
  RecordResult(s, reply.status == QaReadReply::Status::kTransportError);
  if (reply.status == QaReadReply::Status::kReject) {
    // "Release all, abort, retry" (Figure 5b) — enforced here so a Q lease
    // held on another shard cannot outlive the reject and deadlock the
    // retried session. The caller's own Abort() then finds nothing left,
    // which is harmless.
    ReleaseAllTouched(session);
    reject_releases_.fetch_add(1, std::memory_order_relaxed);
  }
  return reply;
}

StoreResult ShardedBackend::SaR(std::string_view key,
                                std::optional<std::string_view> v_new,
                                LeaseToken token) {
  std::size_t s = ShardFor(key);
  if (!AllowRequest(s)) return StoreResult::kTransportError;
  StoreResult r = shards_[s].backend->SaR(key, v_new, token);
  RecordResult(s, r == StoreResult::kTransportError);
  return r;
}

QuarantineResult ShardedBackend::QaReg(SessionId tid, std::string_view key) {
  std::size_t s = ShardFor(key);
  if (!AllowRequest(s)) return QuarantineResult::kTransportError;
  SessionId sid = ShardSession(tid, s);
  if (sid == 0) {
    RecordResult(s, true);
    return QuarantineResult::kTransportError;
  }
  QuarantineResult r = shards_[s].backend->QaReg(sid, key);
  RecordResult(s, r == QuarantineResult::kTransportError);
  return r;
}

void ShardedBackend::DaR(SessionId tid) {
  std::vector<SessionId> sids = TakeSession(tid);
  std::size_t touched = 0;
  for (std::size_t i = 0; i < sids.size(); ++i) {
    if (sids[i] == 0) continue;
    ++touched;
    if (ShardDown(i)) continue;  // lease expiry deletes the keys instead
    shards_[i].backend->DaR(sids[i]);
  }
  if (touched > 0) fanout_commits_.fetch_add(1, std::memory_order_relaxed);
  if (touched > 1) {
    cross_shard_sessions_.fetch_add(1, std::memory_order_relaxed);
  }
}

QuarantineResult ShardedBackend::IQDelta(SessionId tid, std::string_view key,
                                         DeltaOp delta) {
  std::size_t s = ShardFor(key);
  if (!AllowRequest(s)) return QuarantineResult::kTransportError;
  SessionId sid = ShardSession(tid, s);
  if (sid == 0) {
    RecordResult(s, true);
    return QuarantineResult::kTransportError;
  }
  QuarantineResult r = shards_[s].backend->IQDelta(sid, key, std::move(delta));
  RecordResult(s, r == QuarantineResult::kTransportError);
  if (r == QuarantineResult::kReject) {
    ReleaseAllTouched(tid);  // same rule as a QaRead reject
    reject_releases_.fetch_add(1, std::memory_order_relaxed);
  }
  return r;
}

void ShardedBackend::Commit(SessionId tid) {
  std::vector<SessionId> sids = TakeSession(tid);
  std::size_t touched = 0;
  for (std::size_t i = 0; i < sids.size(); ++i) {
    if (sids[i] == 0) continue;
    ++touched;
    // Safe to skip a down shard: its unreleased leases expire, and expiry
    // DELETES the key (Section 6.1) — readers recompute from the RDBMS, so
    // no stale value survives the missed commit.
    if (ShardDown(i)) continue;
    shards_[i].backend->Commit(sids[i]);
  }
  if (touched > 0) fanout_commits_.fetch_add(1, std::memory_order_relaxed);
  if (touched > 1) {
    cross_shard_sessions_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ShardedBackend::Abort(SessionId tid) {
  std::vector<SessionId> sids = TakeSession(tid);
  std::size_t touched = 0;
  for (std::size_t i = 0; i < sids.size(); ++i) {
    if (sids[i] == 0) continue;
    ++touched;
    if (ShardDown(i)) continue;  // same expiry backstop as Commit
    shards_[i].backend->Abort(sids[i]);
  }
  if (touched > 0) fanout_aborts_.fetch_add(1, std::memory_order_relaxed);
  if (touched > 1) {
    cross_shard_sessions_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ShardedBackend::ReleaseKey(SessionId tid, std::string_view key) {
  std::size_t s = ShardFor(key);
  SessionId sid = LookupShardSession(tid, s);
  if (sid == 0) return;  // never touched that shard: nothing held there
  if (ShardDown(s)) return;  // expiry reclaims the lease
  shards_[s].backend->ReleaseKey(sid, key);
}

// ---- plain memcached operations --------------------------------------------

// The optional/bool-returning operations have no distinct error channel (a
// dead remote already surfaces as nullopt/false), so they cannot feed the
// breaker; they only honor it with a ShardDown fast path — no probe slot
// consumed, since their outcome could not heal the shard anyway.

std::optional<CacheItem> ShardedBackend::Get(std::string_view key) {
  std::size_t s = ShardFor(key);
  if (ShardDown(s)) return std::nullopt;  // degraded read: miss, no install
  return shards_[s].backend->Get(key);
}

StoreResult ShardedBackend::Set(std::string_view key, std::string_view value) {
  std::size_t s = ShardFor(key);
  if (!AllowRequest(s)) return StoreResult::kTransportError;
  StoreResult r = shards_[s].backend->Set(key, value);
  RecordResult(s, r == StoreResult::kTransportError);
  return r;
}

StoreResult ShardedBackend::Add(std::string_view key, std::string_view value) {
  std::size_t s = ShardFor(key);
  if (!AllowRequest(s)) return StoreResult::kTransportError;
  StoreResult r = shards_[s].backend->Add(key, value);
  RecordResult(s, r == StoreResult::kTransportError);
  return r;
}

StoreResult ShardedBackend::Cas(std::string_view key, std::string_view value,
                                std::uint64_t cas) {
  std::size_t s = ShardFor(key);
  if (!AllowRequest(s)) return StoreResult::kTransportError;
  StoreResult r = shards_[s].backend->Cas(key, value, cas);
  RecordResult(s, r == StoreResult::kTransportError);
  return r;
}

StoreResult ShardedBackend::Append(std::string_view key,
                                   std::string_view blob) {
  std::size_t s = ShardFor(key);
  if (!AllowRequest(s)) return StoreResult::kTransportError;
  StoreResult r = shards_[s].backend->Append(key, blob);
  RecordResult(s, r == StoreResult::kTransportError);
  return r;
}

StoreResult ShardedBackend::Prepend(std::string_view key,
                                    std::string_view blob) {
  std::size_t s = ShardFor(key);
  if (!AllowRequest(s)) return StoreResult::kTransportError;
  StoreResult r = shards_[s].backend->Prepend(key, blob);
  RecordResult(s, r == StoreResult::kTransportError);
  return r;
}

std::optional<std::uint64_t> ShardedBackend::Incr(std::string_view key,
                                                  std::uint64_t amount) {
  std::size_t s = ShardFor(key);
  if (ShardDown(s)) return std::nullopt;
  return shards_[s].backend->Incr(key, amount);
}

std::optional<std::uint64_t> ShardedBackend::Decr(std::string_view key,
                                                  std::uint64_t amount) {
  std::size_t s = ShardFor(key);
  if (ShardDown(s)) return std::nullopt;
  return shards_[s].backend->Decr(key, amount);
}

bool ShardedBackend::DeleteVoid(std::string_view key) {
  std::size_t s = ShardFor(key);
  if (ShardDown(s)) return false;
  return shards_[s].backend->DeleteVoid(key);
}

// ---- introspection ---------------------------------------------------------

IQServerStats ShardedBackend::Stats() const {
  IQServerStats total;
  for (const Shard& s : shards_) {
    if (s.stats) Accumulate(total, s.stats());
  }
  return total;
}

std::vector<TraceEvent> ShardedBackend::TraceSnapshot(
    std::size_t max_events) const {
  std::vector<TraceEvent> merged;
  if (max_events == 0) return merged;
  for (const Shard& s : shards_) {
    if (!s.trace) continue;
    std::vector<TraceEvent> part = s.trace(max_events);
    merged.insert(merged.end(), part.begin(), part.end());
  }
  // Each child drain is already (at, shard, seq)-ordered; a stable sort on
  // the timestamp alone therefore yields (at, child, shard, seq) — equal
  // timestamps (ManualClock tests, coarse clocks) stay deterministic and
  // per-key causal, since one key's events all live in one child's ring.
  std::stable_sort(merged.begin(), merged.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.at < b.at;
                   });
  if (merged.size() > max_events) {
    merged.erase(merged.begin(),
                 merged.end() - static_cast<std::ptrdiff_t>(max_events));
  }
  return merged;
}

TraceInfo ShardedBackend::TraceInfoTotal() const {
  TraceInfo total;
  for (const Shard& s : shards_) {
    if (!s.trace_info) continue;
    const TraceInfo info = s.trace_info();
    total.recorded += info.recorded;
    total.dropped += info.dropped;
    total.capacity += info.capacity;
  }
  return total;
}

ShardedBackendStats ShardedBackend::router_stats() const {
  ShardedBackendStats s;
  s.sessions = sessions_.load(std::memory_order_relaxed);
  s.shard_sessions = shard_sessions_.load(std::memory_order_relaxed);
  s.fanout_commits = fanout_commits_.load(std::memory_order_relaxed);
  s.fanout_aborts = fanout_aborts_.load(std::memory_order_relaxed);
  s.cross_shard_sessions =
      cross_shard_sessions_.load(std::memory_order_relaxed);
  s.reject_releases = reject_releases_.load(std::memory_order_relaxed);
  s.transport_errors = transport_errors_.load(std::memory_order_relaxed);
  s.shard_trips = shard_trips_.load(std::memory_order_relaxed);
  s.shard_recoveries = shard_recoveries_.load(std::memory_order_relaxed);
  return s;
}

std::string ShardedBackend::FormatStats() const {
  std::ostringstream out;
  auto stat = [&](const std::string& name, std::uint64_t v) {
    out << "STAT " << name << " " << v << "\r\n";
  };
  ShardedBackendStats router = router_stats();
  stat("shard_count", shards_.size());
  stat("ring_points", ring_.size());
  stat("router_sessions", router.sessions);
  stat("router_shard_sessions", router.shard_sessions);
  stat("router_fanout_commits", router.fanout_commits);
  stat("router_fanout_aborts", router.fanout_aborts);
  stat("router_cross_shard_sessions", router.cross_shard_sessions);
  stat("router_reject_releases", router.reject_releases);
  stat("transport_errors", router.transport_errors);
  stat("shard_trips", router.shard_trips);
  stat("shard_recoveries", router.shard_recoveries);
  std::uint64_t reconnects = 0;
  for (const Shard& s : shards_) {
    if (s.reconnects) reconnects += s.reconnects();
  }
  stat("reconnects", reconnects);
  IQServerStats total = Stats();
  for (const IQStatsField& f : kIQStatsFields) stat(f.name, total.*f.member);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    std::string prefix = "shard" + std::to_string(i) + "_";
    out << "STAT " << prefix << "endpoint " << shards_[i].name << "\r\n";
    stat(prefix + "weight", shards_[i].weight);
    stat(prefix + "down", ShardDown(i) ? 1 : 0);
    stat(prefix + "transport_errors",
         health_[i].transport_errors.load(std::memory_order_relaxed));
    if (shards_[i].reconnects) {
      stat(prefix + "reconnects", shards_[i].reconnects());
    }
    if (!shards_[i].stats) continue;
    IQServerStats s = shards_[i].stats();
    for (const IQStatsField& f : kIQStatsFields) {
      stat(prefix + f.name, s.*f.member);
    }
  }
  return out.str();
}

StatsWindowSample ShardedBackend::WindowedStats() {
  return metrics_window_.Advance(Stats(), clock_.Now());
}

}  // namespace iq
