// IQ-Client: the application-facing side of the IQ framework (the paper's
// modified Whalin client). Lease tokens and back-off are managed here and
// are invisible to application code; a session object exposes the paper's
// programming model:
//
//   read session:   Get() -> hit, or miss + permission to recompute;
//                   Put() installs the recomputed value (token attached).
//   write session:  QaRead()/Delta()/Quarantine() before the RDBMS commit,
//                   then SaR()/Commit() after it; Abort() on failure.
//
// A QaRead/Delta rejection (Q-Q conflict, Figure 5b) surfaces as
// kQConflict: the caller must release everything (Abort()), roll back its
// RDBMS transaction, back off (Backoff()), and re-run the whole session.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "core/kvs_backend.h"
#include "core/near_cache.h"
#include "util/backoff.h"
#include "util/rng.h"

namespace iq {

/// Client-side view of a read.
struct ClientGetResult {
  enum class Status {
    kHit,        // value returned
    kMissRecompute,  // query the RDBMS and call Put() with the result
    kMissNoInstall,  // query the RDBMS; do NOT Put() (own quarantined key)
    kTimeout,    // retry budget exhausted while backing off
  };
  Status status;
  std::string value;
  /// kHit only: served from the client's near cache, zero round trips.
  bool near_hit = false;
  /// near_hit only: how much of the granted validity interval remained at
  /// serve time (> 0 — expired entries are never served). Lets the casql
  /// auditor assert an observed-stale near hit is within its interval.
  Nanos near_remaining = 0;
};

/// Client-side view of a quarantine request.
enum class ClientQResult {
  kGranted,
  kQConflict,  // release all leases, roll back, back off, restart session
  kTransportError,  // cache unreachable; the lease/quarantine is NOT in
                    // place. The caller must treat this like a conflict
                    // (roll back, back off, restart) — never commit the
                    // RDBMS txn as if the quarantine succeeded.
};

/// Per-session client-side counters (drives Table 6).
struct SessionStats {
  std::uint64_t get_backoffs = 0;
  std::uint64_t q_conflicts = 0;
  std::uint64_t transport_errors = 0;
};

class IQClient;

/// One session: at most one RDBMS transaction plus KVS operations, with all
/// leases released by Commit()/Abort(). Not thread-safe (a session belongs
/// to one application thread, like one memcached connection).
class IQSession {
 public:
  ~IQSession();
  IQSession(IQSession&&) = delete;

  SessionId id() const { return id_; }
  const SessionStats& stats() const { return stats_; }

  // ---- read path ----------------------------------------------------------

  /// IQget with transparent back-off (up to `max_retries` attempts). A
  /// transport error surfaces as kMissNoInstall: read the RDBMS directly,
  /// install nothing — safe (no token exists to install with) and it
  /// degrades reads to pass-through instead of spinning the retry budget
  /// against an unreachable server.
  ClientGetResult Get(std::string_view key, int max_retries = 100);

  /// Install a value computed after a kMissRecompute. Silently ignored by
  /// the server when the I lease was voided meanwhile.
  void Put(std::string_view key, std::string_view value);

  // ---- write path: invalidate ----------------------------------------------

  /// Quarantine `key` for deletion at Commit (QaReg). Granted whenever the
  /// server is reachable; kTransportError means the quarantine is NOT in
  /// place and the session must abort/back off/retry, not commit.
  ClientQResult Quarantine(std::string_view key);

  // ---- write path: refresh ---------------------------------------------------

  /// Quarantine-and-Read. On kGranted, `value` holds the current value
  /// (nullopt on KVS miss) and the Q lease is held until SaR/Commit/Abort.
  ClientQResult QaRead(std::string_view key, std::optional<std::string>& value);

  /// Swap-and-Release for a key previously QaRead by this session. Returns
  /// the server's answer: kStored while the Q lease still held; kNotFound
  /// when a QaReg voided it or it expired (or the session never held it).
  StoreResult SaR(std::string_view key, std::optional<std::string_view> v_new);

  // ---- write path: incremental update ---------------------------------------

  /// Buffer an incremental update (applied server-side at Commit()).
  ClientQResult Delta(std::string_view key, DeltaOp delta);
  ClientQResult Append(std::string_view key, std::string_view blob);
  ClientQResult Incr(std::string_view key, std::uint64_t amount);
  ClientQResult Decr(std::string_view key, std::uint64_t amount);

  // ---- lifecycle ------------------------------------------------------------

  /// Apply buffered changes (delete invalidated keys, apply deltas) and
  /// release every lease. Call after the RDBMS transaction commits.
  void Commit();

  /// Discard buffered changes and release every lease, leaving current
  /// values in place. Call when the RDBMS transaction aborts.
  void Abort();

  /// Sleep per the client's back-off policy; increments the attempt counter
  /// so repeated calls wait longer. Reset by Commit, not by Abort: a write
  /// that aborts and restarts k times waits per attempt k. Returns the delay
  /// drawn (the requested sleep, not the measured one).
  Nanos Backoff();

  /// Reset the back-off escalation to base delay. Commit does this
  /// implicitly; a caller that reuses one session for many logical writes
  /// resets at the start of each, or a write that ended in Abort (or in
  /// no lifecycle call at all) leaves the next one waiting the cap delay.
  void ResetBackoff() { backoff_attempt_ = 0; }

  /// Current back-off escalation level (0 = next Backoff waits base delay).
  int backoff_attempt() const { return backoff_attempt_; }

  /// Relinquish a lease held on one key without applying anything (e.g. an
  /// I lease whose recompute found no row to cache).
  void DropLease(std::string_view key);

 private:
  friend class IQClient;
  IQSession(IQClient& client, SessionId id);

  /// Sessions minted while the server was unreachable carry id 0; re-mint
  /// lazily so such a session heals once the backend reconnects. False
  /// while the backend stays unreachable.
  bool EnsureId();

  /// Eagerly drop `key` from the client's near cache (write-your-own-reads
  /// within this client) and remember it so Commit/Abort re-invalidate —
  /// a racing Get of another session could re-populate the entry between
  /// the verb and the commit.
  void NearInvalidate(std::string_view key);

  IQClient& client_;
  SessionId id_;
  /// I-lease tokens held for keys read via Get().
  std::unordered_map<std::string, LeaseToken> i_tokens_;
  /// Q(refresh) tokens held via QaRead.
  std::unordered_map<std::string, LeaseToken> q_tokens_;
  /// Keys this session wrote (near-cache re-invalidation at Commit/Abort).
  std::unordered_set<std::string> near_written_;
  /// Set by every verb that may have left state on the server: an I-lease
  /// grant, QaRead, Quarantine, Delta, or an IQget reply lost to a
  /// transport error (Put and SaR only ever follow a grant that set it).
  /// Cleared by Commit and Abort. The destructor aborts only while it is
  /// set, so a session that only hit costs no closing round trip.
  bool server_state_ = false;
  int backoff_attempt_ = 0;
  SessionStats stats_;
  Rng rng_;
};

/// Factory bound to one IQ-Server; hands out sessions.
class IQClient {
 public:
  struct Config {
    /// Back-off before retrying a contended read or a restarted session.
    Nanos backoff_base = 50 * kNanosPerMicro;
    Nanos backoff_cap = 10 * kNanosPerMilli;
    /// false selects FixedBackoff(backoff_base) (the A3 ablation).
    bool exponential_backoff = true;
    /// Near-cache entry capacity (DESIGN.md §4.10). 0 = no near cache (the
    /// default). Entries are only ever stored when the server grants a
    /// validity interval with a hit, so enabling this against a server with
    /// near_validity == 0 is a harmless no-op.
    std::size_t near_capacity = 0;
    std::uint64_t seed = 42;
  };

  IQClient(KvsBackend& backend, Config config);
  explicit IQClient(KvsBackend& backend);

  KvsBackend& backend() { return backend_; }

  /// The client-process near cache shared by every session of this client;
  /// nullptr when Config::near_capacity == 0.
  NearCache* near_cache() { return near_.get(); }

  std::unique_ptr<IQSession> NewSession();

 private:
  friend class IQSession;

  KvsBackend& backend_;
  Config config_;
  std::unique_ptr<BackoffPolicy> backoff_;
  std::unique_ptr<NearCache> near_;
  std::mutex rng_mu_;
  Rng seed_rng_;
};

}  // namespace iq
