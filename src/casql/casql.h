// The CASQL application layer: read and write sessions combining an RDBMS
// transaction with KVS maintenance, parameterized over
//
//   Technique    - how writers maintain impacted key-value pairs (Figure 1):
//                  invalidate (delete), refresh (R-M-W), incremental (delta);
//   Consistency  - the client design under evaluation:
//                  kNone      plain memcached ops (race-prone baseline),
//                  kCas       R-M-W via compare-and-swap (Figure 10),
//                  kReadLease Twemcache + Facebook read leases [27]
//                             (the paper's "Twemcache" baseline, Table 7),
//                  kIQ        the full IQ framework (this paper);
//   LeasePlacement - Q leases acquired prior to vs inside the RDBMS
//                  transaction (Figure 9 / Table 6, refresh & delta only).
//
// A write session describes its RDBMS work as a transaction body plus the
// set of impacted keys with per-technique update rules; the connection
// drives the right command sequence, restarting the whole session on RDBMS
// write-write conflicts or Q-lease rejections (non-blocking, deadlock-free).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "check/oplog.h"
#include "core/iq_client.h"
#include "rdbms/database.h"
#include "util/rng.h"

namespace iq::casql {

enum class Technique { kInvalidate, kRefresh, kIncremental };
enum class Consistency { kNone, kCas, kReadLease, kIQ };
enum class LeasePlacement { kPriorToTxn, kInsideTxn };

const char* ToString(Technique t);
const char* ToString(Consistency c);
const char* ToString(LeasePlacement p);

struct CasqlConfig {
  Technique technique = Technique::kInvalidate;
  Consistency consistency = Consistency::kIQ;
  LeasePlacement placement = LeasePlacement::kInsideTxn;
  /// Give up restarting a session after this many attempts.
  int max_session_restarts = 10000;
  /// Retry budget for baseline cas loops.
  int max_cas_retries = 100;
  /// Baselines only: artificial delay between the R and the W of a
  /// baseline R-M-W (models the client<->server round trips of a networked
  /// deployment, which widen the Figure 2 window; IQ paths ignore it).
  Nanos baseline_rmw_delay = 0;
  /// Online staleness auditor: on this fraction of cache hits, re-read the
  /// RDBMS ground truth inside the same session and compare. In IQ mode the
  /// audit serializes against writers via QaRead, so any mismatch is a real
  /// consistency violation (zero false positives); baselines are audited
  /// lease-free (taking a Q lease would drop their concurrent plain Sets,
  /// perturbing the system under measurement), so their count is the racy
  /// staleness the paper's Table 1 quantifies. 0 disables auditing.
  double audit_rate = 0.0;
  /// Optional client-side op log for the offline history checker
  /// (src/check, tools/iqcheck): every client-visible read, write intent,
  /// delta, invalidation, commit, and abort is recorded with the session
  /// id and key/value hashes. Write intents are logged before the install
  /// (see check/oplog.h). Null disables logging. Not owned; must outlive
  /// the system and be thread-safe (check::OpLog is).
  check::OpLog* op_log = nullptr;
  IQClient::Config client;
};

/// Shared tally of the online staleness auditor (see CasqlConfig).
struct AuditStats {
  std::uint64_t samples = 0;              // hits audited to a verdict
  std::uint64_t stale_reads_detected = 0; // audited hits that mismatched
  std::uint64_t skipped = 0;              // audits abandoned (Q conflict /
                                          // transport error)
  std::uint64_t bounded = 0;              // near-cache hits that trailed the
                                          // serialized truth while still
                                          // inside their granted validity
                                          // interval (allowed by design,
                                          // DESIGN.md §4.10) — not stale
};

/// One impacted key in a write session.
struct KeyUpdate {
  std::string key;
  /// Refresh: map the old value (nullopt = KVS miss) to the new value;
  /// return nullopt to skip the update (paper Section 4.2: the application
  /// "may check and skip updating of the value").
  std::function<std::optional<std::string>(const std::optional<std::string>&)>
      refresh;
  /// Incremental update: the delta to apply.
  std::optional<DeltaOp> delta;
  /// Force the invalidate technique for this key even when the session's
  /// technique is refresh/incremental (the paper's mixed-mode support:
  /// e.g. delta-update a counter key while deleting a list key). An IQ
  /// write also invalidates a key whose update has no rule for the session's
  /// technique (no `refresh` under refresh, no `delta` under incremental).
  bool invalidate = false;
};

/// Whether an IQ write under `technique` must quarantine `u` (QaReg, the
/// key deleted at commit) instead of refreshing or delta-updating it: always
/// under invalidate; otherwise when the update asks for invalidation, or
/// carries no rule for the technique. Deleting is always safe; skipping the
/// key would leave its cached value stale after the RDBMS commit.
bool Quarantines(const KeyUpdate& u, Technique technique);

/// A write session: one RDBMS transaction plus its impacted keys.
struct WriteSpec {
  /// The transaction body. Return false to abort the session (e.g. a
  /// constraint violation); conflicts surface via the transaction state.
  std::function<bool(sql::Transaction&)> body;
  std::vector<KeyUpdate> updates;
};

struct WriteOutcome {
  bool committed = false;
  /// Restarts forced by Q-lease rejections (Table 6's metric).
  int q_restarts = 0;
  /// Restarts forced by RDBMS write-write conflicts.
  int rdbms_restarts = 0;
  /// Restarts forced by cache transport errors before the RDBMS commit.
  /// The write path NEVER commits "uncached": a quarantine/lease that may
  /// not be in place means abort, back off, reconnect, retry.
  int transport_restarts = 0;
};

struct ReadOutcome {
  bool hit = false;        // value came straight from the KVS
  bool computed = false;   // value recomputed from the RDBMS
  std::optional<std::string> value;
};

/// Computes a key's value from the database (used on KVS misses).
using ComputeFn = std::function<std::optional<std::string>(sql::Transaction&)>;

class CasqlSystem;
struct MultiWriteSpec;     // multi_txn.h
struct MultiWriteOutcome;  // multi_txn.h

/// Per-thread handle. Not thread-safe; create one per worker.
class CasqlConnection {
 public:
  /// Read session: KVS lookup, recompute-on-miss per the consistency mode.
  ReadOutcome Read(const std::string& key, const ComputeFn& compute);

  /// Write session per the configured technique/consistency/placement.
  WriteOutcome Write(const WriteSpec& spec);

  /// Back-off level of this connection's session: the restarts so far of
  /// the write in progress, or of the last write if it gave up (a commit
  /// resets it).
  int backoff_attempt() const { return session_->backoff_attempt(); }

 private:
  friend class CasqlSystem;
  friend MultiWriteOutcome ExecuteMultiTxn(CasqlSystem& system,
                                           const MultiWriteSpec& spec);
  CasqlConnection(CasqlSystem& system, std::unique_ptr<IQSession> session,
                  std::uint64_t audit_seed);

  ReadOutcome ReadPlain(const std::string& key, const ComputeFn& compute);
  ReadOutcome ReadLeased(const std::string& key, const ComputeFn& compute);

  WriteOutcome WriteBaseline(const WriteSpec& spec);
  /// The IQ write session (one loop for every technique and placement):
  /// leases before or after the body per placement, RDBMS commit, then
  /// CommitLeases; any refused lease or RDBMS conflict restarts it.
  WriteOutcome WriteIQ(const WriteSpec& spec);

  // The steps of an IQ write session, shared with ExecuteMultiTxn.

  /// Take the Q lease of every update under `technique`: Quarantine a key
  /// that Quarantines() selects, else QaRead it (refresh; its current value
  /// lands in olds[i]) or buffer its Delta (incremental). Logs each grant
  /// and stops at the first request that is not granted, returning it.
  ClientQResult AcquireLeases(const std::vector<KeyUpdate>& updates,
                              Technique technique,
                              std::vector<std::optional<std::string>>& olds);
  /// After the RDBMS commit: SaR every refreshed key with refresh(olds[i]),
  /// then Commit (delete quarantined keys, apply deltas, release the rest)
  /// and log the session's commit.
  void CommitLeases(const std::vector<KeyUpdate>& updates, Technique technique,
                    const std::vector<std::optional<std::string>>& olds);
  /// Restart after a refused lease or an RDBMS conflict (Figure 5b): roll
  /// back `txn` (if any), release every lease, log the abort, count it in
  /// `restarts` and back off.
  void Restart(sql::Transaction* txn, int& restarts);

  /// Recompute a key's value in a fresh RDBMS transaction (the paper's
  /// separate-connection approach, Section 6.2).
  std::optional<std::string> ComputeFresh(const ComputeFn& compute);

  /// Staleness auditor: with probability config.audit_rate, re-read the
  /// RDBMS ground truth for a key that just hit in the KVS and bump the
  /// system-wide AuditStats. `observed` is the hit value handed to the
  /// application (the comparand in the lease-free baseline audit).
  /// `near_hit`/`near_remaining` describe a hit served from the client's
  /// near cache: such a hit may legitimately trail the serialized ground
  /// truth, but only while inside its granted validity interval — a
  /// mismatch with near_remaining > 0 counts as `bounded`, one without is
  /// a real staleness violation.
  void MaybeAudit(const std::string& key,
                  const std::optional<std::string>& observed,
                  const ComputeFn& compute, bool near_hit = false,
                  Nanos near_remaining = 0);

  /// Op-log helpers (no-ops when CasqlConfig::op_log is null).
  void LogOp(check::OpKind kind, std::string_view key,
             const std::optional<std::string>& value);
  void LogKeyOp(check::OpKind kind, std::string_view key);
  void LogSessionEnd(check::OpKind kind);

  CasqlSystem& system_;
  std::unique_ptr<IQSession> session_;
  Rng audit_rng_;
};

/// Binds a Database and a cache backend (in-process IQServer or a
/// net::RemoteBackend speaking the wire protocol) under one configuration.
class CasqlSystem {
 public:
  CasqlSystem(sql::Database& db, KvsBackend& backend, CasqlConfig config);

  std::unique_ptr<CasqlConnection> Connect();

  sql::Database& db() { return db_; }
  KvsBackend& backend() { return backend_; }
  const CasqlConfig& config() const { return config_; }
  /// The shared IQ client behind every connection's session (backoff
  /// policy, process-wide near cache).
  IQClient& client() { return client_; }

  /// Snapshot of the staleness-auditor tally across all connections.
  AuditStats audit_stats() const {
    AuditStats s;
    s.samples = audit_samples_.load(std::memory_order_relaxed);
    s.stale_reads_detected =
        stale_reads_detected_.load(std::memory_order_relaxed);
    s.skipped = audit_skipped_.load(std::memory_order_relaxed);
    s.bounded = audit_bounded_.load(std::memory_order_relaxed);
    return s;
  }

 private:
  friend class CasqlConnection;

  sql::Database& db_;
  KvsBackend& backend_;
  CasqlConfig config_;
  IQClient client_;
  std::atomic<std::uint64_t> connections_{0};
  std::atomic<std::uint64_t> audit_samples_{0};
  std::atomic<std::uint64_t> stale_reads_detected_{0};
  std::atomic<std::uint64_t> audit_skipped_{0};
  std::atomic<std::uint64_t> audit_bounded_{0};
};

}  // namespace iq::casql
