// Multi-transaction sessions - the paper's Section 8 research question:
// "whether the framework provides strong consistency guarantees for
// sessions consisting of multiple RDBMS transactions".
//
// The answer implemented here: yes, provided the Q leases span the entire
// sequence (the growing phase covers every transaction, the shrinking phase
// happens after the LAST commit). The session:
//
//   1. acquires Q(refresh) leases on every impacted key up front (so a
//      conflicting session aborts instead of interleaving);
//   2. runs its transactions one after another, retrying an individual
//      transaction on write-write conflict;
//   3. applies all KVS updates (SaR) after the final commit and releases.
//
// Caveat that makes this an extension rather than a drop-in: the RDBMS
// cannot atomically roll back transactions that already committed, so if a
// LATER transaction aborts permanently, the session falls back to
// invalidation - it deletes every impacted key (always safe) so readers
// recompute from whatever the database now says. KVS-level atomicity is
// preserved; cross-transaction RDBMS atomicity is the application's
// responsibility (exactly the open question the paper poses).
#pragma once

#include "casql/casql.h"

namespace iq::casql {

/// A session spanning several RDBMS transactions.
struct MultiWriteSpec {
  /// Transaction bodies, executed in order. Each returns false to abort
  /// the whole session.
  std::vector<std::function<bool(sql::Transaction&)>> bodies;
  /// Impacted keys, refreshed after the last commit (refresh callbacks are
  /// applied to the values captured at lease-acquisition time). A key whose
  /// update has no refresh callback, or asks for invalidation, is
  /// quarantined instead and deleted at commit.
  std::vector<KeyUpdate> updates;
};

struct MultiWriteOutcome {
  bool committed = false;      // every transaction committed and KVS updated
  int transactions_run = 0;    // including retries
  int q_restarts = 0;  // lease requests refused or unreachable
  /// True when a mid-sequence failure forced the invalidation fallback.
  bool degraded_to_invalidate = false;
};

/// Execute `spec` against `system` with leases spanning all transactions.
/// Only Consistency::kIQ systems are supported (returns !committed
/// otherwise); the technique is forced to refresh semantics.
MultiWriteOutcome ExecuteMultiTxn(CasqlSystem& system, const MultiWriteSpec& spec);

}  // namespace iq::casql
