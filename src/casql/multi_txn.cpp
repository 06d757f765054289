#include "casql/multi_txn.h"

namespace iq::casql {

MultiWriteOutcome ExecuteMultiTxn(CasqlSystem& system,
                                  const MultiWriteSpec& spec) {
  MultiWriteOutcome out;
  if (system.config().consistency != Consistency::kIQ) return out;
  const int max_restarts = system.config().max_session_restarts;
  // One session for every attempt, so restart k backs off per attempt k.
  auto conn = system.Connect();
  IQSession& session = *conn->session_;
  std::vector<std::optional<std::string>> olds(spec.updates.size());
  for (int attempt = 0; attempt < max_restarts; ++attempt) {
    // Growing phase: every lease before the first transaction. An update
    // without a refresh rule is quarantined and deleted at commit.
    if (conn->AcquireLeases(spec.updates, Technique::kRefresh, olds) !=
        ClientQResult::kGranted) {
      conn->Restart(nullptr, out.q_restarts);
      continue;
    }

    // Run the transaction sequence. Individual conflicts retry that
    // transaction; a body returning false aborts the session.
    std::size_t committed_txns = 0;
    bool session_failed = false;
    for (const auto& body : spec.bodies) {
      bool txn_done = false;
      for (int txn_try = 0; txn_try < max_restarts && !txn_done; ++txn_try) {
        auto txn = system.db().Begin();
        ++out.transactions_run;
        bool ok = body(*txn);
        if (txn->state() == sql::Transaction::State::kAborted) {
          session.Backoff();
          continue;  // write-write conflict: retry this transaction
        }
        if (!ok) {
          txn->Rollback();
          break;
        }
        txn->Commit();
        txn_done = true;
        ++committed_txns;
      }
      if (!txn_done) {
        session_failed = true;
        break;
      }
    }

    if (session_failed) {
      if (committed_txns == 0) {
        // Nothing reached the database: plain abort, values intact.
        session.Abort();
        conn->LogSessionEnd(check::OpKind::kAbort);
        return out;
      }
      // Mid-sequence failure after some commits: the cached values can no
      // longer be refreshed consistently, so fall back to deleting them -
      // a delete is always safe and readers recompute from the database.
      // Re-quarantining a key voids this session's own Q(refresh) lease on
      // it. The database has already moved on, so a quarantine that fails
      // is retried (within the restart budget) instead of restarting.
      for (int i = 0; i < max_restarts &&
                      conn->AcquireLeases(spec.updates, Technique::kInvalidate,
                                          olds) != ClientQResult::kGranted;
           ++i) {
        session.Backoff();
      }
      conn->CommitLeases(spec.updates, Technique::kInvalidate, olds);
      out.degraded_to_invalidate = true;
      return out;
    }

    // Shrinking phase: apply every refresh after the LAST commit.
    conn->CommitLeases(spec.updates, Technique::kRefresh, olds);
    out.committed = true;
    return out;
  }
  return out;
}

}  // namespace iq::casql
