#include "casql/casql.h"

#include "util/backoff.h"

namespace iq::casql {

const char* ToString(Technique t) {
  switch (t) {
    case Technique::kInvalidate: return "invalidate";
    case Technique::kRefresh: return "refresh";
    case Technique::kIncremental: return "incremental";
  }
  return "?";
}

const char* ToString(Consistency c) {
  switch (c) {
    case Consistency::kNone: return "none";
    case Consistency::kCas: return "cas";
    case Consistency::kReadLease: return "read-lease";
    case Consistency::kIQ: return "IQ";
  }
  return "?";
}

const char* ToString(LeasePlacement p) {
  switch (p) {
    case LeasePlacement::kPriorToTxn: return "prior-to-txn";
    case LeasePlacement::kInsideTxn: return "inside-txn";
  }
  return "?";
}

CasqlSystem::CasqlSystem(sql::Database& db, KvsBackend& backend,
                         CasqlConfig config)
    : db_(db),
      backend_(backend),
      config_(config),
      client_(backend, config.client) {}

std::unique_ptr<CasqlConnection> CasqlSystem::Connect() {
  // Each connection's audit sampler gets an independent, reproducible
  // stream: same seed + connection order => same audited hits.
  std::uint64_t n = connections_.fetch_add(1, std::memory_order_relaxed);
  return std::unique_ptr<CasqlConnection>(new CasqlConnection(
      *this, client_.NewSession(),
      config_.client.seed ^ (0x9E3779B97F4A7C15ULL * (n + 1))));
}

CasqlConnection::CasqlConnection(CasqlSystem& system,
                                 std::unique_ptr<IQSession> session,
                                 std::uint64_t audit_seed)
    : system_(system), session_(std::move(session)), audit_rng_(audit_seed) {}

void CasqlConnection::LogOp(check::OpKind kind, std::string_view key,
                            const std::optional<std::string>& value) {
  check::OpLog* log = system_.config_.op_log;
  if (log == nullptr) return;
  log->Record(session_->id(), kind, TraceKeyHash(key),
              check::OpValueHash(value));
}

void CasqlConnection::LogKeyOp(check::OpKind kind, std::string_view key) {
  check::OpLog* log = system_.config_.op_log;
  if (log == nullptr) return;
  log->Record(session_->id(), kind, TraceKeyHash(key));
}

void CasqlConnection::LogSessionEnd(check::OpKind kind) {
  check::OpLog* log = system_.config_.op_log;
  if (log == nullptr) return;
  log->Record(session_->id(), kind, 0);
}

std::optional<std::string> CasqlConnection::ComputeFresh(
    const ComputeFn& compute) {
  // A dedicated (fresh) RDBMS connection/transaction, so a miss inside a
  // write session never observes that session's uncommitted changes
  // (paper Section 6.2, the multi-connection approach).
  auto txn = system_.db_.Begin();
  auto value = compute(*txn);
  txn->Rollback();
  return value;
}

void CasqlConnection::MaybeAudit(const std::string& key,
                                 const std::optional<std::string>& observed,
                                 const ComputeFn& compute, bool near_hit,
                                 Nanos near_remaining) {
  const CasqlConfig& cfg = system_.config_;
  if (cfg.audit_rate <= 0 || !audit_rng_.NextBool(cfg.audit_rate)) return;
  if (cfg.consistency == Consistency::kIQ) {
    // Serialize against writers: while a Q(refresh) lease holds, no write
    // session is in flight on this key, so strong consistency demands the
    // value under the lease equal the RDBMS ground truth right now. The
    // just-observed hit value is NOT the comparand — a writer may have
    // legitimately committed between the hit and the audit.
    std::optional<std::string> current;
    if (session_->QaRead(key, current) != ClientQResult::kGranted) {
      // Conflict (a writer is mid-session) or transport error: no verdict.
      system_.audit_skipped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    if (current) {
      LogOp(check::OpKind::kReadHit, key, current);
    } else {
      LogKeyOp(check::OpKind::kReadMiss, key);
    }
    std::optional<std::string> truth = ComputeFresh(compute);
    LogOp(check::OpKind::kReadDb, key, truth);
    // Release, leaving the value in place. The lease must still have held
    // after the ground-truth read: an invalidating writer's QaReg voids a
    // Q(refresh) lease (invalidation wins), then commits and deletes, so a
    // voided lease proves nothing about what the RDBMS read saw.
    if (session_->SaR(key, std::nullopt) != StoreResult::kStored) {
      system_.audit_skipped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    // A KVS miss under the lease is never stale (the KVS is a subset of the
    // RDBMS); a present value disagreeing with the ground truth is.
    bool stale = current && (!truth || *truth != *current);
    system_.audit_samples_.fetch_add(1, std::memory_order_relaxed);
    if (near_hit && observed && (!truth || *truth != *observed)) {
      // A hit served from the client's near cache may trail the serialized
      // ground truth — that is the validity-interval contract working as
      // designed, but ONLY while the entry is inside its interval. The near
      // cache never serves expired entries, so near_remaining > 0 always
      // holds here; a violation of that invariant is real staleness.
      if (near_remaining > 0) {
        system_.audit_bounded_.fetch_add(1, std::memory_order_relaxed);
      } else {
        stale = true;
      }
    }
    if (stale) {
      system_.stale_reads_detected_.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  // Baselines are audited lease-free (a Q lease would drop their concurrent
  // plain Sets, perturbing the system under measurement): compare the hit
  // the application saw against fresh ground truth. Racy by construction —
  // but unbounded staleness is exactly what the baselines exhibit.
  std::optional<std::string> truth = ComputeFresh(compute);
  LogOp(check::OpKind::kReadDb, key, truth);
  bool stale = observed && (!truth || *truth != *observed);
  system_.audit_samples_.fetch_add(1, std::memory_order_relaxed);
  if (stale) {
    system_.stale_reads_detected_.fetch_add(1, std::memory_order_relaxed);
  }
}

// ---- read sessions ----------------------------------------------------------

ReadOutcome CasqlConnection::Read(const std::string& key,
                                  const ComputeFn& compute) {
  switch (system_.config_.consistency) {
    case Consistency::kNone:
    case Consistency::kCas:
      return ReadPlain(key, compute);
    case Consistency::kReadLease:
    case Consistency::kIQ:
      return ReadLeased(key, compute);
  }
  return {};
}

ReadOutcome CasqlConnection::ReadPlain(const std::string& key,
                                       const ComputeFn& compute) {
  ReadOutcome out;
  auto item = system_.backend_.Get(key);
  if (item) {
    out.hit = true;
    out.value = std::move(item->value);
    LogOp(check::OpKind::kReadHit, key, out.value);
    MaybeAudit(key, out.value, compute);
    return out;
  }
  LogKeyOp(check::OpKind::kReadMiss, key);
  out.computed = true;
  out.value = ComputeFresh(compute);
  LogOp(check::OpKind::kReadDb, key, out.value);
  // Race-prone: any number of concurrent sessions may install here, and a
  // value computed from a pre-update snapshot overwrites fresher data.
  if (out.value) system_.backend_.Set(key, *out.value);
  return out;
}

ReadOutcome CasqlConnection::ReadLeased(const std::string& key,
                                        const ComputeFn& compute) {
  ReadOutcome out;
  ClientGetResult got = session_->Get(key);
  switch (got.status) {
    case ClientGetResult::Status::kHit:
      out.hit = true;
      out.value = std::move(got.value);
      LogOp(check::OpKind::kReadHit, key, out.value);
      MaybeAudit(key, out.value, compute, got.near_hit, got.near_remaining);
      return out;
    case ClientGetResult::Status::kMissRecompute:
      LogKeyOp(check::OpKind::kReadMiss, key);
      out.computed = true;
      out.value = ComputeFresh(compute);
      // read_db justifies the hash BEFORE Put installs it, so a concurrent
      // reader hitting the fresh value is always covered.
      LogOp(check::OpKind::kReadDb, key, out.value);
      if (out.value) {
        session_->Put(key, *out.value);
      } else {
        session_->DropLease(key);  // nothing to install; unblock others
      }
      return out;
    case ClientGetResult::Status::kMissNoInstall:
      // Our own quarantined key: recompute (observing our own RDBMS update)
      // but do not install - the key dies at our commit anyway.
      LogKeyOp(check::OpKind::kReadMiss, key);
      out.computed = true;
      out.value = ComputeFresh(compute);
      LogOp(check::OpKind::kReadDb, key, out.value);
      return out;
    case ClientGetResult::Status::kTimeout:
      LogKeyOp(check::OpKind::kReadMiss, key);
      out.computed = true;
      out.value = ComputeFresh(compute);
      LogOp(check::OpKind::kReadDb, key, out.value);
      return out;
  }
  return out;
}

// ---- write sessions ----------------------------------------------------------

WriteOutcome CasqlConnection::Write(const WriteSpec& spec) {
  // Restart k of this write waits per attempt k (Abort keeps the count), so
  // the count starts over here rather than leaking in from the last write.
  session_->ResetBackoff();
  if (system_.config_.consistency == Consistency::kIQ) return WriteIQ(spec);
  return WriteBaseline(spec);
}

WriteOutcome CasqlConnection::WriteBaseline(const WriteSpec& spec) {
  WriteOutcome out;
  KvsBackend& store = system_.backend_;
  const CasqlConfig& cfg = system_.config_;
  for (int attempt = 0; attempt < cfg.max_session_restarts; ++attempt) {
    auto txn = system_.db_.Begin();
    bool ok = spec.body(*txn);
    if (txn->state() == sql::Transaction::State::kAborted) {
      LogSessionEnd(check::OpKind::kAbort);
      ++out.rdbms_restarts;
      session_->Backoff();
      continue;
    }
    if (!ok) {
      txn->Rollback();
      LogSessionEnd(check::OpKind::kAbort);
      return out;
    }
    if (cfg.technique == Technique::kInvalidate) {
      // Trigger-style placement: the delete executes inside the RDBMS
      // transaction, before commit - the race-prone shape of Figure 3.
      for (const auto& u : spec.updates) {
        LogKeyOp(check::OpKind::kInval, u.key);
        system_.backend_.DeleteVoid(u.key);
      }
      txn->Commit();
      LogSessionEnd(check::OpKind::kCommit);
      out.committed = true;
      return out;
    }
    // Mixed-mode updates that force invalidation are deleted trigger-style.
    for (const auto& u : spec.updates) {
      if (!u.invalidate) continue;
      LogKeyOp(check::OpKind::kInval, u.key);
      system_.backend_.DeleteVoid(u.key);
    }
    txn->Commit();
    switch (cfg.technique) {
      case Technique::kRefresh:
        for (const auto& u : spec.updates) {
          if (u.invalidate || !u.refresh) continue;
          if (cfg.consistency == Consistency::kNone) {
            // Figure 1b: read, modify in application memory, set.
            auto item = store.Get(u.key);
            std::optional<std::string> old =
                item ? std::optional<std::string>(std::move(item->value))
                     : std::nullopt;
            LogOp(old ? check::OpKind::kReadHit : check::OpKind::kReadMiss,
                  u.key, old);
            auto v_new = u.refresh(old);
            if (cfg.baseline_rmw_delay > 0) {
              SleepFor(SteadyClock::Instance(), cfg.baseline_rmw_delay);
            }
            if (v_new) {
              LogOp(check::OpKind::kWrite, u.key, v_new);
              store.Set(u.key, *v_new);
            }
          } else {
            // Figure 10: R-M-W via compare-and-swap with retry. Atomic per
            // key, yet still unable to impose the RDBMS serial order
            // (Figure 2), so stale values survive.
            for (int i = 0; i < cfg.max_cas_retries; ++i) {
              auto item = store.Get(u.key);
              if (!item) {
                LogKeyOp(check::OpKind::kReadMiss, u.key);
                auto v_new = u.refresh(std::nullopt);
                if (!v_new) break;
                LogOp(check::OpKind::kWrite, u.key, v_new);
                if (store.Add(u.key, *v_new) == StoreResult::kStored) break;
                continue;  // lost the add race; retry as an update
              }
              LogOp(check::OpKind::kReadHit, u.key,
                    std::optional<std::string>(item->value));
              auto v_new = u.refresh(item->value);
              if (!v_new) break;
              if (cfg.baseline_rmw_delay > 0) {
                SleepFor(SteadyClock::Instance(), cfg.baseline_rmw_delay);
              }
              LogOp(check::OpKind::kWrite, u.key, v_new);
              if (store.Cas(u.key, *v_new, item->cas) == StoreResult::kStored) {
                break;
              }
            }
          }
        }
        break;
      case Technique::kIncremental:
        for (const auto& u : spec.updates) {
          if (u.invalidate || !u.delta) continue;
          LogKeyOp(check::OpKind::kDelta, u.key);
          switch (u.delta->kind) {
            case DeltaOp::Kind::kAppend:
              store.Append(u.key, u.delta->blob);
              break;
            case DeltaOp::Kind::kPrepend:
              store.Prepend(u.key, u.delta->blob);
              break;
            case DeltaOp::Kind::kIncr:
              store.Incr(u.key, u.delta->amount);
              break;
            case DeltaOp::Kind::kDecr:
              store.Decr(u.key, u.delta->amount);
              break;
          }
        }
        break;
      case Technique::kInvalidate:
        break;  // handled above
    }
    LogSessionEnd(check::OpKind::kCommit);
    out.committed = true;
    return out;
  }
  return out;
}

bool Quarantines(const KeyUpdate& u, Technique technique) {
  return technique == Technique::kInvalidate || u.invalidate ||
         (technique == Technique::kRefresh ? !u.refresh : !u.delta);
}

ClientQResult CasqlConnection::AcquireLeases(
    const std::vector<KeyUpdate>& updates, Technique technique,
    std::vector<std::optional<std::string>>& olds) {
  for (std::size_t i = 0; i < updates.size(); ++i) {
    const KeyUpdate& u = updates[i];
    ClientQResult q;
    if (Quarantines(u, technique)) {
      // QaReg is granted by any reachable server (Figure 5a). A transport
      // error means the quarantine is NOT in place, so the caller must not
      // commit: the cached value would stay stale for good.
      q = session_->Quarantine(u.key);
      if (q == ClientQResult::kGranted) LogKeyOp(check::OpKind::kInval, u.key);
    } else if (technique == Technique::kRefresh) {
      q = session_->QaRead(u.key, olds[i]);
      if (q == ClientQResult::kGranted) {
        LogOp(olds[i] ? check::OpKind::kReadHit : check::OpKind::kReadMiss,
              u.key, olds[i]);
      }
    } else {
      q = session_->Delta(u.key, *u.delta);
      if (q == ClientQResult::kGranted) LogKeyOp(check::OpKind::kDelta, u.key);
    }
    if (q != ClientQResult::kGranted) return q;
  }
  return ClientQResult::kGranted;
}

void CasqlConnection::CommitLeases(
    const std::vector<KeyUpdate>& updates, Technique technique,
    const std::vector<std::optional<std::string>>& olds) {
  // Failures from here on are tolerable: every impacted key holds a Q
  // lease, and an unreleased Q lease expires server-side and deletes its
  // key, so stale values cannot survive a lost SaR/Commit.
  if (technique == Technique::kRefresh) {
    for (std::size_t i = 0; i < updates.size(); ++i) {
      const KeyUpdate& u = updates[i];
      if (Quarantines(u, technique)) continue;
      std::optional<std::string> v_new = u.refresh(olds[i]);
      // Write intent BEFORE the install (check/oplog.h soundness rule).
      if (v_new) LogOp(check::OpKind::kWrite, u.key, v_new);
      session_->SaR(u.key, v_new ? std::optional<std::string_view>(*v_new)
                                 : std::nullopt);
    }
  }
  // DaR the quarantined keys, apply the buffered deltas, release the rest.
  session_->Commit();
  LogSessionEnd(check::OpKind::kCommit);
}

void CasqlConnection::Restart(sql::Transaction* txn, int& restarts) {
  if (txn != nullptr) txn->Rollback();
  session_->Abort();
  LogSessionEnd(check::OpKind::kAbort);
  ++restarts;
  session_->Backoff();
}

WriteOutcome CasqlConnection::WriteIQ(const WriteSpec& spec) {
  WriteOutcome out;
  const CasqlConfig& cfg = system_.config_;
  const bool prior = cfg.placement == LeasePlacement::kPriorToTxn;
  std::vector<std::optional<std::string>> olds(spec.updates.size());
  for (int attempt = 0; attempt < cfg.max_session_restarts; ++attempt) {
    // Placement only decides whether the leases come before or after the
    // body (Figure 9); either way they are all held at the RDBMS commit.
    ClientQResult q = ClientQResult::kGranted;
    if (prior) q = AcquireLeases(spec.updates, cfg.technique, olds);
    std::unique_ptr<sql::Transaction> txn;
    if (q == ClientQResult::kGranted) {
      txn = system_.db_.Begin();
      bool ok = spec.body(*txn);
      if (txn->state() == sql::Transaction::State::kAborted) {
        Restart(txn.get(), out.rdbms_restarts);
        continue;
      }
      if (!ok) {
        txn->Rollback();
        session_->Abort();  // leaves current versions in the KVS
        LogSessionEnd(check::OpKind::kAbort);
        return out;
      }
      if (!prior) q = AcquireLeases(spec.updates, cfg.technique, olds);
    }
    if (q != ClientQResult::kGranted) {
      // Figure 5b: a refused lease, or one that may not be in place after a
      // transport error, releases everything and restarts the session.
      Restart(txn.get(), q == ClientQResult::kQConflict
                             ? out.q_restarts
                             : out.transport_restarts);
      continue;
    }
    txn->Commit();
    CommitLeases(spec.updates, cfg.technique, olds);
    out.committed = true;
    return out;
  }
  return out;
}

}  // namespace iq::casql
