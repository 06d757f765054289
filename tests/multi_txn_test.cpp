#include <gtest/gtest.h>

#include <set>

#include "check/oplog.h"
#include "core/fault_backend.h"
#include "core/iq_server.h"
#include "casql/multi_txn.h"
#include "util/worker_group.h"

namespace iq::casql {
namespace {

using sql::SchemaBuilder;
using sql::Transaction;
using sql::TxnResult;
using sql::V;

/// Two accounts with cached balances; a "transfer" session runs two
/// transactions: one debits, one credits (the paper's motivating shape for
/// multi-transaction sessions, e.g. feed-following streams).
class MultiTxnTest : public ::testing::Test {
 protected:
  MultiTxnTest() {
    db_.CreateTable(SchemaBuilder("Accounts")
                        .AddInt("id")
                        .AddInt("balance")
                        .PrimaryKey({"id"})
                        .Build());
    auto txn = db_.Begin();
    txn->Insert("Accounts", {V(1), V(1000)});
    txn->Insert("Accounts", {V(2), V(1000)});
    txn->Commit();
    CasqlConfig cfg;
    cfg.technique = Technique::kRefresh;
    cfg.consistency = Consistency::kIQ;
    cfg.client.backoff_base = 20 * kNanosPerMicro;
    cfg.client.backoff_cap = kNanosPerMilli;
    system_ = std::make_unique<CasqlSystem>(db_, server_, cfg);
  }

  static std::string Key(int id) { return "Balance:" + std::to_string(id); }

  std::int64_t DbBalance(int id) {
    auto txn = db_.Begin();
    auto row = txn->SelectByPk("Accounts", {V(id)});
    return row ? *sql::AsInt((*row)[1]) : -1;
  }

  void WarmKeys() {
    auto conn = system_->Connect();
    for (int id : {1, 2}) {
      conn->Read(Key(id), [id](Transaction& txn) -> std::optional<std::string> {
        auto row = txn.SelectByPk("Accounts", {V(id)});
        if (!row) return std::nullopt;
        return std::to_string(*sql::AsInt((*row)[1]));
      });
    }
  }

  static std::function<bool(Transaction&)> Adjust(int id, std::int64_t delta) {
    return [id, delta](Transaction& txn) {
      return txn.UpdateByPk("Accounts", {V(id)}, [delta](sql::Row& row) {
               row[1] = V(*sql::AsInt(row[1]) + delta);
             }) == TxnResult::kOk;
    };
  }

  static KeyUpdate Refresh(int id, std::int64_t delta) {
    KeyUpdate u;
    u.key = Key(id);
    u.refresh = [delta](const std::optional<std::string>& old)
        -> std::optional<std::string> {
      if (!old) return std::nullopt;
      return std::to_string(std::stoll(*old) + delta);
    };
    return u;
  }

  MultiWriteSpec TransferSpec(std::int64_t amount) {
    MultiWriteSpec spec;
    spec.bodies.push_back(Adjust(1, -amount));
    spec.bodies.push_back(Adjust(2, +amount));
    spec.updates.push_back(Refresh(1, -amount));
    spec.updates.push_back(Refresh(2, +amount));
    return spec;
  }

  sql::Database db_;
  IQServer server_;
  std::unique_ptr<CasqlSystem> system_;
};

TEST_F(MultiTxnTest, TwoTxnSessionCommitsBothAndRefreshesCache) {
  WarmKeys();
  auto out = ExecuteMultiTxn(*system_, TransferSpec(100));
  EXPECT_TRUE(out.committed);
  EXPECT_EQ(out.transactions_run, 2);
  EXPECT_EQ(DbBalance(1), 900);
  EXPECT_EQ(DbBalance(2), 1100);
  EXPECT_EQ(server_.store().Get(Key(1))->value, "900");
  EXPECT_EQ(server_.store().Get(Key(2))->value, "1100");
}

TEST_F(MultiTxnTest, UpdateWithoutRefreshIsDeletedAtCommit) {
  // A delta-only update has no refresh rule, so the session must quarantine
  // the key and delete it at commit; releasing it untouched would leave the
  // pre-commit "1000" cached over a database row that now reads 1001.
  WarmKeys();
  ASSERT_EQ(server_.store().Get(Key(1))->value, "1000");
  MultiWriteSpec spec;
  spec.bodies.push_back(Adjust(1, +2));
  spec.bodies.push_back(Adjust(1, -1));
  KeyUpdate u;
  u.key = Key(1);
  u.delta = DeltaOp{DeltaOp::Kind::kIncr, {}, 1};
  spec.updates.push_back(std::move(u));
  auto out = ExecuteMultiTxn(*system_, spec);
  ASSERT_TRUE(out.committed);
  EXPECT_EQ(DbBalance(1), 1001);
  EXPECT_FALSE(server_.store().Get(Key(1)));
  EXPECT_FALSE(server_.LeaseOn(Key(1)));
  auto conn = system_->Connect();
  auto read = conn->Read(Key(1), [](Transaction& txn)
                                     -> std::optional<std::string> {
    auto row = txn.SelectByPk("Accounts", {V(1)});
    if (!row) return std::nullopt;
    return std::to_string(*sql::AsInt((*row)[1]));
  });
  EXPECT_EQ(read.value, "1001");
}

TEST_F(MultiTxnTest, OpLoggedSessionsAllEndInCommitOrAbort) {
  // The session logs its lease reads and invalidations, so every way out of
  // it - a restart, the invalidation fallback, success - must close the
  // logged session with a commit or an abort record.
  WarmKeys();
  check::OpLog log;
  FaultBackend faulty(server_);
  CasqlConfig cfg = system_->config();
  cfg.op_log = &log;
  CasqlSystem logged(db_, faulty, cfg);

  faulty.FailNext(FaultBackend::Verb::kQaRead, 1);  // one restart
  MultiWriteSpec spec = TransferSpec(100);
  spec.bodies[1] = [](Transaction&) { return false; };  // credit fails
  auto degraded = ExecuteMultiTxn(logged, spec);
  EXPECT_EQ(degraded.q_restarts, 1);
  EXPECT_TRUE(degraded.degraded_to_invalidate);
  EXPECT_TRUE(ExecuteMultiTxn(logged, TransferSpec(10)).committed);

  std::set<std::uint64_t> open;
  int commits = 0, aborts = 0, invals = 0;
  for (const check::OpRecord& r : log.Snapshot()) {
    switch (r.kind) {
      case check::OpKind::kCommit:
        ++commits;
        open.erase(r.session);
        break;
      case check::OpKind::kAbort:
        ++aborts;
        open.erase(r.session);
        break;
      case check::OpKind::kInval:
        ++invals;
        open.insert(r.session);
        break;
      default:
        open.insert(r.session);
    }
  }
  EXPECT_TRUE(open.empty());
  EXPECT_EQ(aborts, 1);   // the restart
  EXPECT_EQ(commits, 2);  // the fallback and the clean transfer
  EXPECT_EQ(invals, 2);   // the fallback deleted both balances
  EXPECT_EQ(DbBalance(1), 900 - 10);
  EXPECT_EQ(DbBalance(2), 1000 + 10);
}

TEST_F(MultiTxnTest, LeasesSpanBothTransactions) {
  WarmKeys();
  MultiWriteSpec spec = TransferSpec(50);
  // Probe the lease state from inside the second transaction's body.
  bool lease_held_mid_sequence = false;
  spec.bodies[1] = [&, inner = spec.bodies[1]](Transaction& txn) {
    lease_held_mid_sequence =
        server_.LeaseOn(Key(1)) == LeaseKind::kQRefresh &&
        server_.LeaseOn(Key(2)) == LeaseKind::kQRefresh;
    return inner(txn);
  };
  ASSERT_TRUE(ExecuteMultiTxn(*system_, spec).committed);
  EXPECT_TRUE(lease_held_mid_sequence);
  EXPECT_FALSE(server_.LeaseOn(Key(1)));
  EXPECT_FALSE(server_.LeaseOn(Key(2)));
}

TEST_F(MultiTxnTest, FirstBodyFalseAbortsCleanly) {
  WarmKeys();
  MultiWriteSpec spec = TransferSpec(100);
  spec.bodies[0] = [](Transaction&) { return false; };
  auto out = ExecuteMultiTxn(*system_, spec);
  EXPECT_FALSE(out.committed);
  EXPECT_FALSE(out.degraded_to_invalidate);
  EXPECT_EQ(DbBalance(1), 1000);
  EXPECT_EQ(server_.store().Get(Key(1))->value, "1000");  // untouched
}

TEST_F(MultiTxnTest, MidSequenceFailureDegradesToInvalidation) {
  WarmKeys();
  MultiWriteSpec spec = TransferSpec(100);
  spec.bodies[1] = [](Transaction&) { return false; };  // credit fails
  auto out = ExecuteMultiTxn(*system_, spec);
  EXPECT_FALSE(out.committed);
  EXPECT_TRUE(out.degraded_to_invalidate);
  // The debit committed (no cross-txn rollback), but the cache holds no
  // stale balances: both keys were deleted and recompute from the database.
  EXPECT_EQ(DbBalance(1), 900);
  EXPECT_EQ(DbBalance(2), 1000);
  EXPECT_FALSE(server_.store().Get(Key(1)));
  EXPECT_FALSE(server_.store().Get(Key(2)));
  EXPECT_FALSE(server_.LeaseOn(Key(1)));
}

TEST_F(MultiTxnTest, ConflictingSessionRestartsAndSerializes) {
  WarmKeys();
  // A foreign session holds a Q lease on Balance:2; release it shortly.
  SessionId intruder = server_.GenID();
  server_.QaRead(Key(2), intruder);
  // Hold the lease until the transfer session has actually collided with it
  // at least once: a fixed sleep races with the scheduler on a loaded
  // machine and can release before the first QaRead even happens.
  std::uint64_t rejects_before = server_.Stats().q_rejected;
  std::thread releaser([&] {
    for (int i = 0; i < 4000 && server_.Stats().q_rejected == rejects_before;
         ++i) {
      SleepFor(server_.clock(), 50 * kNanosPerMicro);
    }
    server_.Abort(intruder);
  });
  auto out = ExecuteMultiTxn(*system_, TransferSpec(10));
  releaser.join();
  EXPECT_TRUE(out.committed);
  EXPECT_GE(out.q_restarts, 1);
  EXPECT_EQ(server_.store().Get(Key(2))->value, "1010");
}

TEST_F(MultiTxnTest, NonIQSystemRejected) {
  CasqlConfig cfg;
  cfg.consistency = Consistency::kCas;
  CasqlSystem baseline(db_, server_, cfg);
  auto out = ExecuteMultiTxn(baseline, TransferSpec(1));
  EXPECT_FALSE(out.committed);
  EXPECT_EQ(DbBalance(1), 1000);
}

TEST_F(MultiTxnTest, ConcurrentTransfersStayConsistent) {
  WarmKeys();
  WorkerGroup group;
  group.Start(4, [&](int, const std::atomic<bool>&) {
    for (int i = 0; i < 25; ++i) {
      ExecuteMultiTxn(*system_, TransferSpec(1));
    }
  });
  group.StopAndJoin();
  // Conservation in the database...
  EXPECT_EQ(DbBalance(1) + DbBalance(2), 2000);
  // ...and the cache matches it exactly.
  auto c1 = server_.store().Get(Key(1));
  auto c2 = server_.store().Get(Key(2));
  ASSERT_TRUE(c1 && c2);
  EXPECT_EQ(std::stoll(c1->value), DbBalance(1));
  EXPECT_EQ(std::stoll(c2->value), DbBalance(2));
}

}  // namespace
}  // namespace iq::casql
