// The full CASQL stack over the wire: the casql session layer and the BG
// benchmark drive a RemoteBackend that reaches the IQ-Server only through
// the memcached/IQ text protocol (serialize -> parse -> dispatch ->
// serialize -> parse per operation) - the paper's actual deployment shape.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "bg/workload.h"
#include "casql/casql.h"
#include "casql/query_cache.h"
#include "core/sharded_backend.h"
#include "net/channel_pool.h"
#include "net/remote_backend.h"
#include "net/tcp_server.h"

namespace iq {
namespace {

using casql::CasqlConfig;
using casql::CasqlSystem;
using casql::Consistency;
using casql::Technique;
using sql::SchemaBuilder;
using sql::Transaction;
using sql::TxnResult;
using sql::V;

class RemoteStackTest : public ::testing::Test {
 protected:
  RemoteStackTest() : channel_(server_), backend_(channel_) {}

  CasqlConfig Config(Technique t) {
    CasqlConfig cfg;
    cfg.technique = t;
    cfg.consistency = Consistency::kIQ;
    cfg.client.backoff_base = 20 * kNanosPerMicro;
    cfg.client.backoff_cap = kNanosPerMilli;
    return cfg;
  }

  IQServer server_;
  net::LoopbackChannel channel_;
  net::RemoteBackend backend_;
};

TEST_F(RemoteStackTest, ReadThroughSessionOverTheWire) {
  sql::Database db;
  db.CreateTable(SchemaBuilder("T").AddInt("id").AddInt("n").PrimaryKey({"id"}).Build());
  {
    auto txn = db.Begin();
    txn->Insert("T", {V(1), V(7)});
    txn->Commit();
  }
  CasqlSystem system(db, backend_, Config(Technique::kRefresh));
  auto conn = system.Connect();
  auto compute = [](Transaction& txn) -> std::optional<std::string> {
    auto row = txn.SelectByPk("T", {V(1)});
    if (!row) return std::nullopt;
    return std::to_string(*sql::AsInt((*row)[1]));
  };
  auto miss = conn->Read("K", compute);
  EXPECT_TRUE(miss.computed);
  EXPECT_EQ(miss.value, "7");
  auto hit = conn->Read("K", compute);
  EXPECT_TRUE(hit.hit);
  // The value really lives in the remote server's store.
  EXPECT_EQ(server_.store().Get("K")->value, "7");
  EXPECT_GT(channel_.requests(), 2u);  // every op crossed the wire
}

TEST_F(RemoteStackTest, WriteSessionsWorkForEveryTechnique) {
  for (Technique t : {Technique::kInvalidate, Technique::kRefresh,
                      Technique::kIncremental}) {
    sql::Database db;
    db.CreateTable(
        SchemaBuilder("T").AddInt("id").AddInt("n").PrimaryKey({"id"}).Build());
    {
      auto txn = db.Begin();
      txn->Insert("T", {V(1), V(0)});
      txn->Commit();
    }
    server_.store().Flush();
    CasqlSystem system(db, backend_, Config(t));
    auto conn = system.Connect();
    auto compute = [](Transaction& txn) -> std::optional<std::string> {
      auto row = txn.SelectByPk("T", {V(1)});
      if (!row) return std::nullopt;
      return std::to_string(*sql::AsInt((*row)[1]));
    };
    conn->Read("K", compute);
    casql::WriteSpec spec;
    spec.body = [](Transaction& txn) {
      return txn.UpdateByPk("T", {V(1)}, [](sql::Row& row) {
               row[1] = V(*sql::AsInt(row[1]) + 1);
             }) == TxnResult::kOk;
    };
    casql::KeyUpdate u;
    u.key = "K";
    u.refresh = [](const std::optional<std::string>& old)
        -> std::optional<std::string> {
      if (!old) return std::nullopt;
      return std::to_string(std::stoll(*old) + 1);
    };
    u.delta = DeltaOp{DeltaOp::Kind::kIncr, {}, 1};
    spec.updates.push_back(std::move(u));
    EXPECT_TRUE(conn->Write(spec).committed) << casql::ToString(t);
    auto read = conn->Read("K", compute);
    ASSERT_TRUE(read.value) << casql::ToString(t);
    EXPECT_EQ(*read.value, "1") << casql::ToString(t);
  }
}

TEST_F(RemoteStackTest, QueryCacheRunsOverTheWire) {
  sql::Database db;
  db.CreateTable(SchemaBuilder("Users")
                     .AddInt("id")
                     .AddInt("score")
                     .PrimaryKey({"id"})
                     .Build());
  {
    auto txn = db.Begin();
    txn->Insert("Users", {V(1), V(10)});
    txn->Commit();
  }
  casql::QueryCache cache(db, backend_);
  auto r1 = cache.Select("SELECT score FROM Users WHERE id = ?", {V(1)});
  EXPECT_EQ(r1.rows[0][0], V(10));
  auto r2 = cache.Select("SELECT score FROM Users WHERE id = ?", {V(1)});
  EXPECT_EQ(r2.rows[0][0], V(10));
  EXPECT_EQ(cache.GetStats().result_hits, 1u);
  ASSERT_TRUE(cache.Write({"Users"}, [](Transaction& txn) {
    return sql::Query(txn, "UPDATE Users SET score = 99 WHERE id = 1").ok();
  }));
  auto r3 = cache.Select("SELECT score FROM Users WHERE id = ?", {V(1)});
  EXPECT_EQ(r3.rows[0][0], V(99));
}

TEST_F(RemoteStackTest, BgWorkloadOverTheWireHasZeroUnpredictableReads) {
  sql::Database db;
  bg::CreateBgTables(db);
  bg::GraphConfig graph{40, 4, 1, 1};
  bg::LoadGraph(db, graph);
  bg::ActionPools pools;
  pools.SeedFromGraph(graph);
  CasqlSystem system(db, backend_, Config(Technique::kRefresh));

  bg::WorkloadConfig wl;
  wl.mix = bg::HighWriteMix();
  wl.threads = 4;
  wl.duration = 150 * kNanosPerMilli;
  wl.seed = 3;
  auto result = bg::RunWorkload(system, pools, graph, wl);
  EXPECT_GT(result.actions, 50u);
  EXPECT_GT(result.validation.reads_checked, 0u);
  EXPECT_EQ(result.validation.unpredictable, 0u)
      << result.validation.StalePercent() << "% stale over the wire";
  EXPECT_GT(channel_.requests(), result.actions);  // wire traffic happened
}

TEST_F(RemoteStackTest, AuditDetectsPoisonedEntryOverTheWire) {
  sql::Database db;
  db.CreateTable(
      SchemaBuilder("T").AddInt("id").AddInt("n").PrimaryKey({"id"}).Build());
  {
    auto txn = db.Begin();
    txn->Insert("T", {V(1), V(7)});
    txn->Commit();
  }
  CasqlConfig cfg = Config(Technique::kRefresh);
  cfg.audit_rate = 1.0;
  CasqlSystem system(db, backend_, cfg);
  auto conn = system.Connect();
  auto compute = [](Transaction& txn) -> std::optional<std::string> {
    auto row = txn.SelectByPk("T", {V(1)});
    if (!row) return std::nullopt;
    return std::to_string(*sql::AsInt((*row)[1]));
  };
  conn->Read("K", compute);
  // Corrupt the remote store directly, bypassing the lease protocol.
  server_.store().Set("K", "666");
  auto out = conn->Read("K", compute);
  EXPECT_TRUE(out.hit);
  casql::AuditStats a = system.audit_stats();
  EXPECT_GE(a.samples, 1u);
  EXPECT_GE(a.stale_reads_detected, 1u);
  // The audit QaRead/SaR round trip crossed the wire and released cleanly.
  EXPECT_EQ(server_.LeaseCount(), 0u);
}

// ---- the same stack on a 2-shard tier: one in-process child, one TCP child ----

class ShardedStackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net::TcpServer::Config cfg;
    cfg.workers = 2;
    tcp_ = std::make_unique<net::TcpServer>(tcp_child_, cfg);
    std::string error;
    ASSERT_TRUE(tcp_->Start(&error)) << error;
    channel_ = net::TcpChannel::Connect("127.0.0.1", tcp_->port(), &error);
    ASSERT_NE(channel_, nullptr) << error;
    remote_ = std::make_unique<net::RemoteBackend>(*channel_);
    router_ = std::make_unique<ShardedBackend>(std::vector<ShardedBackend::Shard>{
        {"local", &local_child_, 1, [this] { return local_child_.Stats(); }, {}},
        // The TCP child's counters come back over the wire, through the
        // same `stats` command an operator would use.
        {"tcp", remote_.get(), 1,
         [this] { return net::ParseIQStats(remote_->Stats()); }, {}}});
  }

  void TearDown() override {
    router_.reset();
    remote_.reset();
    channel_.reset();
    if (tcp_) tcp_->Stop();
  }

  std::string KeyOnShard(std::size_t shard, const std::string& prefix) {
    for (int i = 0; i < 10000; ++i) {
      std::string key = prefix + std::to_string(i);
      if (router_->ShardFor(key) == shard) return key;
    }
    ADD_FAILURE() << "no key found for shard " << shard;
    return {};
  }

  CasqlConfig Config(Technique t) {
    CasqlConfig cfg;
    cfg.technique = t;
    cfg.consistency = Consistency::kIQ;
    cfg.client.backoff_base = 20 * kNanosPerMicro;
    cfg.client.backoff_cap = kNanosPerMilli;
    return cfg;
  }

  IQServer local_child_;
  IQServer tcp_child_;
  std::unique_ptr<net::TcpServer> tcp_;
  std::unique_ptr<net::TcpChannel> channel_;
  std::unique_ptr<net::RemoteBackend> remote_;
  std::unique_ptr<ShardedBackend> router_;
};

TEST_F(ShardedStackTest, AbortReleasesLeasesOnBothTransports) {
  std::string k_local = KeyOnShard(0, "a");
  std::string k_tcp = KeyOnShard(1, "b");
  router_->Set(k_local, "x");
  router_->Set(k_tcp, "y");
  SessionId tid = router_->GenID();
  ASSERT_EQ(router_->QaRead(k_local, tid).status,
            QaReadReply::Status::kGranted);
  ASSERT_EQ(router_->QaRead(k_tcp, tid).status, QaReadReply::Status::kGranted);
  EXPECT_EQ(local_child_.LeaseCount(), 1u);
  EXPECT_EQ(tcp_child_.LeaseCount(), 1u);
  router_->Abort(tid);
  EXPECT_EQ(local_child_.LeaseCount(), 0u);
  EXPECT_EQ(tcp_child_.LeaseCount(), 0u);
  EXPECT_EQ(router_->Get(k_local)->value, "x");
  EXPECT_EQ(router_->Get(k_tcp)->value, "y");
}

TEST_F(ShardedStackTest, RejectOnTcpShardReleasesLocalShard) {
  std::string k_local = KeyOnShard(0, "a");
  std::string k_tcp = KeyOnShard(1, "b");
  router_->Set(k_local, "x");
  router_->Set(k_tcp, "y");
  SessionId holder = router_->GenID();
  ASSERT_EQ(router_->QaRead(k_tcp, holder).status,
            QaReadReply::Status::kGranted);
  SessionId tid = router_->GenID();
  ASSERT_EQ(router_->QaRead(k_local, tid).status,
            QaReadReply::Status::kGranted);
  ASSERT_EQ(router_->QaRead(k_tcp, tid).status, QaReadReply::Status::kReject);
  // The reject on the TCP shard must have released the local Q lease.
  EXPECT_EQ(local_child_.LeaseCount(), 0u);
  SessionId retry = router_->GenID();
  EXPECT_EQ(router_->QaRead(k_local, retry).status,
            QaReadReply::Status::kGranted);
  router_->Abort(retry);
  router_->Abort(holder);
  EXPECT_EQ(tcp_child_.LeaseCount(), 0u);
}

TEST_F(ShardedStackTest, WriteSessionsSpanBothShardsForEveryTechnique) {
  for (Technique t : {Technique::kInvalidate, Technique::kRefresh,
                      Technique::kIncremental}) {
    sql::Database db;
    db.CreateTable(
        SchemaBuilder("T").AddInt("id").AddInt("n").PrimaryKey({"id"}).Build());
    {
      auto txn = db.Begin();
      txn->Insert("T", {V(1), V(0)});
      txn->Commit();
    }
    local_child_.store().Flush();
    tcp_child_.store().Flush();
    // Two cached keys for the same row, placed on different shards, so one
    // write session fans out across both transports.
    std::string k_local = KeyOnShard(0, "L");
    std::string k_tcp = KeyOnShard(1, "R");
    CasqlSystem system(db, *router_, Config(t));
    auto conn = system.Connect();
    auto compute = [](Transaction& txn) -> std::optional<std::string> {
      auto row = txn.SelectByPk("T", {V(1)});
      if (!row) return std::nullopt;
      return std::to_string(*sql::AsInt((*row)[1]));
    };
    conn->Read(k_local, compute);
    conn->Read(k_tcp, compute);
    casql::WriteSpec spec;
    spec.body = [](Transaction& txn) {
      return txn.UpdateByPk("T", {V(1)}, [](sql::Row& row) {
               row[1] = V(*sql::AsInt(row[1]) + 1);
             }) == TxnResult::kOk;
    };
    for (const std::string& key : {k_local, k_tcp}) {
      casql::KeyUpdate u;
      u.key = key;
      u.refresh = [](const std::optional<std::string>& old)
          -> std::optional<std::string> {
        if (!old) return std::nullopt;
        return std::to_string(std::stoll(*old) + 1);
      };
      u.delta = DeltaOp{DeltaOp::Kind::kIncr, {}, 1};
      spec.updates.push_back(std::move(u));
    }
    EXPECT_TRUE(conn->Write(spec).committed) << casql::ToString(t);
    for (const std::string& key : {k_local, k_tcp}) {
      auto read = conn->Read(key, compute);
      ASSERT_TRUE(read.value) << casql::ToString(t);
      EXPECT_EQ(*read.value, "1") << casql::ToString(t);
    }
    EXPECT_EQ(local_child_.LeaseCount(), 0u) << casql::ToString(t);
    EXPECT_EQ(tcp_child_.LeaseCount(), 0u) << casql::ToString(t);
  }
}

TEST_F(ShardedStackTest, AuditDetectsPoisonOnEitherShard) {
  sql::Database db;
  db.CreateTable(
      SchemaBuilder("T").AddInt("id").AddInt("n").PrimaryKey({"id"}).Build());
  {
    auto txn = db.Begin();
    txn->Insert("T", {V(1), V(7)});
    txn->Commit();
  }
  std::string k_local = KeyOnShard(0, "L");
  std::string k_tcp = KeyOnShard(1, "R");
  CasqlConfig cfg = Config(Technique::kRefresh);
  cfg.audit_rate = 1.0;
  CasqlSystem system(db, *router_, cfg);
  auto conn = system.Connect();
  auto compute = [](Transaction& txn) -> std::optional<std::string> {
    auto row = txn.SelectByPk("T", {V(1)});
    if (!row) return std::nullopt;
    return std::to_string(*sql::AsInt((*row)[1]));
  };
  conn->Read(k_local, compute);
  conn->Read(k_tcp, compute);
  // Poison one entry per shard; the auditor must see both through the
  // router, including the one behind the TCP transport.
  local_child_.store().Set(k_local, "666");
  tcp_child_.store().Set(k_tcp, "667");
  EXPECT_TRUE(conn->Read(k_local, compute).hit);
  EXPECT_TRUE(conn->Read(k_tcp, compute).hit);
  casql::AuditStats a = system.audit_stats();
  EXPECT_GE(a.samples, 2u);
  EXPECT_GE(a.stale_reads_detected, 2u);
  EXPECT_EQ(local_child_.LeaseCount(), 0u);
  EXPECT_EQ(tcp_child_.LeaseCount(), 0u);
}

// ---- server kill + restart mid-session -----------------------------------
//
// The cache front end dies under a client that cached a value and under a
// writer that left a Q lease stranded. The client must (a) fail writes fast
// while the server is gone — never committing the RDBMS around a dead
// quarantine — (b) degrade reads to pass-through, and (c) reconnect after
// the restart and serve zero stale reads once the stranded lease expires.
TEST(KillRestartTest, ClientReconnectsAndServesZeroStaleReads) {
  IQServer::Config scfg;
  scfg.lease_lifetime = 50 * kNanosPerMilli;  // stranded leases expire fast
  IQServer server(CacheStore::Config{}, scfg);
  net::TcpServer::Config tcfg;
  tcfg.workers = 2;
  auto tcp = std::make_unique<net::TcpServer>(server, tcfg);
  std::string error;
  ASSERT_TRUE(tcp->Start(&error)) << error;
  const std::uint16_t port = tcp->port();

  net::ReconnectingChannel::Config ccfg;
  ccfg.channel.connect_timeout_ms = 500;
  ccfg.channel.io_timeout_ms = 500;
  ccfg.backoff_base = kNanosPerMilli;
  ccfg.backoff_cap = 10 * kNanosPerMilli;
  net::ReconnectingChannel channel({"127.0.0.1", port}, ccfg);
  net::RemoteBackend backend(channel);

  sql::Database db;
  db.CreateTable(
      SchemaBuilder("T").AddInt("id").AddInt("n").PrimaryKey({"id"}).Build());
  {
    auto txn = db.Begin();
    txn->Insert("T", {V(1), V(0)});
    txn->Commit();
  }
  auto compute = [](Transaction& txn) -> std::optional<std::string> {
    auto row = txn.SelectByPk("T", {V(1)});
    if (!row) return std::nullopt;
    return std::to_string(*sql::AsInt((*row)[1]));
  };
  casql::WriteSpec spec;
  spec.body = [](Transaction& txn) {
    return txn.UpdateByPk("T", {V(1)}, [](sql::Row& row) {
             row[1] = V(*sql::AsInt(row[1]) + 1);
           }) == TxnResult::kOk;
  };
  casql::KeyUpdate u;
  u.key = "K";
  spec.updates.push_back(std::move(u));

  CasqlConfig cfg;
  cfg.technique = Technique::kInvalidate;
  cfg.consistency = Consistency::kIQ;
  cfg.client.backoff_base = 20 * kNanosPerMicro;
  cfg.client.backoff_cap = kNanosPerMilli;
  CasqlConfig down_cfg = cfg;
  down_cfg.max_session_restarts = 5;  // bound the write's failure time
  CasqlSystem system(db, backend, cfg);
  CasqlSystem down_system(db, backend, down_cfg);

  {
    auto conn = system.Connect();
    auto cached = conn->Read("K", compute);
    ASSERT_TRUE(cached.value);
    EXPECT_EQ(*cached.value, "0");
  }
  // A writer quarantines "K" and dies without releasing (its connection
  // goes down with the front end): the lease can only expire.
  {
    auto holder = net::TcpChannel::Connect("127.0.0.1", port, &error);
    ASSERT_NE(holder, nullptr) << error;
    net::RemoteBackend dead_writer(*holder);
    SessionId tid = dead_writer.GenID();
    ASSERT_NE(tid, 0u);
    ASSERT_EQ(dead_writer.QaReg(tid, "K"), QuarantineResult::kGranted);
  }
  ASSERT_EQ(server.LeaseCount(), 1u);

  tcp->Stop();
  tcp.reset();  // the server endpoint is gone

  {
    auto conn = down_system.Connect();
    Stopwatch watch(SteadyClock::Instance());
    casql::WriteOutcome out = conn->Write(spec);
    EXPECT_FALSE(out.committed);
    EXPECT_EQ(out.transport_restarts, 5);
    // Fail fast: connect-refused plus capped backoff, nowhere near a
    // human-visible hang.
    EXPECT_LT(watch.ElapsedNanos(), 2 * kNanosPerSec);
    // The RDBMS never committed around the missing quarantine.
    auto txn = db.Begin();
    EXPECT_EQ(*sql::AsInt((*txn->SelectByPk("T", {V(1)}))[1]), 0);
    txn->Rollback();
    // Reads degrade to pass-through while the server is gone.
    auto read = conn->Read("K", compute);
    EXPECT_TRUE(read.computed);
    ASSERT_TRUE(read.value);
    EXPECT_EQ(*read.value, "0");
  }

  // Restart on the same port (SO_REUSEADDR), same server state — the
  // stranded Q lease is still there and must expire, not block forever.
  net::TcpServer::Config rcfg = tcfg;
  rcfg.port = port;
  tcp = std::make_unique<net::TcpServer>(server, rcfg);
  ASSERT_TRUE(tcp->Start(&error)) << error;

  {
    auto conn = system.Connect();
    casql::WriteOutcome out = conn->Write(spec);
    EXPECT_TRUE(out.committed);
    auto read = conn->Read("K", compute);
    ASSERT_TRUE(read.value);
    EXPECT_EQ(*read.value, "1");  // zero stale reads after recovery
  }
  EXPECT_GE(channel.reconnects(), 1u);
  EXPECT_GT(channel.transport_errors(), 0u);
  // The dead writer's lease can only leave by expiring; the sweep (what
  // iqcached's reaper thread runs) collects it without any request traffic.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  server.SweepExpired();
  EXPECT_EQ(server.LeaseCount(), 0u);
  auto item = server.store().Get("K");
  EXPECT_TRUE(!item.has_value() || item->value != "0");
  tcp->Stop();
}

TEST_F(ShardedStackTest, BgWorkloadOnTwoShardsHasZeroUnpredictableReads) {
  sql::Database db;
  bg::CreateBgTables(db);
  bg::GraphConfig graph{40, 4, 1, 1};
  bg::LoadGraph(db, graph);
  bg::ActionPools pools;
  pools.SeedFromGraph(graph);
  CasqlSystem system(db, *router_, Config(Technique::kRefresh));

  bg::WorkloadConfig wl;
  wl.mix = bg::HighWriteMix();
  wl.threads = 4;
  wl.duration = 150 * kNanosPerMilli;
  wl.seed = 3;
  auto result = bg::RunWorkload(system, pools, graph, wl);
  EXPECT_GT(result.actions, 20u);
  EXPECT_GT(result.validation.reads_checked, 0u);
  EXPECT_EQ(result.validation.unpredictable, 0u)
      << result.validation.StalePercent() << "% stale across the tier";
  // Every lease drained on both children, and both shards saw real work.
  EXPECT_EQ(local_child_.LeaseCount(), 0u);
  EXPECT_EQ(tcp_child_.LeaseCount(), 0u);
  IQServerStats aggregated = router_->Stats();
  IQServerStats local = local_child_.Stats();
  IQServerStats tcp = tcp_child_.Stats();
  EXPECT_GT(local.commits, 0u);
  EXPECT_GT(tcp.commits, 0u);
  // The aggregate (TCP child parsed from wire stats) matches the direct sum.
  EXPECT_EQ(aggregated.commits, local.commits + tcp.commits);
  EXPECT_EQ(aggregated.q_ref_granted, local.q_ref_granted + tcp.q_ref_granted);
}

}  // namespace
}  // namespace iq
