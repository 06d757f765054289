// ShardedBackend: consistent-hash routing, lazy per-shard session minting,
// and the fan-out session lifecycle (commit/abort/reject-release) across
// in-process children.
#include "core/sharded_backend.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/iq_server.h"

namespace iq {
namespace {

/// A key whose ring position lands on `shard` (probe a numbered sequence;
/// with >=64 vnodes per shard every shard owns plenty of keyspace).
std::string KeyOnShard(const ShardedBackend& router, std::size_t shard,
                       const std::string& prefix = "k") {
  for (int i = 0; i < 10000; ++i) {
    std::string key = prefix + std::to_string(i);
    if (router.ShardFor(key) == shard) return key;
  }
  ADD_FAILURE() << "no key found for shard " << shard;
  return {};
}

class ShardedBackendTest : public ::testing::Test {
 protected:
  ShardedBackendTest()
      : router_({{"cache-a", &child0_, 1, [this] { return child0_.Stats(); }},
                 {"cache-b", &child1_, 1, [this] { return child1_.Stats(); }}},
                ShardedBackend::Config{}) {}

  IQServer child0_;
  IQServer child1_;
  ShardedBackend router_;
};

TEST(ShardedRing, RoutingIsDeterministicAcrossInstances) {
  IQServer a, b;
  std::vector<ShardedBackend::Shard> shards = {{"s0", &a, 1, nullptr},
                                               {"s1", &b, 1, nullptr}};
  ShardedBackend r1(shards);
  ShardedBackend r2(shards);  // a second router, as each client thread builds
  for (int i = 0; i < 500; ++i) {
    std::string key = "key" + std::to_string(i);
    EXPECT_EQ(r1.ShardFor(key), r2.ShardFor(key)) << key;
  }
}

TEST(ShardedRing, EveryShardOwnsKeyspace) {
  IQServer a, b, c, d;
  ShardedBackend router({{"s0", &a, 1, nullptr},
                         {"s1", &b, 1, nullptr},
                         {"s2", &c, 1, nullptr},
                         {"s3", &d, 1, nullptr}});
  std::vector<int> hits(4, 0);
  for (int i = 0; i < 2000; ++i) {
    ++hits[router.ShardFor("key" + std::to_string(i))];
  }
  for (int h : hits) EXPECT_GT(h, 0);
}

TEST(ShardedRing, WeightSkewsDistribution) {
  IQServer a, b;
  ShardedBackend router({{"small", &a, 1, nullptr}, {"big", &b, 4, nullptr}});
  int small = 0, big = 0;
  for (int i = 0; i < 4000; ++i) {
    (router.ShardFor("key" + std::to_string(i)) == 0 ? small : big)++;
  }
  EXPECT_GT(big, small);  // weight 4 owns ~4x the ring
}

TEST(ShardedRing, EmptyShardListThrows) {
  EXPECT_THROW(ShardedBackend({}), std::invalid_argument);
}

TEST_F(ShardedBackendTest, PlainOpsRouteByKey) {
  std::string k0 = KeyOnShard(router_, 0);
  std::string k1 = KeyOnShard(router_, 1);
  EXPECT_EQ(router_.Set(k0, "v0"), StoreResult::kStored);
  EXPECT_EQ(router_.Set(k1, "v1"), StoreResult::kStored);
  // The value lives only in the owning child.
  EXPECT_TRUE(child0_.Get(k0));
  EXPECT_FALSE(child1_.Get(k0));
  EXPECT_TRUE(child1_.Get(k1));
  EXPECT_FALSE(child0_.Get(k1));
  EXPECT_EQ(router_.Get(k0)->value, "v0");
  EXPECT_EQ(router_.Get(k1)->value, "v1");
}

TEST_F(ShardedBackendTest, SessionsAreMintedLazilyPerShard) {
  std::string k0 = KeyOnShard(router_, 0);
  SessionId tid = router_.GenID();
  router_.Set(k0, "v");
  ASSERT_EQ(router_.QaReg(tid, k0), QuarantineResult::kGranted);
  router_.Commit(tid);
  // Only shard 0 was touched: its child saw the commit, the other child saw
  // no session traffic at all.
  EXPECT_EQ(child0_.Stats().commits, 1u);
  EXPECT_EQ(child1_.Stats().commits, 0u);
  ShardedBackendStats rs = router_.router_stats();
  EXPECT_EQ(rs.sessions, 1u);
  EXPECT_EQ(rs.shard_sessions, 1u);
  EXPECT_EQ(rs.fanout_commits, 1u);
  EXPECT_EQ(rs.cross_shard_sessions, 0u);
}

TEST_F(ShardedBackendTest, CommitFansOutToAllTouchedShards) {
  std::string k0 = KeyOnShard(router_, 0);
  std::string k1 = KeyOnShard(router_, 1);
  router_.Set(k0, "10");
  router_.Set(k1, "x");
  SessionId tid = router_.GenID();
  EXPECT_EQ(router_.IQDelta(tid, k0, {DeltaOp::Kind::kIncr, {}, 5}),
            QuarantineResult::kGranted);
  EXPECT_EQ(router_.IQDelta(tid, k1, {DeltaOp::Kind::kAppend, "y", 0}),
            QuarantineResult::kGranted);
  router_.Commit(tid);
  EXPECT_EQ(router_.Get(k0)->value, "15");
  EXPECT_EQ(router_.Get(k1)->value, "xy");
  EXPECT_EQ(child0_.Stats().commits, 1u);
  EXPECT_EQ(child1_.Stats().commits, 1u);
  EXPECT_EQ(router_.router_stats().cross_shard_sessions, 1u);
  EXPECT_EQ(router_.router_stats().fanout_commits, 1u);
}

TEST_F(ShardedBackendTest, AbortReleasesLeasesOnEveryTouchedShard) {
  std::string k0 = KeyOnShard(router_, 0);
  std::string k1 = KeyOnShard(router_, 1);
  router_.Set(k0, "a");
  router_.Set(k1, "b");
  SessionId tid = router_.GenID();
  EXPECT_EQ(router_.QaRead(k0, tid).status, QaReadReply::Status::kGranted);
  EXPECT_EQ(router_.QaRead(k1, tid).status, QaReadReply::Status::kGranted);
  EXPECT_EQ(child0_.LeaseCount(), 1u);
  EXPECT_EQ(child1_.LeaseCount(), 1u);
  router_.Abort(tid);
  EXPECT_EQ(child0_.LeaseCount(), 0u);
  EXPECT_EQ(child1_.LeaseCount(), 0u);
  // Values survive the abort.
  EXPECT_EQ(router_.Get(k0)->value, "a");
  EXPECT_EQ(router_.Get(k1)->value, "b");
  EXPECT_EQ(router_.router_stats().fanout_aborts, 1u);
}

TEST_F(ShardedBackendTest, QaReadRejectReleasesEveryTouchedShard) {
  std::string k0 = KeyOnShard(router_, 0);
  std::string k1 = KeyOnShard(router_, 1);
  router_.Set(k0, "a");
  router_.Set(k1, "b");
  // Session 2 holds the Q lease on k1 (shard 1).
  SessionId holder = router_.GenID();
  ASSERT_EQ(router_.QaRead(k1, holder).status, QaReadReply::Status::kGranted);
  // Session 1 acquires k0 (shard 0) and is then rejected on k1. Without the
  // fan-out release its Q lease on shard 0 would outlive the reject and
  // deadlock every retry that touches k0.
  SessionId tid = router_.GenID();
  ASSERT_EQ(router_.QaRead(k0, tid).status, QaReadReply::Status::kGranted);
  ASSERT_EQ(router_.QaRead(k1, tid).status, QaReadReply::Status::kReject);
  EXPECT_EQ(child0_.LeaseCount(), 0u);  // k0 released by the router
  // A fresh session can acquire k0 immediately (no stranded lease).
  SessionId retry = router_.GenID();
  EXPECT_EQ(router_.QaRead(k0, retry).status, QaReadReply::Status::kGranted);
  EXPECT_EQ(router_.router_stats().reject_releases, 1u);
  router_.Abort(retry);
  router_.Abort(holder);
}

TEST_F(ShardedBackendTest, IQDeltaRejectReleasesEveryTouchedShard) {
  std::string k0 = KeyOnShard(router_, 0);
  std::string k1 = KeyOnShard(router_, 1);
  router_.Set(k0, "a");
  router_.Set(k1, "5");
  SessionId holder = router_.GenID();
  ASSERT_EQ(router_.QaRead(k1, holder).status, QaReadReply::Status::kGranted);
  SessionId tid = router_.GenID();
  ASSERT_EQ(router_.QaRead(k0, tid).status, QaReadReply::Status::kGranted);
  ASSERT_EQ(router_.IQDelta(tid, k1, {DeltaOp::Kind::kIncr, {}, 1}),
            QuarantineResult::kReject);
  EXPECT_EQ(child0_.LeaseCount(), 0u);
  EXPECT_EQ(router_.router_stats().reject_releases, 1u);
  router_.Abort(holder);
}

TEST_F(ShardedBackendTest, OwnQuarantinedKeyReadsAsMissNoLease) {
  std::string k0 = KeyOnShard(router_, 0);
  router_.Set(k0, "v");
  SessionId tid = router_.GenID();
  ASSERT_EQ(router_.QaReg(tid, k0), QuarantineResult::kGranted);
  // The session's own quarantine must be recognized through the router's
  // id translation: same virtual id => same child id on that shard.
  EXPECT_EQ(router_.IQget(k0, tid).status, GetReply::Status::kMissNoLease);
  router_.DaR(tid);
  EXPECT_FALSE(router_.Get(k0));
}

TEST_F(ShardedBackendTest, ReleaseKeyDropsOneLeaseAndKeepsTheRest) {
  std::string k0 = KeyOnShard(router_, 0);
  std::string k1 = KeyOnShard(router_, 1);
  router_.Set(k0, "10");
  SessionId tid = router_.GenID();
  ASSERT_EQ(router_.QaRead(k1, tid).status, QaReadReply::Status::kGranted);
  ASSERT_EQ(router_.IQDelta(tid, k0, {DeltaOp::Kind::kIncr, {}, 7}),
            QuarantineResult::kGranted);
  router_.ReleaseKey(tid, k1);
  EXPECT_EQ(child1_.LeaseCount(), 0u);
  // The shard-0 delta survives the release of the shard-1 lease.
  router_.Commit(tid);
  EXPECT_EQ(router_.Get(k0)->value, "17");
}

TEST_F(ShardedBackendTest, ReleaseKeyOnUntouchedShardIsANoOp) {
  SessionId tid = router_.GenID();
  router_.ReleaseKey(tid, KeyOnShard(router_, 1));  // never minted there
  EXPECT_EQ(router_.router_stats().shard_sessions, 0u);
}

TEST_F(ShardedBackendTest, AnonymousReadsDoNotMintSessions) {
  std::string k0 = KeyOnShard(router_, 0);
  router_.Set(k0, "v");
  EXPECT_EQ(router_.IQget(k0).status, GetReply::Status::kHit);
  EXPECT_EQ(router_.router_stats().shard_sessions, 0u);
}

TEST_F(ShardedBackendTest, ReadsMintNoChildSessionButSeeOwnQuarantine) {
  // A read of a session that holds nothing on the shard goes to the child
  // as session 0: a hit or an I grant mints no child id, and the session
  // needs no closing Abort.
  std::string k0 = KeyOnShard(router_, 0);
  router_.Set(k0, "v");
  SessionId reader = router_.GenID();
  EXPECT_EQ(router_.IQget(k0, reader).status, GetReply::Status::kHit);
  EXPECT_EQ(router_.IQget(KeyOnShard(router_, 0, "miss"), reader).status,
            GetReply::Status::kMissGrantedI);
  EXPECT_EQ(router_.router_stats().shard_sessions, 0u);
  router_.Abort(reader);
  EXPECT_EQ(router_.router_stats().fanout_aborts, 0u);
  EXPECT_EQ(child0_.Stats().aborts, 0u);
  // Once a session holds a lease on the shard, its reads there carry its
  // child id: the quarantining session sees its own pending delete.
  SessionId writer = router_.GenID();
  ASSERT_EQ(router_.QaReg(writer, k0), QuarantineResult::kGranted);
  EXPECT_EQ(router_.IQget(k0, writer).status, GetReply::Status::kMissNoLease);
  EXPECT_EQ(router_.router_stats().shard_sessions, 1u);
  router_.DaR(writer);
  EXPECT_EQ(child0_.Stats().commits, 1u);
}

TEST_F(ShardedBackendTest, StatsAggregateAcrossShardsWithBreakdown) {
  std::string k0 = KeyOnShard(router_, 0);
  std::string k1 = KeyOnShard(router_, 1);
  SessionId t0 = router_.GenID();
  ASSERT_EQ(router_.IQget(k0, t0).status, GetReply::Status::kMissGrantedI);
  router_.Commit(t0);
  SessionId t1 = router_.GenID();
  router_.Set(k1, "v");
  ASSERT_EQ(router_.QaRead(k1, t1).status, QaReadReply::Status::kGranted);
  router_.Abort(t1);
  IQServerStats total = router_.Stats();
  EXPECT_EQ(total.i_granted, 1u);      // from shard 0
  EXPECT_EQ(total.q_ref_granted, 1u);  // from shard 1
  std::string stats = router_.FormatStats();
  EXPECT_NE(stats.find("STAT shard_count 2"), std::string::npos);
  EXPECT_NE(stats.find("STAT shard0_endpoint cache-a"), std::string::npos);
  EXPECT_NE(stats.find("STAT shard1_endpoint cache-b"), std::string::npos);
  EXPECT_NE(stats.find("STAT i_leases_granted 1"), std::string::npos);
  EXPECT_NE(stats.find("STAT shard0_i_leases_granted 1"), std::string::npos);
  EXPECT_NE(stats.find("STAT shard1_q_ref_granted 1"), std::string::npos);
  EXPECT_NE(stats.find("STAT router_sessions 2"), std::string::npos);
}

TEST_F(ShardedBackendTest, SessionIdReuseAfterCommitMintsFreshChildIds) {
  // The upper stack reuses one SessionId across transactions (IQSession
  // keeps its id); after a fan-out Commit the router must start a clean
  // per-shard slate for the same virtual id.
  std::string k0 = KeyOnShard(router_, 0);
  router_.Set(k0, "1");
  SessionId tid = router_.GenID();
  ASSERT_EQ(router_.IQDelta(tid, k0, {DeltaOp::Kind::kIncr, {}, 1}),
            QuarantineResult::kGranted);
  router_.Commit(tid);
  ASSERT_EQ(router_.IQDelta(tid, k0, {DeltaOp::Kind::kIncr, {}, 1}),
            QuarantineResult::kGranted);
  router_.Commit(tid);
  EXPECT_EQ(router_.Get(k0)->value, "3");
  EXPECT_EQ(router_.router_stats().shard_sessions, 2u);  // minted twice
  EXPECT_EQ(child0_.Stats().commits, 2u);
}

}  // namespace
}  // namespace iq
