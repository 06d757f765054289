#include <gtest/gtest.h>

#include <atomic>

#include "core/fault_backend.h"
#include "core/iq_server.h"
#include "casql/query_cache.h"
#include "util/worker_group.h"

namespace iq::casql {
namespace {

using sql::QueryResult;
using sql::Row;
using sql::SchemaBuilder;
using sql::Transaction;
using sql::V;

// ---- result-set codec -----------------------------------------------------

TEST(ResultSetCodec, RoundTripsMixedTypes) {
  QueryResult r;
  r.columns = {"id", "name", "note"};
  r.rows.push_back({V(1), V("alice"), V()});
  r.rows.push_back({V(-42), V(""), V("x;y:z\nw")});  // hostile separators
  QueryResult decoded;
  ASSERT_TRUE(DecodeResultSet(EncodeResultSet(r), &decoded));
  EXPECT_EQ(decoded.columns, r.columns);
  EXPECT_EQ(decoded.rows, r.rows);
}

TEST(ResultSetCodec, RoundTripsEmptyResult) {
  QueryResult r;
  r.columns = {"a"};
  QueryResult decoded;
  ASSERT_TRUE(DecodeResultSet(EncodeResultSet(r), &decoded));
  EXPECT_TRUE(decoded.rows.empty());
  EXPECT_EQ(decoded.columns, r.columns);
}

TEST(ResultSetCodec, RejectsGarbage) {
  QueryResult out;
  EXPECT_FALSE(DecodeResultSet("", &out));
  EXPECT_FALSE(DecodeResultSet("bogus", &out));
  EXPECT_FALSE(DecodeResultSet("R1,1\nC1:a;\nI5", &out));       // missing ; \n
  EXPECT_FALSE(DecodeResultSet("R2,1\nC1:a;\nI5;\n", &out));    // short rows
  QueryResult ok;
  ok.columns = {"a"};
  ok.rows.push_back({V(1)});
  std::string enc = EncodeResultSet(ok);
  EXPECT_FALSE(DecodeResultSet(enc + "trailing", &out));
}

// ---- the cache ---------------------------------------------------------------

class QueryCacheTest : public ::testing::Test {
 protected:
  QueryCacheTest() : cache_(db_, server_) {
    db_.CreateTable(SchemaBuilder("Users")
                        .AddInt("id")
                        .AddText("name")
                        .AddInt("score")
                        .PrimaryKey({"id"})
                        .Build());
    db_.CreateTable(SchemaBuilder("Items")
                        .AddInt("id")
                        .AddInt("owner")
                        .PrimaryKey({"id"})
                        .Build());
    auto txn = db_.Begin();
    for (int i = 0; i < 5; ++i) {
      txn->Insert("Users", {V(i), V("u" + std::to_string(i)), V(i * 10)});
      txn->Insert("Items", {V(i), V(i % 2)});
    }
    txn->Commit();
  }

  sql::Database db_;
  IQServer server_;
  QueryCache cache_;
};

TEST_F(QueryCacheTest, FirstSelectMissesSecondHits) {
  auto r1 = cache_.Select("SELECT name FROM Users WHERE id = ?", {V(2)});
  ASSERT_EQ(r1.rows.size(), 1u);
  EXPECT_EQ(r1.rows[0][0], V("u2"));
  auto r2 = cache_.Select("SELECT name FROM Users WHERE id = ?", {V(2)});
  EXPECT_EQ(r2.rows, r1.rows);
  auto stats = cache_.GetStats();
  EXPECT_EQ(stats.result_hits, 1u);
  EXPECT_EQ(stats.result_misses, 1u);
}

TEST_F(QueryCacheTest, DifferentParamsAreDifferentEntries) {
  cache_.Select("SELECT name FROM Users WHERE id = ?", {V(1)});
  auto r = cache_.Select("SELECT name FROM Users WHERE id = ?", {V(3)});
  EXPECT_EQ(r.rows[0][0], V("u3"));
  EXPECT_EQ(cache_.GetStats().result_misses, 2u);
}

TEST_F(QueryCacheTest, WriteRetiresCachedQueries) {
  auto before = cache_.Select("SELECT score FROM Users WHERE id = ?", {V(1)});
  EXPECT_EQ(before.rows[0][0], V(10));
  ASSERT_TRUE(cache_.Write({"Users"}, [](Transaction& txn) {
    return sql::Query(txn, "UPDATE Users SET score = 99 WHERE id = 1").ok();
  }));
  auto after = cache_.Select("SELECT score FROM Users WHERE id = ?", {V(1)});
  EXPECT_EQ(after.rows[0][0], V(99));
}

TEST_F(QueryCacheTest, WriteRetiresWholeTableKeyspace) {
  cache_.Select("SELECT name FROM Users WHERE id = ?", {V(0)});
  cache_.Select("SELECT name FROM Users WHERE id = ?", {V(1)});
  cache_.Select("SELECT * FROM Users WHERE score >= 0");
  cache_.Write({"Users"}, [](Transaction& txn) {
    return sql::Query(txn, "UPDATE Users SET name = 'renamed' WHERE id = 0").ok();
  });
  // Every Users query recomputes (misses), including unrelated ones.
  auto before_misses = cache_.GetStats().result_misses;
  cache_.Select("SELECT name FROM Users WHERE id = ?", {V(1)});
  EXPECT_EQ(cache_.GetStats().result_misses, before_misses + 1);
}

TEST_F(QueryCacheTest, OtherTablesUnaffectedByWrite) {
  cache_.Select("SELECT * FROM Items WHERE owner = ?", {V(0)});
  cache_.Write({"Users"}, [](Transaction& txn) {
    return sql::Query(txn, "UPDATE Users SET score = 1 WHERE id = 1").ok();
  });
  auto before_hits = cache_.GetStats().result_hits;
  cache_.Select("SELECT * FROM Items WHERE owner = ?", {V(0)});
  EXPECT_EQ(cache_.GetStats().result_hits, before_hits + 1);
}

TEST_F(QueryCacheTest, FailedWriteRollsBackAndKeepsCache) {
  cache_.Select("SELECT score FROM Users WHERE id = ?", {V(1)});
  EXPECT_FALSE(cache_.Write({"Users"}, [](Transaction& txn) {
    sql::Query(txn, "UPDATE Users SET score = 123 WHERE id = 1");
    return false;  // business-rule abort
  }));
  auto r = cache_.Select("SELECT score FROM Users WHERE id = ?", {V(1)});
  EXPECT_EQ(r.rows[0][0], V(10));  // neither store changed
  EXPECT_EQ(cache_.GetStats().result_hits, 1u);  // cache not retired
}

TEST_F(QueryCacheTest, WriteWhoseSentinelQuarantineFailsLeavesNoStaleRows) {
  // A sentinel quarantine lost to a transport error is not in place, so the
  // write must not commit over it: committing would leave the cached row
  // (and the sentinel naming its keyspace) live over the updated database.
  FaultBackend faulty(server_);
  QueryCache cache(db_, faulty);
  const std::string select = "SELECT score FROM Users WHERE id = ?";
  EXPECT_EQ(cache.Select(select, {V(1)}).rows[0][0], V(10));
  EXPECT_EQ(cache.Select(select, {V(1)}).rows[0][0], V(10));  // cached
  faulty.FailNext(FaultBackend::Verb::kQaReg);
  EXPECT_TRUE(cache.Write({"Users"}, [](Transaction& txn) {
    return sql::Query(txn, "UPDATE Users SET score = 99 WHERE id = 1").ok();
  }));
  EXPECT_EQ(faulty.faults_injected(), 1u);
  auto txn = db_.Begin();
  auto row = txn->SelectByPk("Users", {V(1)});
  txn->Rollback();
  ASSERT_TRUE(row);
  EXPECT_EQ((*row)[2], V(99));
  EXPECT_EQ(cache.Select(select, {V(1)}).rows[0][0], (*row)[2]);
}

TEST_F(QueryCacheTest, NonSelectStatementsExecuteUncached) {
  auto r = cache_.Select("UPDATE Users SET score = 5 WHERE id = 4");
  EXPECT_TRUE(r.ok());
  auto check = cache_.Select("SELECT score FROM Users WHERE id = ?", {V(4)});
  EXPECT_EQ(check.rows[0][0], V(5));
}

TEST_F(QueryCacheTest, MultiTableWriteRetiresAll) {
  cache_.Select("SELECT name FROM Users WHERE id = ?", {V(0)});
  cache_.Select("SELECT * FROM Items WHERE owner = ?", {V(0)});
  cache_.Write({"Users", "Items"}, [](Transaction& txn) {
    return sql::Query(txn, "UPDATE Users SET score = 7 WHERE id = 0").ok() &&
           sql::Query(txn, "UPDATE Items SET owner = 3 WHERE id = 0").ok();
  });
  auto before_misses = cache_.GetStats().result_misses;
  cache_.Select("SELECT name FROM Users WHERE id = ?", {V(0)});
  cache_.Select("SELECT * FROM Items WHERE owner = ?", {V(0)});
  EXPECT_EQ(cache_.GetStats().result_misses, before_misses + 2);
}

TEST_F(QueryCacheTest, ConcurrentReadersAndWritersNeverServeStaleRows) {
  // Writers keep bumping one user's score through the cache's Write();
  // readers Select it through the cache. Every observed score must be
  // consistent with the interval check: here simplified to "monotonically
  // non-decreasing", since scores only grow.
  std::atomic<bool> failed{false};
  WorkerGroup group;
  group.Start(4, [&](int id, const std::atomic<bool>&) {
    if (id == 0) {
      for (int i = 0; i < 50; ++i) {
        cache_.Write({"Users"}, [](Transaction& txn) {
          return sql::Query(txn,
                            "UPDATE Users SET score = score + 1 WHERE id = 2")
              .ok();
        });
      }
    } else {
      std::int64_t last = -1;
      for (int i = 0; i < 100; ++i) {
        auto r = cache_.Select("SELECT score FROM Users WHERE id = ?", {V(2)});
        if (r.rows.size() != 1) {
          failed.store(true);
          continue;
        }
        std::int64_t score = *sql::AsInt(r.rows[0][0]);
        if (score < last) failed.store(true);  // went backwards: stale
        last = score;
      }
    }
  });
  group.StopAndJoin();
  EXPECT_FALSE(failed.load());
  // Final convergence.
  auto final_read = cache_.Select("SELECT score FROM Users WHERE id = ?", {V(2)});
  EXPECT_EQ(final_read.rows[0][0], V(20 + 50));
}

TEST_F(QueryCacheTest, VersionRefreshCountsTracked) {
  cache_.Select("SELECT * FROM Users WHERE id = ?", {V(0)});
  EXPECT_EQ(cache_.GetStats().version_refreshes, 1u);  // first sentinel fill
  cache_.Write({"Users"}, [](Transaction& txn) {
    return sql::Query(txn, "UPDATE Users SET score = 2 WHERE id = 2").ok();
  });
  cache_.Select("SELECT * FROM Users WHERE id = ?", {V(0)});
  EXPECT_EQ(cache_.GetStats().version_refreshes, 2u);  // retired + refilled
}

}  // namespace
}  // namespace iq::casql
