// QueryCache: application-transparent caching of SELECT results, in the
// spirit of the transparent CASQL middlewares the paper builds on
// (COSAR-CQN [17], SQLTrig [16]): the developer issues plain SQL and the
// middleware handles keys, caching, and consistency.
//
// Design: table-version sentinel keys, made correct by the IQ protocol.
//
//   - Every table has a sentinel key "qv:<table>" whose value is a version
//     tag. Readers fetch the sentinel (IQget), then look up the result
//     under "qc:<table>:<version>:<hash(sql,params)>".
//   - A write transaction quarantines (QaReg) the sentinel of every table
//     it touches *inside* the transaction and deletes it at commit (DaR).
//     The next reader misses the sentinel, takes an I lease on it, and
//     installs a fresh version tag (the database's last commit timestamp),
//     which retires the entire cached keyspace of that table at once.
//
// Why this is strongly consistent: the sentinel is just the invalidate
// technique applied to a version key, so all of Section 3's machinery
// carries over. A reader holding the pre-write version either hits old
// cached results (and serializes before the in-flight writer - the
// Figure 4 re-arrangement window) or recomputes from a pre-commit
// snapshot and installs into the *retired* keyspace, which no reader that
// begins after the writer's commit will ever consult. A reader that
// begins after the commit misses the sentinel and recomputes both the
// version and the result from post-commit data. The races of Figures 2/3
// cannot leak a stale value into a live keyspace.
//
// Granularity: table-level (one write retires every cached query on that
// table), like COSAR-CQN's query change notification. Finer granularity is
// the application-managed KeyUpdate path in casql.h.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "casql/casql.h"
#include "rdbms/sql.h"

namespace iq::casql {

class QueryCache {
 public:
  struct Stats {
    std::uint64_t result_hits = 0;
    std::uint64_t result_misses = 0;
    std::uint64_t version_refreshes = 0;  // sentinel recomputations
    std::uint64_t writes = 0;
  };

  QueryCache(sql::Database& db, KvsBackend& server);

  /// Execute a SELECT with read-through caching. Non-SELECT statements are
  /// executed uncached (but see Write() for invalidation-correct DML).
  sql::QueryResult Select(const std::string& sql,
                          const std::vector<sql::Value>& params = {});

  /// Run a write transaction; `tables` lists every table the body mutates
  /// (their cached queries are retired at commit). An IQ invalidate write
  /// session whose updates are the tables' sentinels: it restarts on a
  /// write-write conflict or a sentinel quarantine that is not in place.
  /// Returns true iff committed.
  bool Write(const std::vector<std::string>& tables,
             const std::function<bool(sql::Transaction&)>& body);

  Stats GetStats() const;

 private:
  static std::string SentinelKey(const std::string& table);
  static std::string ResultKey(const std::string& table,
                               const std::string& version,
                               const std::string& sql,
                               const std::vector<sql::Value>& params);

  /// Current version tag for `table`, resolving misses via an I lease.
  /// Returns empty on repeated contention (caller falls through to the
  /// database).
  std::string TableVersion(IQSession& session, const std::string& table);

  /// Invalidate technique, IQ consistency, quarantines inside the
  /// transaction; Select sessions come from its client.
  CasqlSystem system_;

  mutable std::mutex stats_mu_;
  Stats stats_;
};

/// Result-set codec (exposed for tests): length-prefixed, loss-free for
/// arbitrary bytes in text values.
std::string EncodeResultSet(const sql::QueryResult& result);
bool DecodeResultSet(const std::string& raw, sql::QueryResult* out);

}  // namespace iq::casql
