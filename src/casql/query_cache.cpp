#include "casql/query_cache.h"

#include <charconv>

namespace iq::casql {
namespace {

/// FNV-1a over the statement text and encoded parameters.
std::uint64_t HashQuery(const std::string& sql,
                        const std::vector<sql::Value>& params) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const char* data, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h = (h ^ static_cast<unsigned char>(data[i])) * 0x100000001b3ULL;
    }
  };
  mix(sql.data(), sql.size());
  for (const auto& p : params) {
    std::string s = sql::ToString(p);
    mix("|", 1);
    mix(s.data(), s.size());
  }
  return h;
}

void AppendValue(std::string& out, const sql::Value& v) {
  if (sql::IsNull(v)) {
    out += "N;";
  } else if (auto i = sql::AsInt(v)) {
    out += "I" + std::to_string(*i) + ";";
  } else {
    const std::string& s = std::get<std::string>(v);
    out += "S" + std::to_string(s.size()) + ":" + s + ";";
  }
}

/// Parse one value at `pos`; advances pos past the trailing ';'.
bool ParseValue(const std::string& raw, std::size_t& pos, sql::Value* out) {
  if (pos >= raw.size()) return false;
  char tag = raw[pos++];
  if (tag == 'N') {
    if (pos >= raw.size() || raw[pos] != ';') return false;
    ++pos;
    *out = sql::Null{};
    return true;
  }
  if (tag == 'I') {
    std::size_t end = raw.find(';', pos);
    if (end == std::string::npos) return false;
    std::int64_t v = 0;
    auto [p, ec] = std::from_chars(raw.data() + pos, raw.data() + end, v);
    if (ec != std::errc{} || p != raw.data() + end) return false;
    pos = end + 1;
    *out = v;
    return true;
  }
  if (tag == 'S') {
    std::size_t colon = raw.find(':', pos);
    if (colon == std::string::npos) return false;
    std::size_t len = 0;
    auto [p, ec] = std::from_chars(raw.data() + pos, raw.data() + colon, len);
    if (ec != std::errc{} || p != raw.data() + colon) return false;
    pos = colon + 1;
    if (pos + len >= raw.size() + 1 || pos + len > raw.size()) return false;
    std::string s = raw.substr(pos, len);
    pos += len;
    if (pos >= raw.size() || raw[pos] != ';') return false;
    ++pos;
    *out = std::move(s);
    return true;
  }
  return false;
}

}  // namespace

std::string EncodeResultSet(const sql::QueryResult& result) {
  std::string out = "R" + std::to_string(result.rows.size()) + "," +
                    std::to_string(result.columns.size()) + "\n";
  for (const auto& c : result.columns) {
    out += "C" + std::to_string(c.size()) + ":" + c + ";";
  }
  out += "\n";
  for (const auto& row : result.rows) {
    for (const auto& v : row) AppendValue(out, v);
    out += "\n";
  }
  return out;
}

bool DecodeResultSet(const std::string& raw, sql::QueryResult* out) {
  out->rows.clear();
  out->columns.clear();
  out->status = sql::TxnResult::kOk;
  std::size_t pos = 0;
  if (pos >= raw.size() || raw[pos] != 'R') return false;
  ++pos;
  std::size_t comma = raw.find(',', pos);
  std::size_t eol = raw.find('\n', pos);
  if (comma == std::string::npos || eol == std::string::npos || comma > eol) {
    return false;
  }
  std::size_t n_rows = 0, n_cols = 0;
  std::from_chars(raw.data() + pos, raw.data() + comma, n_rows);
  std::from_chars(raw.data() + comma + 1, raw.data() + eol, n_cols);
  pos = eol + 1;
  for (std::size_t c = 0; c < n_cols; ++c) {
    if (pos >= raw.size() || raw[pos] != 'C') return false;
    ++pos;
    std::size_t colon = raw.find(':', pos);
    if (colon == std::string::npos) return false;
    std::size_t len = 0;
    std::from_chars(raw.data() + pos, raw.data() + colon, len);
    pos = colon + 1;
    if (pos + len > raw.size()) return false;
    out->columns.push_back(raw.substr(pos, len));
    pos += len;
    if (pos >= raw.size() || raw[pos] != ';') return false;
    ++pos;
  }
  if (pos >= raw.size() || raw[pos] != '\n') return false;
  ++pos;
  for (std::size_t r = 0; r < n_rows; ++r) {
    sql::Row row;
    row.reserve(n_cols);
    for (std::size_t c = 0; c < n_cols; ++c) {
      sql::Value v;
      if (!ParseValue(raw, pos, &v)) return false;
      row.push_back(std::move(v));
    }
    if (pos >= raw.size() || raw[pos] != '\n') return false;
    ++pos;
    out->rows.push_back(std::move(row));
  }
  return pos == raw.size();
}

namespace {

CasqlConfig QueryCacheConfig() {
  CasqlConfig cfg;
  cfg.technique = Technique::kInvalidate;
  cfg.consistency = Consistency::kIQ;
  cfg.placement = LeasePlacement::kInsideTxn;
  cfg.max_session_restarts = 10;
  return cfg;
}

}  // namespace

QueryCache::QueryCache(sql::Database& db, KvsBackend& server)
    : system_(db, server, QueryCacheConfig()) {}

std::string QueryCache::SentinelKey(const std::string& table) {
  return "qv:" + table;
}

std::string QueryCache::ResultKey(const std::string& table,
                                  const std::string& version,
                                  const std::string& sql,
                                  const std::vector<sql::Value>& params) {
  return "qc:" + table + ":" + version + ":" +
         std::to_string(HashQuery(sql, params));
}

std::string QueryCache::TableVersion(IQSession& session,
                                     const std::string& table) {
  ClientGetResult got = session.Get(SentinelKey(table));
  switch (got.status) {
    case ClientGetResult::Status::kHit:
      return got.value;
    case ClientGetResult::Status::kMissRecompute: {
      // New version tag: the last commit timestamp is monotonic, so a
      // retired keyspace can never be resurrected.
      std::string version =
          "v" + std::to_string(system_.db().LastCommitTs());
      session.Put(SentinelKey(table), version);
      {
        std::lock_guard lock(stats_mu_);
        ++stats_.version_refreshes;
      }
      return version;
    }
    default:
      return {};  // quarantined or contended: fall through to the database
  }
}

sql::QueryResult QueryCache::Select(const std::string& sql,
                                    const std::vector<sql::Value>& params) {
  sql::Statement stmt = sql::Prepare(sql);
  if (stmt.kind != sql::StatementKind::kSelect) {
    auto txn = system_.db().Begin();
    auto r = sql::Execute(*txn, stmt, params);
    txn->Commit();
    return r;
  }

  auto session = system_.client().NewSession();
  std::string version = TableVersion(*session, stmt.table);
  std::string key;
  if (!version.empty()) {
    key = ResultKey(stmt.table, version, sql, params);
    ClientGetResult got = session->Get(key);
    if (got.status == ClientGetResult::Status::kHit) {
      sql::QueryResult cached;
      if (DecodeResultSet(got.value, &cached)) {
        std::lock_guard lock(stats_mu_);
        ++stats_.result_hits;
        return cached;
      }
      // Corrupt entry: fall through and recompute (cannot happen unless
      // someone writes the key out-of-band).
      got.status = ClientGetResult::Status::kTimeout;
    }
    if (got.status != ClientGetResult::Status::kMissRecompute) {
      key.clear();  // contended: compute without installing
    }
  }

  auto txn = system_.db().Begin();
  sql::QueryResult result = sql::Execute(*txn, stmt, params);
  txn->Rollback();
  if (!key.empty() && result.ok()) {
    session->Put(key, EncodeResultSet(result));
  }
  {
    std::lock_guard lock(stats_mu_);
    ++stats_.result_misses;
  }
  return result;
}

bool QueryCache::Write(const std::vector<std::string>& tables,
                       const std::function<bool(sql::Transaction&)>& body) {
  // Quarantine every touched table's sentinel inside the transaction
  // (voiding racing readers' I leases on it) and delete it at commit,
  // retiring those tables' keyspaces.
  WriteSpec spec;
  spec.body = body;
  for (const auto& table : tables) {
    KeyUpdate u;
    u.key = SentinelKey(table);
    u.invalidate = true;
    spec.updates.push_back(std::move(u));
  }
  if (!system_.Connect()->Write(spec).committed) return false;
  std::lock_guard lock(stats_mu_);
  ++stats_.writes;
  return true;
}

QueryCache::Stats QueryCache::GetStats() const {
  std::lock_guard lock(stats_mu_);
  return stats_;
}

}  // namespace iq::casql
