// Tests for the offline execution-history checker (src/check): op-log
// format round trips, TRACE_INFO completeness parsing, one test per
// anomaly class over synthetic histories, the deterministic multi-source
// merge, the TRACE_INFO wire round trip, and — the teeth — mutation tests
// that re-introduce two historical consistency bugs on a real IQServer and
// assert the checker flags them (and certifies the fixed server).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/checker.h"
#include "check/oplog.h"
#include "core/iq_server.h"
#include "core/sharded_backend.h"
#include "net/remote_backend.h"
#include "util/clock.h"
#include "util/trace_ring.h"

namespace iq {
namespace {

const std::uint64_t kKey = TraceKeyHash("k");

TraceEvent Ev(LeaseTraceKind kind, std::uint64_t session, Nanos at,
              std::uint64_t seq, std::uint64_t key_hash = kKey) {
  TraceEvent e;
  e.kind = kind;
  e.session = session;
  e.key_hash = key_hash;
  e.at = at;
  e.seq = seq;
  e.shard = 0;
  return e;
}

/// A complete single-server source: TRACE_INFO present, nothing dropped.
check::TraceSource Src(std::vector<TraceEvent> events) {
  check::TraceSource s;
  s.name = "test";
  s.info.recorded = events.size();
  s.info.capacity = 1024;
  s.events = std::move(events);
  s.has_info = true;
  return s;
}

check::OpRecord Op(check::OpKind kind, std::uint64_t session,
                   std::uint64_t key_hash,
                   std::uint64_t value_hash = check::kNoValueHash) {
  check::OpRecord r;
  r.at = 0;
  r.session = session;
  r.kind = kind;
  r.key_hash = key_hash;
  r.value_hash = value_hash;
  return r;
}

// ---- op-log format ------------------------------------------------------------

TEST(OpLogTest, KindNamesRoundTrip) {
  for (std::size_t i = 0; i < check::kOpKindCount; ++i) {
    auto kind = static_cast<check::OpKind>(i);
    auto parsed = check::ParseOpKind(check::ToString(kind));
    ASSERT_TRUE(parsed) << check::ToString(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(check::ParseOpKind("bogus"));
}

TEST(OpLogTest, ValueHashNeverCollidesWithNoValue) {
  EXPECT_NE(check::OpValueHash("anything"), check::kNoValueHash);
  EXPECT_NE(check::OpValueHash(std::string_view("")), check::kNoValueHash);
  EXPECT_EQ(check::OpValueHash(std::optional<std::string>()),
            check::kNoValueHash);
  EXPECT_EQ(check::OpValueHash(std::optional<std::string>("v")),
            check::OpValueHash("v"));
}

TEST(OpLogTest, DumpParseRoundTrip) {
  ManualClock clock;
  check::OpLog log(&clock);
  clock.Advance(7);
  log.Record(1, check::OpKind::kSeed, kKey, check::OpValueHash("v0"));
  clock.Advance(1);
  log.Record(2, check::OpKind::kReadHit, kKey, check::OpValueHash("v0"));
  log.Record(2, check::OpKind::kCommit, kKey);
  EXPECT_EQ(log.size(), 3u);

  std::vector<check::OpRecord> out;
  ASSERT_TRUE(check::ParseOpLog(log.Dump(), &out));
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].at, 7);
  EXPECT_EQ(out[0].session, 1u);
  EXPECT_EQ(out[0].kind, check::OpKind::kSeed);
  EXPECT_EQ(out[0].key_hash, kKey);
  EXPECT_EQ(out[0].value_hash, check::OpValueHash("v0"));
  EXPECT_EQ(out[1].at, 8);
  EXPECT_EQ(out[2].kind, check::OpKind::kCommit);
  EXPECT_EQ(out[2].value_hash, check::kNoValueHash);
}

TEST(OpLogTest, ParseIsAllOrNothing) {
  std::vector<check::OpRecord> out;
  out.push_back(Op(check::OpKind::kSeed, 0, 1));
  // Malformed OP line: too few tokens.
  EXPECT_FALSE(check::ParseOpLog("OP 1 2 seed 3\r\n", &out));
  EXPECT_EQ(out.size(), 1u);  // untouched
  // Unknown kind.
  EXPECT_FALSE(check::ParseOpLog("OP 1 2 nosuchkind 3 4\r\n", &out));
  EXPECT_EQ(out.size(), 1u);
}

TEST(OpLogTest, TruncatedDumpFailsTheCountGuard) {
  ManualClock clock;
  check::OpLog log(&clock);
  log.Record(1, check::OpKind::kWrite, kKey, check::OpValueHash("a"));
  log.Record(1, check::OpKind::kCommit, kKey);
  std::string dump = log.Dump();
  // Chop the last OP line: OPLOG_INFO still declares 2 records.
  std::string truncated = dump.substr(0, dump.rfind("OP "));
  std::vector<check::OpRecord> out;
  EXPECT_FALSE(check::ParseOpLog(truncated, &out));
  EXPECT_TRUE(out.empty());
  // The intact dump parses.
  EXPECT_TRUE(check::ParseOpLog(dump, &out));
  EXPECT_EQ(out.size(), 2u);
}

// ---- TRACE_INFO parsing -------------------------------------------------------

TEST(TraceInfoTest, HeaderRoundTrip) {
  TraceInfo info;
  info.recorded = 12;
  info.dropped = 3;
  info.capacity = 64;
  std::string text = FormatTraceInfo(info);
  text += FormatTraceEvents({Ev(LeaseTraceKind::kQRefGrant, 1, 5, 0)});
  std::vector<TraceEvent> events;
  TraceInfo parsed;
  bool has_info = false;
  ASSERT_TRUE(ParseTraceEvents(text, &events, &parsed, &has_info));
  EXPECT_TRUE(has_info);
  EXPECT_EQ(parsed.recorded, 12u);
  EXPECT_EQ(parsed.dropped, 3u);
  EXPECT_EQ(parsed.capacity, 64u);
  ASSERT_EQ(events.size(), 1u);
}

TEST(TraceInfoTest, MultipleHeadersSum) {
  std::string text =
      "TRACE_INFO 5 1 64\r\nTRACE_INFO 7 0 64\r\nEND\r\n";
  std::vector<TraceEvent> events;
  TraceInfo info;
  bool has_info = false;
  ASSERT_TRUE(ParseTraceEvents(text, &events, &info, &has_info));
  EXPECT_TRUE(has_info);
  EXPECT_EQ(info.recorded, 12u);
  EXPECT_EQ(info.dropped, 1u);
  EXPECT_EQ(info.capacity, 128u);
}

TEST(TraceInfoTest, HeaderlessTraceReportsNoInfo) {
  std::vector<TraceEvent> events;
  TraceInfo info;
  bool has_info = true;
  ASSERT_TRUE(ParseTraceEvents("END\r\n", &events, &info, &has_info));
  EXPECT_FALSE(has_info);
}

TEST(TraceInfoTest, ParseIsAllOrNothing) {
  std::vector<TraceEvent> out;
  out.push_back(Ev(LeaseTraceKind::kCommit, 9, 9, 9));
  // A good TRACE line followed by a malformed TRACE_INFO: nothing published.
  std::string text = FormatTraceEvents({Ev(LeaseTraceKind::kIGrant, 1, 1, 0)});
  text += "TRACE_INFO 5 1\r\n";  // missing capacity
  EXPECT_FALSE(ParseTraceEvents(text, &out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].session, 9u);  // untouched
}

// ---- checker: anomaly classes -------------------------------------------------

TEST(CheckerTest, CleanHistoryCertifies) {
  auto src = Src({Ev(LeaseTraceKind::kQRefGrant, 1, 1, 0),
                  Ev(LeaseTraceKind::kCommit, 1, 2, 1)});
  std::vector<check::OpRecord> ops = {
      Op(check::OpKind::kSeed, 0, kKey, check::OpValueHash("v0")),
      Op(check::OpKind::kWrite, 1, kKey, check::OpValueHash("v1")),
      Op(check::OpKind::kCommit, 1, kKey),
      Op(check::OpKind::kReadHit, 2, kKey, check::OpValueHash("v1")),
  };
  check::CheckReport report = check::CheckHistory({src}, ops);
  EXPECT_TRUE(report.certified()) << report.Summary();
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(report.complete);
  EXPECT_TRUE(report.lifecycle_checked);
  EXPECT_EQ(report.grants, 1u);
  EXPECT_EQ(report.ends, 1u);
  EXPECT_EQ(report.reads_checked, 1u);
  EXPECT_EQ(report.open_leases, 0u);
}

TEST(CheckerTest, MissingHeaderRefusesCertification) {
  auto src = Src({Ev(LeaseTraceKind::kQRefGrant, 1, 1, 0),
                  Ev(LeaseTraceKind::kCommit, 1, 2, 1)});
  src.has_info = false;
  check::CheckReport report = check::CheckHistory({src}, {});
  EXPECT_FALSE(report.complete);
  EXPECT_FALSE(report.certified());
  EXPECT_FALSE(report.lifecycle_checked);  // unsound on unknown completeness
  EXPECT_EQ(report.counts[static_cast<std::size_t>(check::AnomalyClass::kDrops)],
            1u);
}

TEST(CheckerTest, DroppedEventsRefuseCertificationEvenWhenAllowed) {
  auto src = Src({Ev(LeaseTraceKind::kCommit, 1, 2, 6)});
  src.info.recorded = 7;
  src.info.dropped = 6;
  check::CheckerOptions options;
  options.allow_drops = true;
  check::CheckReport report = check::CheckHistory({src}, {}, options);
  // allow_drops keeps the counters clean but cannot make the run certified.
  EXPECT_TRUE(report.clean());
  EXPECT_FALSE(report.complete);
  EXPECT_FALSE(report.certified());
  EXPECT_FALSE(report.lifecycle_checked);

  check::CheckReport strict = check::CheckHistory({src}, {});
  EXPECT_FALSE(strict.clean());
  EXPECT_EQ(strict.counts[static_cast<std::size_t>(check::AnomalyClass::kDrops)],
            1u);
}

TEST(CheckerTest, ShortDrainRefusesCertification) {
  auto src = Src({Ev(LeaseTraceKind::kQRefGrant, 1, 1, 0)});
  src.info.recorded = 5;  // server recorded more than we drained
  check::CheckReport report = check::CheckHistory({src}, {});
  EXPECT_FALSE(report.complete);
  EXPECT_EQ(report.counts[static_cast<std::size_t>(check::AnomalyClass::kDrops)],
            1u);
}

TEST(CheckerTest, OverlappingQGrantsAreFlagged) {
  auto src = Src({Ev(LeaseTraceKind::kQRefGrant, 1, 1, 0),
                  Ev(LeaseTraceKind::kQRefGrant, 2, 2, 1),
                  Ev(LeaseTraceKind::kCommit, 2, 3, 2)});
  check::CheckReport report = check::CheckHistory({src}, {});
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(
      report.counts[static_cast<std::size_t>(check::AnomalyClass::kOverlapQ)],
      1u);
}

TEST(CheckerTest, GrantOverLiveLeaseIsProtocolAnomaly) {
  auto src = Src({Ev(LeaseTraceKind::kQRefGrant, 1, 1, 0),
                  Ev(LeaseTraceKind::kIGrant, 2, 2, 1)});
  check::CheckReport report = check::CheckHistory({src}, {});
  EXPECT_GE(
      report.counts[static_cast<std::size_t>(check::AnomalyClass::kProtocol)],
      1u);
}

TEST(CheckerTest, EndWithoutGrantIsFlagged) {
  auto src = Src({Ev(LeaseTraceKind::kCommit, 1, 1, 0)});
  check::CheckReport report = check::CheckHistory({src}, {});
  EXPECT_EQ(report.counts[static_cast<std::size_t>(
                check::AnomalyClass::kUnmatchedEnd)],
            1u);
  // Commit of session B while A holds the lease is also unmatched.
  auto src2 = Src({Ev(LeaseTraceKind::kQRefGrant, 1, 1, 0),
                   Ev(LeaseTraceKind::kCommit, 2, 2, 1),
                   Ev(LeaseTraceKind::kCommit, 1, 3, 2)});
  check::CheckReport report2 = check::CheckHistory({src2}, {});
  EXPECT_EQ(report2.counts[static_cast<std::size_t>(
                check::AnomalyClass::kUnmatchedEnd)],
            1u);
}

TEST(CheckerTest, SharedInvalidateHoldersEachCloseOnce) {
  auto src = Src({Ev(LeaseTraceKind::kQInvGrant, 1, 1, 0),
                  Ev(LeaseTraceKind::kQInvGrant, 2, 2, 1),  // shared, legal
                  Ev(LeaseTraceKind::kCommit, 1, 3, 2),
                  Ev(LeaseTraceKind::kCommit, 2, 4, 3)});
  check::CheckReport report = check::CheckHistory({src}, {});
  EXPECT_TRUE(report.certified()) << report.Summary();

  // Whole-entry expiry is traced once with session 0.
  auto src2 = Src({Ev(LeaseTraceKind::kQInvGrant, 1, 1, 0),
                   Ev(LeaseTraceKind::kQInvGrant, 2, 2, 1),
                   Ev(LeaseTraceKind::kExpire, 0, 3, 2)});
  EXPECT_TRUE(check::CheckHistory({src2}, {}).certified());
}

TEST(CheckerTest, UnjustifiedReadIsFlagged) {
  std::vector<check::OpRecord> ops = {
      Op(check::OpKind::kSeed, 0, kKey, check::OpValueHash("v0")),
      Op(check::OpKind::kReadHit, 1, kKey, check::OpValueHash("phantom")),
  };
  check::CheckReport report = check::CheckHistory({}, ops);
  EXPECT_EQ(report.counts[static_cast<std::size_t>(
                check::AnomalyClass::kUnjustifiedRead)],
            1u);
  // Ground-truth db reads justify later hits (recompute-on-miss).
  std::vector<check::OpRecord> ok = {
      Op(check::OpKind::kReadDb, 1, kKey, check::OpValueHash("fresh")),
      Op(check::OpKind::kReadHit, 2, kKey, check::OpValueHash("fresh")),
  };
  EXPECT_TRUE(check::CheckHistory({}, ok).certified());
}

TEST(CheckerTest, DeltaMakesKeyHashExempt) {
  std::vector<check::OpRecord> ops = {
      Op(check::OpKind::kSeed, 0, kKey, check::OpValueHash("1")),
      Op(check::OpKind::kDelta, 1, kKey),
      Op(check::OpKind::kCommit, 1, kKey),
      // "2" was never logged as an intent — the delta result is unknowable
      // client-side, so this read must not be flagged.
      Op(check::OpKind::kReadHit, 2, kKey, check::OpValueHash("2")),
  };
  check::CheckReport report = check::CheckHistory({}, ops);
  EXPECT_TRUE(report.certified()) << report.Summary();
  EXPECT_EQ(report.reads_exempt, 1u);
  EXPECT_EQ(report.reads_checked, 0u);
}

TEST(CheckerTest, NonMonotonicSessionIsFlagged) {
  std::vector<check::OpRecord> ops = {
      Op(check::OpKind::kSeed, 0, kKey, check::OpValueHash("1")),
      Op(check::OpKind::kReadHit, 1, kKey, check::OpValueHash("1")),
      Op(check::OpKind::kDelta, 1, kKey),
      // Re-read under the session's own Q lease observed the pre-delta
      // value again: the own-update visibility bug.
      Op(check::OpKind::kReadOwn, 1, kKey, check::OpValueHash("1")),
      Op(check::OpKind::kCommit, 1, kKey),
  };
  check::CheckReport report = check::CheckHistory({}, ops);
  EXPECT_EQ(report.counts[static_cast<std::size_t>(
                check::AnomalyClass::kNonMonotonicSession)],
            1u);

  // The healthy shape: the re-read observes a NEW value.
  std::vector<check::OpRecord> ok = {
      Op(check::OpKind::kSeed, 0, kKey, check::OpValueHash("1")),
      Op(check::OpKind::kReadHit, 1, kKey, check::OpValueHash("1")),
      Op(check::OpKind::kDelta, 1, kKey),
      Op(check::OpKind::kReadOwn, 1, kKey, check::OpValueHash("2")),
      Op(check::OpKind::kCommit, 1, kKey),
  };
  EXPECT_TRUE(check::CheckHistory({}, ok).certified());
}

TEST(CheckerTest, CommitResetsReusedSessionIds) {
  // Server session ids are reused across logical sessions in a connection:
  // an observation made by the PREVIOUS logical session must not poison
  // the own-update check of the next one.
  std::vector<check::OpRecord> ops = {
      Op(check::OpKind::kSeed, 0, kKey, check::OpValueHash("1")),
      Op(check::OpKind::kReadHit, 1, kKey, check::OpValueHash("1")),
      Op(check::OpKind::kCommit, 1, kKey),
      // Same id, new logical session; it never observed "1" itself.
      Op(check::OpKind::kDelta, 1, kKey),
      Op(check::OpKind::kReadOwn, 1, kKey, check::OpValueHash("1")),
      Op(check::OpKind::kCommit, 1, kKey),
  };
  EXPECT_TRUE(check::CheckHistory({}, ops).certified());
}

TEST(CheckerTest, RequireQuiescentFlagsOpenLeases) {
  auto src = Src({Ev(LeaseTraceKind::kQRefGrant, 1, 1, 0)});
  check::CheckReport lax = check::CheckHistory({src}, {});
  EXPECT_EQ(lax.open_leases, 1u);
  EXPECT_TRUE(lax.certified());  // open leases are legal mid-run

  check::CheckerOptions options;
  options.require_quiescent = true;
  check::CheckReport strict = check::CheckHistory({src}, {}, options);
  EXPECT_EQ(
      strict.counts[static_cast<std::size_t>(check::AnomalyClass::kProtocol)],
      1u);
}

TEST(CheckerTest, MaxAnomaliesBoundsRecordsNotCounts) {
  std::vector<check::OpRecord> ops;
  ops.push_back(Op(check::OpKind::kSeed, 0, kKey, check::OpValueHash("v")));
  for (int i = 0; i < 50; ++i) {
    ops.push_back(Op(check::OpKind::kReadHit, 1, kKey,
                     check::OpValueHash("phantom" + std::to_string(i))));
  }
  check::CheckerOptions options;
  options.max_anomalies = 5;
  check::CheckReport report = check::CheckHistory({}, ops, options);
  EXPECT_EQ(report.anomalies.size(), 5u);
  EXPECT_EQ(report.total_anomalies(), 50u);
}

// ---- deterministic multi-source merge -----------------------------------------

// Two sources with EQUAL timestamps (ManualClock) must merge in a stable,
// deterministic order: by source index, preserving each ring's seq order.
TEST(CheckerTest, EqualTimestampMergeIsDeterministic) {
  const std::uint64_t ka = TraceKeyHash("a");
  const std::uint64_t kb = TraceKeyHash("b");
  auto src_a = Src({Ev(LeaseTraceKind::kQRefGrant, 1, 5, 0, ka),
                    Ev(LeaseTraceKind::kCommit, 1, 5, 1, ka)});
  auto src_b = Src({Ev(LeaseTraceKind::kQRefGrant, 2, 5, 0, kb),
                    Ev(LeaseTraceKind::kCommit, 2, 5, 1, kb)});
  // Both orders of the source list replay each key's lifecycle correctly.
  EXPECT_TRUE(check::CheckHistory({src_a, src_b}, {}).certified());
  EXPECT_TRUE(check::CheckHistory({src_b, src_a}, {}).certified());
}

// ---- ShardedBackend trace aggregation -----------------------------------------

TEST(ShardedTraceTest, SnapshotMergesAndInfoSums) {
  ManualClock clock;
  IQServer::Config cfg;
  cfg.clock = &clock;
  cfg.trace_capacity = 64;
  CacheStore::Config store{.shard_count = 1, .memory_budget_bytes = 0,
                           .clock = &clock};
  IQServer a(store, cfg), b(store, cfg);

  std::vector<ShardedBackend::Shard> shards;
  shards.push_back({"a", &a, 1, nullptr, nullptr,
                    [&a](std::size_t m) { return a.TraceSnapshot(m); },
                    [&a] { return a.TraceInfoTotal(); }});
  shards.push_back({"b", &b, 1, nullptr, nullptr,
                    [&b](std::size_t m) { return b.TraceSnapshot(m); },
                    [&b] { return b.TraceInfoTotal(); }});
  ShardedBackend router(std::move(shards));

  // Equal timestamps on both children: the merge must keep child order
  // (a before b) and each child's internal order — deterministically.
  clock.Advance(5);
  QaReadReply qa = a.QaRead("x", 1);
  a.SaR("x", "v", qa.token);
  QaReadReply qb = b.QaRead("y", 2);
  b.SaR("y", "v", qb.token);

  auto merged = router.TraceSnapshot(100);
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].key_hash, TraceKeyHash("x"));
  EXPECT_EQ(merged[0].kind, LeaseTraceKind::kQRefGrant);
  EXPECT_EQ(merged[1].key_hash, TraceKeyHash("x"));
  EXPECT_EQ(merged[1].kind, LeaseTraceKind::kRelease);
  EXPECT_EQ(merged[2].key_hash, TraceKeyHash("y"));
  EXPECT_EQ(merged[3].key_hash, TraceKeyHash("y"));

  TraceInfo info = router.TraceInfoTotal();
  EXPECT_EQ(info.recorded, 4u);
  EXPECT_EQ(info.dropped, 0u);
  EXPECT_EQ(info.capacity, a.TraceInfoTotal().capacity * 2);

  // Trimming keeps the NEWEST events across the merged timeline.
  auto trimmed = router.TraceSnapshot(1);
  ASSERT_EQ(trimmed.size(), 1u);
  EXPECT_EQ(trimmed[0].key_hash, TraceKeyHash("y"));
}

// ---- TRACE_INFO wire round trip -----------------------------------------------

TEST(WireTraceTest, TraceWithInfoCarriesCompleteness) {
  IQServer server(CacheStore::Config{}, IQServer::Config{});
  net::LoopbackChannel channel(server);
  net::RemoteBackend client(channel);

  QaReadReply q = server.QaRead("k", 1);
  server.SaR("k", "v", q.token);

  auto drain = client.TraceWithInfo(100);
  ASSERT_TRUE(drain);
  EXPECT_TRUE(drain->has_info);
  EXPECT_EQ(drain->info.recorded, server.TraceRecorded());
  EXPECT_EQ(drain->info.dropped, 0u);
  EXPECT_GT(drain->info.capacity, 0u);
  ASSERT_EQ(drain->events.size(), 2u);
  EXPECT_EQ(drain->events[0].kind, LeaseTraceKind::kQRefGrant);

  // And the drained history certifies end to end.
  check::TraceSource src;
  src.name = "loopback";
  src.events = drain->events;
  src.info = drain->info;
  src.has_info = drain->has_info;
  EXPECT_TRUE(check::CheckHistory({src}, {}).certified());
}

// ---- mutation tests: the checker's teeth --------------------------------------

struct MutationRun {
  check::CheckReport report;
  std::optional<std::string> reread;  // value observed under own lease
};

/// Drive the own-update probe against a server: QaRead, buffer a +1 delta,
/// re-read under the same (live) Q lease, commit — logging ops as a client
/// would — then check the full history.
MutationRun RunOwnUpdateProbe(bool mutate) {
  ManualClock clock;
  IQServer::Config cfg;
  cfg.clock = &clock;
  cfg.trace_capacity = 256;
  cfg.mutate_own_update_invisible = mutate;
  IQServer server(CacheStore::Config{.shard_count = 1,
                                     .memory_budget_bytes = 0,
                                     .clock = &clock},
                  cfg);
  check::OpLog log(&clock);
  const std::uint64_t kh = TraceKeyHash("k");

  log.Record(0, check::OpKind::kSeed, kh, check::OpValueHash("1"));
  server.store().Set("k", "1");
  clock.Advance(1);

  QaReadReply q = server.QaRead("k", 1);
  EXPECT_EQ(q.status, QaReadReply::Status::kGranted);
  log.Record(1, check::OpKind::kReadHit, kh, check::OpValueHash(q.value));

  DeltaOp delta;
  delta.kind = DeltaOp::Kind::kIncr;
  delta.amount = 1;
  EXPECT_EQ(server.IQDelta(1, "k", delta), QuarantineResult::kGranted);
  log.Record(1, check::OpKind::kDelta, kh);
  clock.Advance(1);

  QaReadReply own = server.QaRead("k", 1);
  EXPECT_EQ(own.status, QaReadReply::Status::kGranted);
  log.Record(1, check::OpKind::kReadOwn, kh, check::OpValueHash(own.value));
  server.Commit(1);
  log.Record(1, check::OpKind::kCommit, kh);

  check::TraceSource src;
  src.name = "server";
  src.events = server.TraceSnapshot(1000);
  src.info = server.TraceInfoTotal();
  src.has_info = true;
  return {check::CheckHistory({src}, log.Snapshot()), own.value};
}

TEST(MutationTest, OwnUpdateInvisibleBugIsFlagged) {
  MutationRun bad = RunOwnUpdateProbe(/*mutate=*/true);
  ASSERT_TRUE(bad.reread);
  EXPECT_EQ(*bad.reread, "1");  // the bug: pre-delta value re-observed
  EXPECT_FALSE(bad.report.certified());
  EXPECT_EQ(bad.report.counts[static_cast<std::size_t>(
                check::AnomalyClass::kNonMonotonicSession)],
            1u)
      << bad.report.Summary();
}

TEST(MutationTest, FixedServerPassesOwnUpdateProbe) {
  MutationRun good = RunOwnUpdateProbe(/*mutate=*/false);
  ASSERT_TRUE(good.reread);
  EXPECT_EQ(*good.reread, "2");  // own delta replayed into the re-read
  EXPECT_TRUE(good.report.certified()) << good.report.Summary();
}

/// Two sessions contend for one key's Q lease; return the checker report.
check::CheckReport RunOverlapProbe(bool mutate) {
  ManualClock clock;
  IQServer::Config cfg;
  cfg.clock = &clock;
  cfg.trace_capacity = 256;
  cfg.mutate_overlap_q = mutate;
  IQServer server(CacheStore::Config{.shard_count = 1,
                                     .memory_budget_bytes = 0,
                                     .clock = &clock},
                  cfg);
  server.store().Set("k", "v");
  clock.Advance(1);

  QaReadReply first = server.QaRead("k", 1);
  EXPECT_EQ(first.status, QaReadReply::Status::kGranted);
  clock.Advance(1);
  QaReadReply second = server.QaRead("k", 2);
  if (mutate) {
    // The seeded bug steals the live lease instead of rejecting.
    EXPECT_EQ(second.status, QaReadReply::Status::kGranted);
    server.SaR("k", "v2", second.token);
    server.Commit(2);
  } else {
    EXPECT_EQ(second.status, QaReadReply::Status::kReject);
    server.SaR("k", "v1", first.token);
    server.Commit(1);
  }
  server.Commit(1);  // stale holder's commit is a no-op either way

  check::TraceSource src;
  src.name = "server";
  src.events = server.TraceSnapshot(1000);
  src.info = server.TraceInfoTotal();
  src.has_info = true;
  return check::CheckHistory({src}, {});
}

TEST(MutationTest, OverlapQBugIsFlagged) {
  check::CheckReport bad = RunOverlapProbe(/*mutate=*/true);
  EXPECT_FALSE(bad.certified());
  EXPECT_GE(bad.counts[static_cast<std::size_t>(
                check::AnomalyClass::kOverlapQ)],
            1u)
      << bad.Summary();
}

TEST(MutationTest, FixedServerRejectsContendingQ) {
  check::CheckReport good = RunOverlapProbe(/*mutate=*/false);
  EXPECT_TRUE(good.certified()) << good.Summary();
}

}  // namespace
}  // namespace iq
