#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>

#include "net/channel.h"
#include "net/channel_pool.h"
#include "net/remote_backend.h"
#include "util/backoff.h"
#include "net/protocol.h"
#include "net/server.h"

namespace iq::net {
namespace {

/// The wire bytes of one request or response.
template <typename Message>
std::string Serialize(const Message& message) {
  std::string out;
  AppendTo(message, &out);
  return out;
}

/// Parse one response; nullopt unless it is complete and well formed.
std::optional<Response> Parse(std::string_view bytes, std::size_t* consumed) {
  Response r;
  if (ParseResponse(bytes, &r, consumed) != ParseStatus::kOk) {
    return std::nullopt;
  }
  return r;
}

// ---- request parser ---------------------------------------------------------

TEST(RequestParser, ParsesGet) {
  RequestParser p;
  p.Feed("get somekey\r\n");
  Request r;
  std::string err;
  ASSERT_EQ(p.Next(&r, &err), RequestParser::Status::kOk);
  EXPECT_EQ(r.command, Command::kGet);
  EXPECT_EQ(r.key, "somekey");
  EXPECT_EQ(p.buffered(), 0u);
}

TEST(RequestParser, ParsesSetWithPayload) {
  RequestParser p;
  p.Feed("set k 7 60 5\r\nhello\r\n");
  Request r;
  std::string err;
  ASSERT_EQ(p.Next(&r, &err), RequestParser::Status::kOk);
  EXPECT_EQ(r.command, Command::kSet);
  EXPECT_EQ(r.key, "k");
  EXPECT_EQ(r.flags, 7u);
  EXPECT_EQ(r.exptime, 60);
  EXPECT_EQ(r.data, "hello");
}

TEST(RequestParser, PayloadMayContainNewlines) {
  RequestParser p;
  p.Feed("set k 0 0 5\r\na\r\nb!\r\n");
  Request r;
  std::string err;
  ASSERT_EQ(p.Next(&r, &err), RequestParser::Status::kOk);
  EXPECT_EQ(r.data, "a\r\nb!");
}

TEST(RequestParser, HandlesSplitFeeds) {
  RequestParser p;
  Request r;
  std::string err;
  p.Feed("se");
  EXPECT_EQ(p.Next(&r, &err), RequestParser::Status::kNeedMore);
  p.Feed("t k 0 0 4\r\nda");
  EXPECT_EQ(p.Next(&r, &err), RequestParser::Status::kNeedMore);
  p.Feed("ta\r\n");
  ASSERT_EQ(p.Next(&r, &err), RequestParser::Status::kOk);
  EXPECT_EQ(r.data, "data");
}

TEST(RequestParser, ParsesPipelinedRequests) {
  RequestParser p;
  p.Feed("get a\r\nget b\r\ndelete c\r\n");
  Request r;
  std::string err;
  ASSERT_EQ(p.Next(&r, &err), RequestParser::Status::kOk);
  EXPECT_EQ(r.key, "a");
  ASSERT_EQ(p.Next(&r, &err), RequestParser::Status::kOk);
  EXPECT_EQ(r.key, "b");
  ASSERT_EQ(p.Next(&r, &err), RequestParser::Status::kOk);
  EXPECT_EQ(r.command, Command::kDelete);
  EXPECT_EQ(p.Next(&r, &err), RequestParser::Status::kNeedMore);
}

TEST(RequestParser, ParsesCas) {
  RequestParser p;
  p.Feed("cas k 1 0 3 999\r\nabc\r\n");
  Request r;
  std::string err;
  ASSERT_EQ(p.Next(&r, &err), RequestParser::Status::kOk);
  EXPECT_EQ(r.command, Command::kCas);
  EXPECT_EQ(r.cas_unique, 999u);
}

TEST(RequestParser, ParsesIncrDecr) {
  RequestParser p;
  p.Feed("incr n 5\r\ndecr n 2\r\n");
  Request r;
  std::string err;
  ASSERT_EQ(p.Next(&r, &err), RequestParser::Status::kOk);
  EXPECT_EQ(r.command, Command::kIncr);
  EXPECT_EQ(r.amount, 5u);
  ASSERT_EQ(p.Next(&r, &err), RequestParser::Status::kOk);
  EXPECT_EQ(r.command, Command::kDecr);
}

TEST(RequestParser, ParsesIQCommands) {
  RequestParser p;
  p.Feed(
      "iqget profile 42\r\n"
      "iqset profile 7 3\r\nabc\r\n"
      "qaread friends 42\r\n"
      "sar friends 9 2\r\nxy\r\n"
      "sarnull friends 9\r\n"
      "genid\r\n"
      "qareg 11 pending\r\n"
      "dar 11\r\n"
      "iqappend 12 list 2\r\n,z\r\n"
      "iqincr 12 count 3\r\n"
      "commit 12\r\n"
      "abort 13\r\n"
      "release 13 friends\r\n");
  Request r;
  std::string err;
  Command expect[] = {Command::kIQGet,   Command::kIQSet,    Command::kQaRead,
                      Command::kSaR,     Command::kSaRNull,  Command::kGenId,
                      Command::kQaReg,   Command::kDaR,      Command::kIQAppend,
                      Command::kIQIncr,  Command::kCommit,   Command::kAbort,
                      Command::kRelease};
  for (Command c : expect) {
    ASSERT_EQ(p.Next(&r, &err), RequestParser::Status::kOk) << ToString(c);
    EXPECT_EQ(r.command, c);
  }
}

TEST(RequestParser, ReportsUnknownCommand) {
  RequestParser p;
  p.Feed("frobnicate k\r\nget ok\r\n");
  Request r;
  std::string err;
  EXPECT_EQ(p.Next(&r, &err), RequestParser::Status::kError);
  EXPECT_NE(err.find("frobnicate"), std::string::npos);
  // Recovers and parses the next request.
  EXPECT_EQ(p.Next(&r, &err), RequestParser::Status::kOk);
  EXPECT_EQ(r.key, "ok");
}

TEST(RequestParser, ReportsBadArity) {
  RequestParser p;
  p.Feed("get\r\n");
  Request r;
  std::string err;
  EXPECT_EQ(p.Next(&r, &err), RequestParser::Status::kError);
}

TEST(RequestParser, ReportsBadChunkTerminator) {
  RequestParser p;
  p.Feed("set k 0 0 3\r\nabcXX");
  Request r;
  std::string err;
  EXPECT_EQ(p.Next(&r, &err), RequestParser::Status::kError);
}

/// `original` as a parser must hand it back: the fields its command carries
/// on the wire, every other field at its default.
Request Carried(const Request& original) {
  Request r;
  r.command = original.command;
  switch (original.command) {
    case Command::kGet:
    case Command::kGets:
      r.key = original.key;
      r.keys = original.keys;
      break;
    case Command::kDelete:
      r.key = original.key;
      break;
    case Command::kCas:
      r.cas_unique = original.cas_unique;
      [[fallthrough]];
    case Command::kSet:
    case Command::kAdd:
    case Command::kReplace:
    case Command::kAppend:
    case Command::kPrepend:
      r.key = original.key;
      r.data = original.data;
      r.flags = original.flags;
      r.exptime = original.exptime;
      break;
    case Command::kIncr:
    case Command::kDecr:
      r.key = original.key;
      r.amount = original.amount;
      break;
    case Command::kFlushAll:
    case Command::kStats:
    case Command::kQuit:
    case Command::kGenId:
    case Command::kSweep:
    case Command::kMetrics:
      break;
    case Command::kTrace:
      r.amount = original.amount;
      break;
    case Command::kIQGet:
    case Command::kQaRead:
      r.key = original.key;
      r.session = original.session;
      break;
    case Command::kIQSet:
    case Command::kSaR:
      r.data = original.data;
      [[fallthrough]];
    case Command::kSaRNull:
      r.key = original.key;
      r.token = original.token;
      break;
    case Command::kIQAppend:
    case Command::kIQPrepend:
      r.data = original.data;
      [[fallthrough]];
    case Command::kQaReg:
    case Command::kRelease:
      r.key = original.key;
      [[fallthrough]];
    case Command::kDaR:
    case Command::kCommit:
    case Command::kAbort:
      r.session = original.session;
      break;
    case Command::kIQIncr:
    case Command::kIQDecr:
      r.key = original.key;
      r.session = original.session;
      r.amount = original.amount;
      break;
  }
  return r;
}

void ExpectSameRequest(const Request& got, const Request& want) {
  EXPECT_EQ(got.command, want.command);
  EXPECT_EQ(got.key, want.key);
  EXPECT_EQ(got.keys, want.keys);
  EXPECT_EQ(got.data, want.data);
  EXPECT_EQ(got.flags, want.flags);
  EXPECT_EQ(got.exptime, want.exptime);
  EXPECT_EQ(got.cas_unique, want.cas_unique);
  EXPECT_EQ(got.amount, want.amount);
  EXPECT_EQ(got.token, want.token);
  EXPECT_EQ(got.session, want.session);
}

/// A Request full of stale values, to prove an in-place parse resets every
/// field its command does not carry.
Request DirtyRequest() {
  Request r;
  r.command = Command::kCas;
  r.key = "stale key that is longer than the small-string buffer";
  r.keys = {"stale", "keys"};
  r.data = "stale data";
  r.flags = 99;
  r.exptime = -7;
  r.cas_unique = 98;
  r.amount = 97;
  r.token = 96;
  r.session = 95;
  return r;
}

/// Serialize, then parse back with the bytes split at every offset into
/// one reused Request: every field must come back unchanged.
void ExpectRequestRoundTrips(const Request& original) {
  std::string bytes = Serialize(original);
  Request want = Carried(original);
  Request parsed = DirtyRequest();
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    SCOPED_TRACE("split at byte " + std::to_string(split));
    RequestParser p;
    std::string err;
    p.Feed(std::string_view(bytes).substr(0, split));
    if (split < bytes.size()) {
      ASSERT_EQ(p.Next(&parsed, &err), RequestParser::Status::kNeedMore);
    }
    p.Feed(std::string_view(bytes).substr(split));
    ASSERT_EQ(p.Next(&parsed, &err), RequestParser::Status::kOk) << err;
    EXPECT_EQ(p.buffered(), 0u);
    ExpectSameRequest(parsed, want);
    EXPECT_EQ(Serialize(parsed), bytes);
  }
  // The client's framing-only count agrees: quit is the one silent verb.
  EXPECT_EQ(ExpectedReplies(bytes), original.command == Command::kQuit ? 0u : 1u);
  // So does the server's key peek, and it finds the key the parse does.
  std::string_view keys[2];
  ASSERT_EQ(PeekKeys(bytes, keys), original.command == Command::kQuit ? 0u : 1u);
  if (original.command != Command::kQuit) {
    EXPECT_EQ(keys[0], want.key);
  }
}

TEST(PeekKeys, FramesUpToTheLimitAndStopsWhereTheParserWould) {
  const std::string bytes =
      "get a b\r\n"
      "frobnicate\r\n"
      "set c 0 0 1\r\nx\r\n"
      "stats\r\n"
      "iqget d 7\r\n"
      "quit\r\n"
      "get e\r\n";
  std::string_view keys[8];
  ASSERT_EQ(PeekKeys(bytes, keys), 5u);  // stops before quit
  EXPECT_EQ(keys[0], "a");               // a multi-key get's first key
  EXPECT_EQ(keys[1], "");                // malformed: one reply, no key
  EXPECT_EQ(keys[2], "c");
  EXPECT_EQ(keys[3], "");                // keyless verb
  EXPECT_EQ(keys[4], "d");
  EXPECT_EQ(PeekKeys(bytes, std::span(keys, 2)), 2u);
  // An incomplete request ends the scan: here, a payload still arriving.
  EXPECT_EQ(PeekKeys("get a\r\nset b 0 0 5\r\nxy", keys), 1u);
  EXPECT_EQ(PeekKeys("", keys), 0u);
}

// Round-trip property: Serialize(request) parses back to an identical
// request, for every command kind.
class RoundTripTest : public ::testing::TestWithParam<Command> {};

TEST_P(RoundTripTest, SerializeThenParseIsIdentity) {
  Request original;
  original.command = GetParam();
  original.key = "some_key";
  original.data = "payload\r\nbytes";
  original.flags = 3;
  original.exptime = 120;
  original.cas_unique = 77;
  original.amount = 5;
  original.token = 91;
  original.session = 1234;
  ExpectRequestRoundTrips(original);
}

TEST(RequestParser, MultiKeyGetRoundTripsWithDuplicates) {
  for (Command c : {Command::kGet, Command::kGets}) {
    for (std::vector<std::string> keys :
         {std::vector<std::string>{"a", "b"},
          std::vector<std::string>{"a", "b", "a", "c", "c"}}) {
      Request original;
      original.command = c;
      original.key = keys.front();
      original.keys = keys;
      ExpectRequestRoundTrips(original);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCommands, RoundTripTest,
    ::testing::Values(Command::kGet, Command::kGets, Command::kSet,
                      Command::kAdd, Command::kReplace, Command::kCas,
                      Command::kAppend, Command::kPrepend, Command::kDelete,
                      Command::kIncr, Command::kDecr, Command::kFlushAll,
                      Command::kStats, Command::kQuit, Command::kIQGet,
                      Command::kIQSet, Command::kQaRead, Command::kSaR,
                      Command::kSaRNull, Command::kGenId, Command::kQaReg,
                      Command::kDaR, Command::kIQAppend, Command::kIQPrepend,
                      Command::kIQIncr, Command::kIQDecr, Command::kCommit,
                      Command::kAbort, Command::kRelease, Command::kSweep,
                      Command::kMetrics, Command::kTrace),
    [](const ::testing::TestParamInfo<Command>& info) {
      std::string name = ToString(info.param);
      for (char& c : name) {
        if (c == '_') c = 'X';
      }
      return name;
    });

// ---- response serialization --------------------------------------------------

TEST(ResponseCodec, ValueRoundTrip) {
  Response r;
  r.type = ResponseType::kValue;
  r.key = "k";
  r.data = "some data";
  r.flags = 5;
  r.with_cas = true;
  r.cas_unique = 42;
  std::size_t consumed = 0;
  auto parsed = Parse(Serialize(r), &consumed);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->type, ResponseType::kValue);
  EXPECT_EQ(parsed->data, "some data");
  EXPECT_EQ(parsed->cas_unique, 42u);
}

TEST(ResponseCodec, SimpleResponsesRoundTrip) {
  for (ResponseType t :
       {ResponseType::kEnd, ResponseType::kStored, ResponseType::kNotStored,
        ResponseType::kExists, ResponseType::kNotFound, ResponseType::kDeleted,
        ResponseType::kOk, ResponseType::kMissBackoff,
        ResponseType::kMissNoLease, ResponseType::kReject,
        ResponseType::kGranted}) {
    Response r;
    r.type = t;
    std::size_t consumed = 0;
    auto parsed = Parse(Serialize(r), &consumed);
    ASSERT_TRUE(parsed) << static_cast<int>(t);
    EXPECT_EQ(parsed->type, t);
  }
}

TEST(ResponseCodec, NumberedResponsesCarryPayload) {
  for (ResponseType t : {ResponseType::kMissToken, ResponseType::kQMiss,
                         ResponseType::kId, ResponseType::kNumber}) {
    Response r;
    r.type = t;
    r.number = 987654;
    std::size_t consumed = 0;
    auto parsed = Parse(Serialize(r), &consumed);
    ASSERT_TRUE(parsed);
    EXPECT_EQ(parsed->type, t);
    EXPECT_EQ(parsed->number, 987654u);
  }
}

TEST(ResponseCodec, QValueCarriesTokenAndData) {
  Response r;
  r.type = ResponseType::kQValue;
  r.number = 55;
  r.data = "old value";
  std::size_t consumed = 0;
  auto parsed = Parse(Serialize(r), &consumed);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->type, ResponseType::kQValue);
  EXPECT_EQ(parsed->number, 55u);
  EXPECT_EQ(parsed->data, "old value");
}

TEST(ResponseCodec, ValueCarriesValidityTtl) {
  Response r;
  r.type = ResponseType::kValue;
  r.key = "k";
  r.data = "v";
  r.ttl_ns = 12345;
  std::size_t consumed = 0;
  std::string bytes = Serialize(r);
  // The duration rides as a trailing T-prefixed token: non-numeric, so a
  // parser unaware of validity grants skips it as it would any extension.
  EXPECT_NE(bytes.find(" T12345"), std::string::npos);
  auto parsed = Parse(bytes, &consumed);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->type, ResponseType::kValue);
  EXPECT_EQ(parsed->ttl_ns, 12345u);
  EXPECT_FALSE(parsed->with_cas);
  EXPECT_EQ(consumed, bytes.size());
}

TEST(ResponseCodec, ValueCarriesCasAndTtlTogether) {
  Response r;
  r.type = ResponseType::kValue;
  r.key = "k";
  r.data = "v";
  r.with_cas = true;
  r.cas_unique = 42;
  r.ttl_ns = 77;
  std::size_t consumed = 0;
  auto parsed = Parse(Serialize(r), &consumed);
  ASSERT_TRUE(parsed);
  EXPECT_TRUE(parsed->with_cas);
  EXPECT_EQ(parsed->cas_unique, 42u);
  EXPECT_EQ(parsed->ttl_ns, 77u);
}

TEST(ResponseCodec, ValueWithoutTtlParsesAsZero) {
  std::size_t consumed = 0;
  auto parsed = Parse("VALUE k 0 1\r\nv\r\nEND\r\n", &consumed);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->ttl_ns, 0u);
}

TEST(RemoteValidity, IQgetHitCarriesGrantedIntervalAsDuration) {
  IQServer::Config cfg;
  cfg.near_validity = 5 * kNanosPerMilli;
  IQServer server(CacheStore::Config{}, cfg);
  LoopbackChannel channel(server);
  RemoteBackend backend(channel);
  server.store().Set("k", "v");
  SessionId sid = backend.GenID();
  GetReply hit = backend.IQget("k", sid);
  ASSERT_EQ(hit.status, GetReply::Status::kHit);
  EXPECT_EQ(hit.value, "v");
  // The interval crosses the wire as a duration, never a deadline — the
  // two hosts' clocks are not comparable (DESIGN.md §4.10).
  EXPECT_EQ(hit.validity, 5 * kNanosPerMilli);
}

TEST(RemoteValidity, NoGrantWhenServerValidityDisabled) {
  IQServer server;
  LoopbackChannel channel(server);
  RemoteBackend backend(channel);
  server.store().Set("k", "v");
  GetReply hit = backend.IQget("k", backend.GenID());
  ASSERT_EQ(hit.status, GetReply::Status::kHit);
  EXPECT_EQ(hit.validity, 0);
}

TEST(ResponseCodec, IncompleteBytesNeedMore) {
  std::size_t consumed = 0;
  Response r;
  EXPECT_EQ(ParseResponse("VALUE k 0 100\r\nshort", &r, &consumed),
            ParseStatus::kNeedMore);
  EXPECT_EQ(ParseResponse("STO", &r, &consumed), ParseStatus::kNeedMore);
  EXPECT_EQ(ParseResponse("", nullptr, &consumed), ParseStatus::kNeedMore);
}

TEST(ResponseCodec, MalformedRepliesAreErrorsNotStalls) {
  // A reply that can never complete must not read as "wait for more": the
  // client would otherwise sit on a desynced stream until its deadline.
  std::size_t consumed = 0;
  for (const char* bad :
       {"BOGUS\r\n", "\r\n", "MISS_TOKEN\r\n", "MISS_TOKEN x\r\n",
        "ID 1 2\r\n", "QVALUE 1\r\n", "12 34\r\n",
        "VALUE k 0 3\r\nabcXY", "VALUE k 0\r\nabc\r\nEND\r\n",
        "VALUE k 0 1\r\nx\r\nGARBAGE\r\n", "METRICS 2\r\nabXY"}) {
    Response r;
    EXPECT_EQ(ParseResponse(bad, &r, &consumed), ParseStatus::kError) << bad;
    EXPECT_EQ(ParseResponse(bad, nullptr, &consumed), ParseStatus::kError)
        << bad;
  }
}

TEST(ResponseCodec, MetricsIsASizedBlock) {
  Response r;
  r.type = ResponseType::kMetrics;
  // The payload contains '#' comment heads, bare newlines, and even a
  // protocol keyword — the sized framing must carry all of it opaquely.
  r.data = "# TYPE iq_commits_total counter\niq_commits_total 7\nEND\nSTORED\n";
  std::size_t consumed = 0;
  std::string bytes = Serialize(r);
  auto parsed = Parse(bytes, &consumed);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->type, ResponseType::kMetrics);
  EXPECT_EQ(parsed->data, r.data);
  EXPECT_EQ(consumed, bytes.size());
  // Truncated payload: not yet a complete response.
  EXPECT_EQ(ParseResponse(std::string_view(bytes).substr(0, bytes.size() - 5),
                          nullptr, &consumed),
            ParseStatus::kNeedMore);
}

TEST(ResponseCodec, TraceLinesRoundTripLikeStats) {
  Response r;
  r.type = ResponseType::kTrace;
  r.message =
      "TRACE 1 100 0 q_ref_grant 42 7\r\n"
      "TRACE 2 200 0 release 42 7\r\n";
  std::size_t consumed = 0;
  std::string bytes = Serialize(r);
  auto parsed = Parse(bytes, &consumed);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->type, ResponseType::kTrace);
  EXPECT_EQ(parsed->message, r.message);
  EXPECT_EQ(consumed, bytes.size());
}

TEST(ResponseCodec, EmptyTraceSerializesAsBareEnd) {
  Response r;
  r.type = ResponseType::kTrace;
  std::size_t consumed = 0;
  std::string bytes = Serialize(r);
  EXPECT_EQ(bytes, "END\r\n");
  // Indistinguishable from a get miss on the wire — clients treat kEnd as
  // "no trace events", which is exactly what it means.
  auto parsed = Parse(bytes, &consumed);
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->type, ResponseType::kEnd);
}

void ExpectSameResponse(const Response& got, const Response& want) {
  EXPECT_EQ(got.type, want.type);
  EXPECT_EQ(got.key, want.key);
  EXPECT_EQ(got.data, want.data);
  EXPECT_EQ(got.flags, want.flags);
  EXPECT_EQ(got.cas_unique, want.cas_unique);
  EXPECT_EQ(got.with_cas, want.with_cas);
  EXPECT_EQ(got.ttl_ns, want.ttl_ns);
  EXPECT_EQ(got.number, want.number);
  EXPECT_EQ(got.message, want.message);
  ASSERT_EQ(got.values.size(), want.values.size());
  for (std::size_t i = 0; i < got.values.size(); ++i) {
    EXPECT_EQ(got.values[i].key, want.values[i].key);
    EXPECT_EQ(got.values[i].data, want.values[i].data);
    EXPECT_EQ(got.values[i].flags, want.values[i].flags);
    EXPECT_EQ(got.values[i].cas_unique, want.values[i].cas_unique);
    EXPECT_EQ(got.values[i].ttl_ns, want.values[i].ttl_ns);
  }
}

/// One canonical response per ResponseType (two shapes each for kValue and
/// kError): every field set is one the wire carries.
std::vector<Response> EveryResponseType() {
  std::vector<Response> out;
  auto add = [&out](ResponseType t) -> Response& {
    out.emplace_back();
    out.back().type = t;
    return out.back();
  };
  for (ResponseType t :
       {ResponseType::kEnd, ResponseType::kStored, ResponseType::kNotStored,
        ResponseType::kExists, ResponseType::kNotFound,
        ResponseType::kDeleted, ResponseType::kOk, ResponseType::kMissBackoff,
        ResponseType::kMissNoLease, ResponseType::kReject,
        ResponseType::kGranted}) {
    add(t);
  }
  for (ResponseType t : {ResponseType::kNumber, ResponseType::kMissToken,
                         ResponseType::kQMiss, ResponseType::kId}) {
    add(t).number = 18446744073709551615u;
  }
  Response& single = add(ResponseType::kValue);  // cas and T<ttl> together
  single.key = "k";
  single.data = "some\r\ndata";
  single.flags = 5;
  single.with_cas = true;
  single.cas_unique = 42;
  single.ttl_ns = 5000000;
  Response& multi = add(ResponseType::kValue);
  multi.with_cas = true;
  multi.values = {{"a", "one", 1, 7, 0}, {"b", "", 2, 8, 9}, {"a", "one", 1, 7, 0}};
  // A parsed multi-hit reply mirrors hit 0 into the single-value fields.
  multi.key = "a";
  multi.data = "one";
  multi.flags = 1;
  multi.cas_unique = 7;
  add(ResponseType::kError);  // bare ERROR
  add(ResponseType::kError).message = "bad data chunk terminator";
  add(ResponseType::kStats).message = "STAT pid 1\r\nSTAT BACKEND 2\r\n";
  Response& qvalue = add(ResponseType::kQValue);
  qvalue.number = 55;
  qvalue.data = "old value";
  add(ResponseType::kMetrics).data = "# TYPE x counter\nx 1\nEND\n";
  add(ResponseType::kTrace).message =
      "TRACE_INFO 2 0 64\r\nTRACE 1 100 0 q_ref_grant 42 7\r\n";
  add(ResponseType::kTransportError).message = "out of memory";
  return out;
}

TEST(ResponseCodec, EveryTypeRoundTripsAtEverySplit) {
  std::vector<Response> samples = EveryResponseType();
  std::vector<bool> covered(
      static_cast<std::size_t>(ResponseType::kTransportError) + 1, false);
  // One Response reused across every parse, starting dirty.
  Response parsed;
  parsed.type = ResponseType::kValue;
  parsed.key = "stale";
  parsed.data = "stale data";
  parsed.message = "stale";
  parsed.flags = parsed.cas_unique = parsed.ttl_ns = parsed.number = 3;
  parsed.with_cas = true;
  parsed.values.push_back({"x", "y", 1, 2, 3});
  for (const Response& want : samples) {
    covered[static_cast<std::size_t>(want.type)] = true;
    std::string bytes = Serialize(want);
    SCOPED_TRACE(bytes);
    // Trailing bytes of the next reply must not be taken.
    std::string stream = bytes + "STORED\r\n";
    for (std::size_t split = 0; split < bytes.size(); ++split) {
      std::size_t consumed = 0;
      std::string_view prefix = std::string_view(bytes).substr(0, split);
      ASSERT_EQ(ParseResponse(prefix, &parsed, &consumed),
                ParseStatus::kNeedMore)
          << "split " << split;
      ASSERT_EQ(ParseResponse(prefix, nullptr, &consumed),
                ParseStatus::kNeedMore)
          << "split " << split;
    }
    std::size_t consumed = 0;
    std::size_t framed = 0;
    ASSERT_EQ(ParseResponse(stream, &parsed, &consumed), ParseStatus::kOk);
    ASSERT_EQ(ParseResponse(stream, nullptr, &framed), ParseStatus::kOk);
    EXPECT_EQ(consumed, bytes.size());
    EXPECT_EQ(framed, bytes.size());
    ExpectSameResponse(parsed, want);
    EXPECT_EQ(Serialize(parsed), bytes);
  }
  for (std::size_t t = 0; t < covered.size(); ++t) {
    EXPECT_TRUE(covered[t]) << "no sample of ResponseType " << t;
  }
}

TEST(ResponseCodec, SingleHitFillsOnlyTheSingleValueFields) {
  std::size_t consumed = 0;
  auto parsed = Parse("VALUE k 3 2 11 T5\r\nhi\r\nEND\r\n", &consumed);
  ASSERT_TRUE(parsed);
  EXPECT_TRUE(parsed->values.empty());
  EXPECT_EQ(parsed->key, "k");
  EXPECT_EQ(parsed->data, "hi");
  EXPECT_EQ(parsed->flags, 3u);
  EXPECT_EQ(parsed->cas_unique, 11u);
  EXPECT_TRUE(parsed->with_cas);
  EXPECT_EQ(parsed->ttl_ns, 5u);
}

/// A Channel whose every round trip returns the same canned reply bytes.
class CannedChannel final : public Channel {
 public:
  explicit CannedChannel(std::string reply) : reply_(std::move(reply)) {}
  bool RoundTrip(const std::string&, std::string* reply) override {
    *reply = reply_;
    return true;
  }

 private:
  std::string reply_;
};

TEST(ResponseCodec, ErrorRepliesWithAndWithoutMessage) {
  // A bare CLIENT_ERROR (12 bytes before the CRLF) once made the client's
  // parser throw std::out_of_range, which nothing caught: the process died.
  struct Case {
    const char* bytes;
    ResponseType type;
    const char* message;
  };
  for (const Case& c :
       {Case{"CLIENT_ERROR\r\n", ResponseType::kError, ""},
        Case{"CLIENT_ERROR bad argument count\r\n", ResponseType::kError,
             "bad argument count"},
        Case{"SERVER_ERROR\r\n", ResponseType::kTransportError, ""},
        Case{"SERVER_ERROR out of memory\r\n", ResponseType::kTransportError,
             "out of memory"}}) {
    SCOPED_TRACE(c.bytes);
    std::size_t consumed = 0;
    auto parsed = Parse(c.bytes, &consumed);
    ASSERT_TRUE(parsed);
    EXPECT_EQ(parsed->type, c.type);
    EXPECT_EQ(parsed->message, c.message);
    EXPECT_EQ(consumed, std::strlen(c.bytes));
    // And through the client facade: a refusal, never a crash.
    CannedChannel channel(c.bytes);
    RemoteBackend client(channel);
    EXPECT_FALSE(client.Get("k").has_value());
    EXPECT_NE(client.Set("k", "v"), StoreResult::kStored);
  }
}

// ---- dispatcher over a loopback channel ----------------------------------------

class RemoteTest : public ::testing::Test {
 protected:
  RemoteTest() : channel_(server_), client_(channel_) {}
  IQServer server_;
  LoopbackChannel channel_;
  RemoteBackend client_;
};

/// The IQ protocol cases run twice: against the in-process IQServer, the
/// reference, and against RemoteBackend over a LoopbackChannel into the
/// same kind of server. Each verb's wire mapping must reproduce the
/// in-process result.
class ProtocolTest : public RemoteTest,
                     public ::testing::WithParamInterface<bool> {
 protected:
  /// The backend under test: true selects the wire.
  KvsBackend& kvs() {
    if (GetParam()) return client_;
    return server_;
  }
};

INSTANTIATE_TEST_SUITE_P(Backends, ProtocolTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Wire" : "InProcess";
                         });

TEST_F(RemoteTest, SetGetDeleteOverTheWire) {
  EXPECT_EQ(client_.Set("k", "v"), StoreResult::kStored);
  auto item = client_.Get("k");
  ASSERT_TRUE(item);
  EXPECT_EQ(item->value, "v");
  EXPECT_TRUE(client_.DeleteVoid("k"));
  EXPECT_FALSE(client_.Get("k"));
}

TEST_F(RemoteTest, GetsReturnsCasAndCasWorks) {
  client_.Set("k", "v1");
  auto item = client_.Get("k");
  ASSERT_TRUE(item);
  EXPECT_EQ(client_.Cas("k", "v2", item->cas), StoreResult::kStored);
  EXPECT_EQ(client_.Cas("k", "v3", item->cas), StoreResult::kExists);
}

TEST_F(RemoteTest, IncrDecrOverTheWire) {
  client_.Set("n", "10");
  EXPECT_EQ(client_.Incr("n", 5), 15u);
  EXPECT_EQ(client_.Decr("n", 1), 14u);
  EXPECT_FALSE(client_.Incr("absent", 1));
}

TEST_P(ProtocolTest, FullIQReadProtocol) {
  SessionId session = kvs().GenID();
  EXPECT_NE(session, 0u);
  GetReply miss = kvs().IQget("k", session);
  ASSERT_EQ(miss.status, GetReply::Status::kMissGrantedI);
  EXPECT_EQ(kvs().IQset("k", "computed", miss.token), StoreResult::kStored);
  GetReply hit = kvs().IQget("k", session);
  EXPECT_EQ(hit.status, GetReply::Status::kHit);
  EXPECT_EQ(hit.value, "computed");
}

TEST_P(ProtocolTest, FullRefreshProtocol) {
  kvs().Set("k", "old");
  SessionId session = kvs().GenID();
  QaReadReply q = kvs().QaRead("k", session);
  ASSERT_EQ(q.status, QaReadReply::Status::kGranted);
  EXPECT_EQ(q.value, "old");
  // A second writer is rejected.
  SessionId other = kvs().GenID();
  EXPECT_EQ(kvs().QaRead("k", other).status, QaReadReply::Status::kReject);
  EXPECT_EQ(kvs().SaR("k", std::optional<std::string>("new"), q.token),
            StoreResult::kStored);
  EXPECT_EQ(kvs().Get("k")->value, "new");
}

TEST_P(ProtocolTest, FullInvalidateProtocol) {
  kvs().Set("k", "v");
  SessionId tid = kvs().GenID();
  kvs().QaReg(tid, "k");
  EXPECT_TRUE(kvs().Get("k"));  // deferred delete
  kvs().DaR(tid);
  EXPECT_FALSE(kvs().Get("k"));
}

TEST_P(ProtocolTest, FullDeltaProtocol) {
  kvs().Set("list", "a");
  kvs().Set("count", "10");
  SessionId tid = kvs().GenID();
  EXPECT_EQ(kvs().IQDelta(tid, "list", DeltaOp{DeltaOp::Kind::kAppend, ",b", 0}),
            QuarantineResult::kGranted);
  EXPECT_EQ(kvs().IQDelta(tid, "count", DeltaOp{DeltaOp::Kind::kIncr, {}, 2}),
            QuarantineResult::kGranted);
  kvs().Commit(tid);
  EXPECT_EQ(kvs().Get("list")->value, "a,b");
  EXPECT_EQ(kvs().Get("count")->value, "12");
}

TEST_P(ProtocolTest, AbortDiscardsBufferedDelta) {
  kvs().Set("k", "keep");
  SessionId tid = kvs().GenID();
  kvs().IQDelta(tid, "k", DeltaOp{DeltaOp::Kind::kAppend, "X", 0});
  kvs().Abort(tid);
  EXPECT_EQ(kvs().Get("k")->value, "keep");
}

TEST_F(RemoteTest, StatsExposeLeaseCounters) {
  SessionId session = client_.GenID();
  client_.IQget("missing", session);
  std::string stats = client_.Stats();
  EXPECT_NE(stats.find("STAT i_leases_granted 1"), std::string::npos);
  EXPECT_NE(stats.find("STAT get_misses"), std::string::npos);
}

TEST_F(RemoteTest, StatsExposeCommandLatencies) {
  SessionId session = client_.GenID();
  client_.IQget("missing", session);
  client_.Set("k", "v");
  std::string stats = client_.Stats();
  // The dispatcher records one observation per request, keyed by command
  // class, and FormatStats renders count/mean/p95/p99/max per class.
  EXPECT_NE(stats.find("STAT cmd_iqget_count 1"), std::string::npos);
  EXPECT_NE(stats.find("STAT cmd_store_count 1"), std::string::npos);
  EXPECT_NE(stats.find("STAT cmd_iqget_p95_us"), std::string::npos);
  EXPECT_NE(stats.find("STAT cmd_store_max_us"), std::string::npos);
  // No delete was issued, so its class is omitted entirely.
  EXPECT_EQ(stats.find("STAT cmd_delete_"), std::string::npos);
}

TEST_F(RemoteTest, MalformedRequestYieldsError) {
  std::string reply;
  ASSERT_TRUE(channel_.RoundTrip("bogus nonsense\r\n", &reply));
  EXPECT_NE(reply.find("CLIENT_ERROR"), std::string::npos);
}

TEST(LoopbackLatency, InjectedLatencySlowsRoundTrip) {
  IQServer server;
  LoopbackChannel channel(server, /*one_way_latency=*/kNanosPerMilli);
  RemoteBackend client(channel);
  Nanos t0 = SteadyClock::Instance().Now();
  client.Set("k", "v");
  EXPECT_GE(SteadyClock::Instance().Now() - t0, 2 * kNanosPerMilli);
}

TEST(RemoteConcurrency, RefreshProtocolSerializesOverTheWire) {
  // Several remote clients run the full QaRead/SaR protocol on one counter
  // concurrently; rejections force retries. The counter must equal the
  // number of successful sessions (no lost updates over the wire).
  IQServer server;
  LoopbackChannel channel(server);
  {
    RemoteBackend setup(channel);
    setup.Set("n", "0");
  }
  constexpr int kThreads = 4;
  constexpr int kIncrements = 50;
  std::atomic<int> committed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&server, &channel, &committed] {
      RemoteBackend client(channel);
      for (int i = 0; i < kIncrements; ++i) {
        SessionId session = client.GenID();
        QaReadReply q = client.QaRead("n", session);
        if (q.status != QaReadReply::Status::kGranted) {
          client.Abort(session);
          --i;  // retry
          SleepFor(server.clock(), 20 * kNanosPerMicro);
          continue;
        }
        std::string next = std::to_string(std::stoll(*q.value) + 1);
        client.SaR("n", std::optional<std::string>(next), q.token);
        committed.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  RemoteBackend check(channel);
  EXPECT_EQ(check.Get("n")->value, std::to_string(committed.load()));
  EXPECT_EQ(committed.load(), kThreads * kIncrements);
}

TEST(LoopbackPipelining, MultipleRequestsInOneRoundTrip) {
  IQServer server;
  LoopbackChannel channel(server);
  std::string reply;
  ASSERT_TRUE(channel.RoundTrip(
      "set a 0 0 1\r\nx\r\nset b 0 0 1\r\ny\r\nget a\r\n", &reply));
  EXPECT_NE(reply.find("STORED\r\nSTORED\r\nVALUE a"), std::string::npos);
  EXPECT_EQ(channel.requests(), 3u);
}

// ---- multi-key get ----------------------------------------------------------

TEST(RequestParser, ParsesMultiKeyGet) {
  RequestParser p;
  p.Feed("get a b c\r\ngets x y\r\n");
  Request r;
  std::string err;
  ASSERT_EQ(p.Next(&r, &err), RequestParser::Status::kOk);
  EXPECT_EQ(r.command, Command::kGet);
  EXPECT_EQ(r.key, "a");
  ASSERT_EQ(r.keys.size(), 3u);
  EXPECT_EQ(r.keys[1], "b");
  EXPECT_EQ(r.keys[2], "c");
  ASSERT_EQ(p.Next(&r, &err), RequestParser::Status::kOk);
  EXPECT_EQ(r.command, Command::kGets);
  ASSERT_EQ(r.keys.size(), 2u);
  EXPECT_EQ(r.keys[0], "x");
  EXPECT_EQ(r.keys[1], "y");
}

TEST(ResponseCodec, MultiValueRoundTrip) {
  Response r;
  r.type = ResponseType::kValue;
  r.values.push_back({"a", "one", 1, 0});
  r.values.push_back({"c", "three", 3, 0});
  std::string bytes = Serialize(r);
  std::size_t consumed = 0;
  auto parsed = Parse(bytes, &consumed);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(consumed, bytes.size());
  ASSERT_EQ(parsed->values.size(), 2u);
  EXPECT_EQ(parsed->values[0].key, "a");
  EXPECT_EQ(parsed->values[0].data, "one");
  EXPECT_EQ(parsed->values[1].key, "c");
  EXPECT_EQ(parsed->values[1].data, "three");
  // The first entry mirrors into the legacy single-value fields.
  EXPECT_EQ(parsed->key, "a");
  EXPECT_EQ(parsed->data, "one");
}

TEST(LoopbackMultiGet, MissesAreOmittedAndOrderIsPreserved) {
  IQServer server;
  LoopbackChannel channel(server);
  RemoteBackend client(channel);
  client.Set("a", "one");
  client.Set("c", "three");
  auto hits = client.MultiGet({"a", "missing", "c"});
  ASSERT_EQ(hits.size(), 3u);
  ASSERT_TRUE(hits[0].has_value());
  EXPECT_EQ(hits[0]->value, "one");
  EXPECT_FALSE(hits[1].has_value());
  ASSERT_TRUE(hits[2].has_value());
  EXPECT_EQ(hits[2]->value, "three");
  EXPECT_EQ(channel.requests(), 3u);  // 2 sets + 1 multi-get round trip
}

TEST(LoopbackMultiGet, OneTwoAndManyKeysWithDuplicates) {
  IQServer server;
  LoopbackChannel channel(server);
  RemoteBackend client(channel);
  client.Set("a", "one");
  client.Set("b", "two");
  client.Set("c", "three");
  auto values = [](const std::vector<std::optional<CacheItem>>& hits) {
    std::vector<std::string> out;
    for (const auto& h : hits) out.push_back(h ? h->value : "<miss>");
    return out;
  };
  using V = std::vector<std::string>;
  EXPECT_EQ(values(client.MultiGet({"a"})), V({"one"}));
  EXPECT_EQ(values(client.MultiGet({"missing"})), V({"<miss>"}));
  EXPECT_EQ(values(client.MultiGet({"missing", "b"})), V({"<miss>", "two"}));
  EXPECT_EQ(values(client.MultiGet({"a", "b"})), V({"one", "two"}));
  EXPECT_EQ(values(client.MultiGet({"a", "a"})), V({"one", "one"}));
  EXPECT_EQ(values(client.MultiGet({"a", "missing", "b", "a", "c", "c"})),
            V({"one", "<miss>", "two", "one", "three", "three"}));
  for (std::vector<std::string> keys :
       {std::vector<std::string>{"b"},
        std::vector<std::string>{"c", "missing", "c", "a"}}) {
    auto hits = client.MultiGet(keys, /*with_cas=*/true);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      auto direct = client.Get(keys[i]);
      ASSERT_EQ(hits[i].has_value(), direct.has_value()) << keys[i];
      if (direct) {
        EXPECT_EQ(hits[i]->cas, direct->cas) << keys[i];
      }
    }
  }
}

TEST(LoopbackMultiGet, GetsCarriesCasPerValue) {
  IQServer server;
  LoopbackChannel channel(server);
  RemoteBackend client(channel);
  client.Set("a", "one");
  client.Set("b", "two");
  auto hits = client.MultiGet({"a", "b"}, /*with_cas=*/true);
  ASSERT_EQ(hits.size(), 2u);
  ASSERT_TRUE(hits[0].has_value());
  ASSERT_TRUE(hits[1].has_value());
  EXPECT_NE(hits[0]->cas, 0u);
  EXPECT_NE(hits[1]->cas, 0u);
  EXPECT_NE(hits[0]->cas, hits[1]->cas);
}

// ---- parser cursor & compaction ---------------------------------------------

TEST(RequestParser, BufferedTracksCursorAcrossSplitFeeds) {
  RequestParser p;
  Request r;
  std::string err;
  EXPECT_EQ(p.buffered(), 0u);
  p.Feed("get a\r\nget b");  // one complete request + a partial one
  EXPECT_EQ(p.buffered(), 12u);
  ASSERT_EQ(p.Next(&r, &err), RequestParser::Status::kOk);
  EXPECT_EQ(r.key, "a");
  EXPECT_EQ(p.buffered(), 5u);  // "get b" survives the consumed prefix
  EXPECT_EQ(p.Next(&r, &err), RequestParser::Status::kNeedMore);
  p.Feed("\r\n");
  EXPECT_EQ(p.buffered(), 7u);
  ASSERT_EQ(p.Next(&r, &err), RequestParser::Status::kOk);
  EXPECT_EQ(r.key, "b");
  EXPECT_EQ(p.buffered(), 0u);
}

TEST(RequestParser, CompactionKeepsPipelinedTailIntact) {
  // A long run of pipelined requests consumed one at a time exercises both
  // compaction branches (consumed > half the buffer, and full clear) while
  // feeds keep splitting requests at awkward offsets.
  RequestParser p;
  std::string stream;
  constexpr int kN = 200;
  for (int i = 0; i < kN; ++i) {
    char payload[4] = {'v', static_cast<char>('0' + i % 10),
                       static_cast<char>('0' + (i / 10) % 10), '\0'};
    stream += "set key" + std::to_string(i) + " 0 0 3\r\n" + payload + "\r\n";
  }
  // Feed in 7-byte slivers, draining after each feed.
  Request r;
  std::string err;
  int seen = 0;
  for (std::size_t off = 0; off < stream.size(); off += 7) {
    p.Feed(stream.substr(off, 7));
    while (p.Next(&r, &err) == RequestParser::Status::kOk) {
      EXPECT_EQ(r.key, "key" + std::to_string(seen));
      ++seen;
    }
  }
  EXPECT_EQ(seen, kN);
  EXPECT_EQ(p.buffered(), 0u);
}

// ---- length-claim hardening -------------------------------------------------

TEST(RequestParser, RejectsPayloadLengthClaimAboveProtocolLimit) {
  // A <bytes> field near SIZE_MAX must not wrap the terminator arithmetic
  // back onto the command line (which would accept the request and leave the
  // following bytes to be re-executed as commands — request smuggling).
  RequestParser p;
  Request r;
  std::string err;
  p.Feed("set k 0 0 18446744073709551614\r\nget probe\r\n");
  ASSERT_EQ(p.Next(&r, &err), RequestParser::Status::kError);
  EXPECT_NE(err.find("payload exceeds"), std::string::npos) << err;
  // The parser resynced exactly past the bad line; the next request parses.
  ASSERT_EQ(p.Next(&r, &err), RequestParser::Status::kOk);
  EXPECT_EQ(r.command, Command::kGet);
  EXPECT_EQ(r.key, "probe");
  EXPECT_EQ(p.buffered(), 0u);
}

TEST(RequestParser, RejectsPayloadJustAboveCapAndAcceptsAtCap) {
  RequestParser p;
  Request r;
  std::string err;
  p.Feed("sar k 1 " + std::to_string(kMaxPayloadBytes + 1) + "\r\n");
  EXPECT_EQ(p.Next(&r, &err), RequestParser::Status::kError);

  // At the cap the claim is legal and the parser simply waits for the data.
  RequestParser q;
  q.Feed("set k 0 0 " + std::to_string(kMaxPayloadBytes) + "\r\n");
  EXPECT_EQ(q.Next(&r, &err), RequestParser::Status::kNeedMore);
}

TEST(ResponseCodec, HugeLengthClaimsNeverCompleteNorWrap) {
  // Client side of the same hardening: VALUE/QVALUE sizes near SIZE_MAX must
  // not wrap `block_eol + 2 + size + 2` into an accepted parse.
  std::size_t consumed = 0;
  Response r;
  EXPECT_EQ(ParseResponse("VALUE k 0 18446744073709551614\r\nEND\r\n", &r,
                          &consumed),
            ParseStatus::kError);
  EXPECT_EQ(ParseResponse("QVALUE 7 18446744073709551614\r\nx\r\n", &r,
                          &consumed),
            ParseStatus::kError);
}

// ---- release command ----------------------------------------------------------

TEST_P(ProtocolTest, ReleaseDropsOneLeaseAndKeepsBufferedWork) {
  // The whole point of `release` over `abort`: the session's buffered work
  // on other keys must survive (a plain abort would discard the delta).
  kvs().Set("count", "10");
  kvs().Set("held", "x");
  SessionId tid = kvs().GenID();
  ASSERT_EQ(kvs().IQDelta(tid, "count", DeltaOp{DeltaOp::Kind::kIncr, {}, 5}),
            QuarantineResult::kGranted);
  QaReadReply q = kvs().QaRead("held", tid);
  ASSERT_EQ(q.status, QaReadReply::Status::kGranted);
  kvs().ReleaseKey(tid, "held");
  // The Q lease on "held" is gone: another session acquires it immediately.
  SessionId other = kvs().GenID();
  EXPECT_EQ(kvs().QaRead("held", other).status,
            QaReadReply::Status::kGranted);
  kvs().Abort(other);
  kvs().Commit(tid);
  EXPECT_EQ(kvs().Get("count")->value, "15");  // delta survived the release
}

TEST_P(ProtocolTest, ReleaseKeyThenCommitAppliesTheOtherKeysDelta) {
  KvsBackend& backend = kvs();
  backend.Set("count", "1");
  backend.Set("aux", "v");
  SessionId tid = backend.GenID();
  ASSERT_EQ(backend.IQDelta(tid, "count", DeltaOp{DeltaOp::Kind::kIncr, {}, 2}),
            QuarantineResult::kGranted);
  ASSERT_EQ(backend.QaRead("aux", tid).status, QaReadReply::Status::kGranted);
  // Before the `release` wire command this mapped to Abort(tid) and silently
  // discarded the buffered delta on "count".
  backend.ReleaseKey(tid, "aux");
  backend.Commit(tid);
  EXPECT_EQ(backend.Get("count")->value, "3");
  EXPECT_EQ(server_.LeaseCount(), 0u);
}

// ---- stats parsing ------------------------------------------------------------

TEST_F(RemoteTest, ParseIQStatsInvertsFormatStats) {
  SessionId session = client_.GenID();
  client_.IQget("missing", session);  // grants one I lease
  client_.Set("k", "v");
  SessionId tid = client_.GenID();
  ASSERT_EQ(client_.QaRead("k", tid).status, QaReadReply::Status::kGranted);
  client_.Commit(tid);
  client_.Abort(session);
  IQServerStats parsed = ParseIQStats(client_.Stats());
  IQServerStats direct = server_.Stats();
  EXPECT_EQ(parsed.i_granted, direct.i_granted);
  EXPECT_EQ(parsed.q_ref_granted, direct.q_ref_granted);
  EXPECT_EQ(parsed.commits, direct.commits);
  EXPECT_EQ(parsed.aborts, direct.aborts);
  EXPECT_EQ(parsed.q_rejected, direct.q_rejected);
}

TEST(ParseIQStats, IgnoresForeignLinesAndGarbage) {
  IQServerStats s = ParseIQStats(
      "STAT bytes_used 4096\r\n"
      "STAT commits 7\r\n"
      "STAT cmd_iqget_p95_us 12\r\n"
      "STAT aborts notanumber\r\n"
      "garbage line\r\n"
      "STAT q_rejected 3\r\n");
  EXPECT_EQ(s.commits, 7u);
  EXPECT_EQ(s.q_rejected, 3u);
  EXPECT_EQ(s.aborts, 0u);  // unparsable value left at zero
}

// ---- endpoint parsing ----------------------------------------------------------

TEST(ParseEndpoints, SingleAndMultiWithDefaults) {
  std::string error;
  auto one = ParseEndpoints("127.0.0.1:4242", &error);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].host, "127.0.0.1");
  EXPECT_EQ(one[0].port, 4242);

  auto defaulted = ParseEndpoints("cache-host", &error);
  ASSERT_EQ(defaulted.size(), 1u);
  EXPECT_EQ(defaulted[0].port, 11211);  // memcached default

  auto many = ParseEndpoints("a:1,b:2,c", &error);
  ASSERT_EQ(many.size(), 3u);
  EXPECT_EQ(many[0], (Endpoint{"a", 1}));
  EXPECT_EQ(many[1], (Endpoint{"b", 2}));
  EXPECT_EQ(many[2], (Endpoint{"c", 11211}));
  EXPECT_EQ(Name(many[1]), "b:2");
}

TEST(ParseEndpoints, RejectsMalformedSpecs) {
  std::string error;
  EXPECT_TRUE(ParseEndpoints("", &error).empty());
  EXPECT_TRUE(ParseEndpoints("a:1,,b:2", &error).empty());
  EXPECT_NE(error.find("empty endpoint"), std::string::npos);
  EXPECT_TRUE(ParseEndpoints("host:notaport", &error).empty());
  EXPECT_TRUE(ParseEndpoints("host:0", &error).empty());
  EXPECT_TRUE(ParseEndpoints(":1234", &error).empty());
  EXPECT_TRUE(ParseEndpoints("host:99999", &error).empty());
}

}  // namespace
}  // namespace iq::net
