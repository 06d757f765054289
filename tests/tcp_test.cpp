// End-to-end tests of the TCP front end: TcpServer (epoll workers) driven
// both through TcpChannel/RemoteCacheClient and through raw sockets that
// misbehave on purpose (split writes, garbage, abrupt EOF).
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/iq_client.h"
#include "core/iq_server.h"
#include "net/channel.h"
#include "net/remote_backend.h"
#include "net/tcp_channel.h"
#include "net/tcp_server.h"

namespace iq::net {
namespace {

class TcpServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TcpServer::Config cfg;
    cfg.workers = 2;
    tcp_ = std::make_unique<TcpServer>(server_, cfg);
    std::string error;
    ASSERT_TRUE(tcp_->Start(&error)) << error;
  }

  std::unique_ptr<TcpChannel> Connect() {
    std::string error;
    auto ch = TcpChannel::Connect("127.0.0.1", tcp_->port(), &error);
    EXPECT_NE(ch, nullptr) << error;
    return ch;
  }

  /// A blocking raw socket to the server, for byte-level abuse.
  int RawConnect() {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(tcp_->port());
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
        << std::strerror(errno);
    int on = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, sizeof(on));
    return fd;
  }

  /// Blocking-read from fd until the accumulated bytes contain needle (or
  /// EOF/error). Returns everything read.
  static std::string ReadUntil(int fd, const std::string& needle) {
    std::string got;
    char buf[4096];
    while (got.find(needle) == std::string::npos) {
      ssize_t r = ::read(fd, buf, sizeof(buf));
      if (r <= 0) break;
      got.append(buf, static_cast<std::size_t>(r));
    }
    return got;
  }

  /// True once pred() holds, polling for up to two seconds.
  static bool Eventually(const std::function<bool()>& pred) {
    for (int i = 0; i < 400; ++i) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return pred();
  }

  IQServer server_;
  std::unique_ptr<TcpServer> tcp_;
};

TEST_F(TcpServerTest, BasicRoundTripsThroughRemoteClient) {
  auto channel = Connect();
  RemoteCacheClient client(*channel);
  EXPECT_EQ(client.Set("k", "hello"), StoreResult::kStored);
  auto item = client.Get("k");
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(item->value, "hello");
  EXPECT_FALSE(client.Get("missing").has_value());
}

TEST_F(TcpServerTest, MultiGetOverTheWire) {
  auto channel = Connect();
  RemoteCacheClient client(*channel);
  client.Set("a", "one");
  client.Set("c", "three");
  auto hits = client.MultiGet({"a", "b", "c"});
  ASSERT_EQ(hits.size(), 3u);
  ASSERT_TRUE(hits[0].has_value());
  EXPECT_EQ(hits[0]->value, "one");
  EXPECT_FALSE(hits[1].has_value());
  ASSERT_TRUE(hits[2].has_value());
  EXPECT_EQ(hits[2]->value, "three");
}

TEST_F(TcpServerTest, PipelinedRequestsSplitAtArbitraryByteBoundaries) {
  // One logical burst of pipelined requests, delivered in 3-byte slivers
  // with tiny pauses: the server must reassemble and answer all of them in
  // order on this single connection.
  int fd = RawConnect();
  std::string burst =
      "set a 0 0 1\r\nx\r\n"
      "set b 0 0 1\r\ny\r\n"
      "get a b\r\n"
      "get missing\r\n"
      "incr z 1\r\n";
  for (std::size_t off = 0; off < burst.size(); off += 3) {
    std::string piece = burst.substr(off, 3);
    ASSERT_EQ(::write(fd, piece.data(), piece.size()),
              static_cast<ssize_t>(piece.size()));
    if (off % 9 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  std::string reply = ReadUntil(fd, "NOT_FOUND\r\n");
  EXPECT_NE(reply.find("STORED\r\nSTORED\r\n"), std::string::npos);
  EXPECT_NE(reply.find("VALUE a 0 1\r\nx\r\nVALUE b 0 1\r\ny\r\nEND\r\n"),
            std::string::npos);
  EXPECT_NE(reply.find("END\r\nEND\r\nNOT_FOUND\r\n"), std::string::npos);
  ::close(fd);
}

TEST_F(TcpServerTest, MalformedInputGetsClientErrorAndConnectionSurvives) {
  int fd = RawConnect();
  std::string garbage = "frobnicate the bits\r\nget k\r\n";
  ASSERT_EQ(::write(fd, garbage.data(), garbage.size()),
            static_cast<ssize_t>(garbage.size()));
  // The bad line draws CLIENT_ERROR; the valid request after it still runs
  // on the same connection, same worker.
  std::string reply = ReadUntil(fd, "END\r\n");
  EXPECT_NE(reply.find("CLIENT_ERROR"), std::string::npos);
  EXPECT_NE(reply.find("END\r\n"), std::string::npos);

  // And the server as a whole is still healthy for other connections.
  auto channel = Connect();
  RemoteCacheClient client(*channel);
  EXPECT_EQ(client.Set("after", "ok"), StoreResult::kStored);
  ::close(fd);
}

TEST_F(TcpServerTest, QuitAndEofBothTearDownCleanly) {
  // quit: server closes the connection without a reply.
  int fd = RawConnect();
  ASSERT_EQ(::write(fd, "quit\r\n", 6), 6);
  char buf[16];
  EXPECT_EQ(::read(fd, buf, sizeof(buf)), 0);  // clean FIN, no bytes
  ::close(fd);

  // EOF: client vanishes mid-session; the worker reaps the connection.
  int fd2 = RawConnect();
  ASSERT_EQ(::write(fd2, "set k 0 0 1\r\nv\r\n", 16), 16);
  ReadUntil(fd2, "STORED\r\n");
  ::close(fd2);

  EXPECT_TRUE(Eventually([this] { return tcp_->Stats().conn_active == 0; }));
  std::uint64_t accepted = tcp_->Stats().conn_accepted;
  EXPECT_GE(accepted, 2u);

  // Still serving.
  auto channel = Connect();
  RemoteCacheClient client(*channel);
  EXPECT_TRUE(client.Get("k").has_value());
}

TEST_F(TcpServerTest, WireCountersShowUpInStats) {
  auto channel = Connect();
  RemoteCacheClient client(*channel);
  client.Set("k", "v");
  std::string stats = client.Stats();
  for (const char* name :
       {"STAT conn_accepted ", "STAT conn_active ", "STAT bytes_read ",
        "STAT bytes_written ", "STAT net_requests "}) {
    EXPECT_NE(stats.find(name), std::string::npos) << name;
  }
  TcpServerStats s = tcp_->Stats();
  EXPECT_GE(s.conn_accepted, 1u);
  EXPECT_GE(s.conn_active, 1u);
  EXPECT_GT(s.bytes_read, 0u);
  EXPECT_GT(s.bytes_written, 0u);
  EXPECT_GE(s.requests, 2u);
}

TEST(TcpNearCacheTest, RepeatedGetsWithinValidityCostOneWireRequest) {
  // The tentpole claim, asserted at the wire: once a hit carries a validity
  // grant, repeated Gets inside the interval are served from the client's
  // near cache and the server sees NO further requests.
  IQServer::Config cfg;
  cfg.near_validity = 500 * kNanosPerMilli;
  IQServer server(CacheStore::Config{}, cfg);
  TcpServer::Config net_cfg;
  net_cfg.workers = 2;
  TcpServer tcp(server, net_cfg);
  std::string error;
  ASSERT_TRUE(tcp.Start(&error)) << error;
  server.store().Set("k", "v");

  auto channel = TcpChannel::Connect("127.0.0.1", tcp.port(), &error);
  ASSERT_NE(channel, nullptr) << error;
  RemoteBackend backend(*channel);
  IQClient::Config client_cfg;
  client_cfg.near_capacity = 8;
  IQClient client(backend, client_cfg);
  auto session = client.NewSession();

  auto first = session->Get("k");
  ASSERT_EQ(first.status, ClientGetResult::Status::kHit);
  EXPECT_FALSE(first.near_hit);  // populated over the wire, grant attached

  std::uint64_t baseline = tcp.Stats().requests;
  for (int i = 0; i < 10; ++i) {
    auto r = session->Get("k");
    ASSERT_EQ(r.status, ClientGetResult::Status::kHit);
    EXPECT_TRUE(r.near_hit);
    EXPECT_EQ(r.value, "v");
    EXPECT_GT(r.near_remaining, 0);
  }
  EXPECT_EQ(tcp.Stats().requests, baseline);  // zero round trips
  EXPECT_EQ(client.near_cache()->stats().hits, 10u);
  EXPECT_EQ(server.Stats().near_grants, 1u);
  tcp.Stop();
}

TEST_F(TcpServerTest, PipelinedChannelDrainsInOrder) {
  auto channel = Connect();
  constexpr int kBatch = 32;
  for (int i = 0; i < kBatch; ++i) {
    Request r;
    r.command = Command::kSet;
    r.key = "p:" + std::to_string(i);
    r.data = std::to_string(i);
    channel->SendNoWait(r);
  }
  ASSERT_TRUE(channel->Flush());
  std::vector<Response> stored = channel->Drain();
  ASSERT_EQ(stored.size(), static_cast<std::size_t>(kBatch));
  for (const Response& r : stored) EXPECT_EQ(r.type, ResponseType::kStored);

  for (int i = 0; i < kBatch; ++i) {
    Request r;
    r.command = Command::kGet;
    r.key = "p:" + std::to_string(i);
    channel->SendNoWait(r);
  }
  ASSERT_TRUE(channel->Flush());
  std::vector<Response> got = channel->Drain();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kBatch));
  for (int i = 0; i < kBatch; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)].data, std::to_string(i))
        << "response order must match request order";
  }
}

TEST_F(TcpServerTest, ConcurrentConnectionsKeepExactCounterBalance) {
  // The acceptance gauntlet in miniature: several connections run the full
  // IQ refresh protocol (GenID/QaRead/SaR with retry on rejection) against
  // one counter. Every committed increment must land exactly once.
  {
    auto setup = Connect();
    RemoteCacheClient client(*setup);
    client.Set("n", "0");
  }
  constexpr int kThreads = 4;
  constexpr int kIncrements = 40;
  std::atomic<int> committed{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, &committed] {
      auto channel = Connect();
      ASSERT_NE(channel, nullptr);
      RemoteCacheClient client(*channel);
      for (int i = 0; i < kIncrements; ++i) {
        SessionId session = client.GenID();
        QaReadReply q = client.QaRead("n", session);
        if (q.status != QaReadReply::Status::kGranted) {
          client.Abort(session);
          --i;  // retry
          std::this_thread::sleep_for(std::chrono::microseconds(50));
          continue;
        }
        std::string next = std::to_string(std::stoll(*q.value) + 1);
        client.SaR("n", std::optional<std::string>(next), q.token);
        committed.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  auto channel = Connect();
  RemoteCacheClient check(*channel);
  EXPECT_EQ(check.Get("n")->value, std::to_string(committed.load()));
  EXPECT_EQ(committed.load(), kThreads * kIncrements);
}

TEST_F(TcpServerTest, HugeLengthClaimDrawsClientErrorWithoutDesync) {
  // `set` claiming a near-SIZE_MAX payload must not wrap the parser's
  // terminator arithmetic into accepting the request; the command draws
  // CLIENT_ERROR and the next pipelined request is answered in order.
  int fd = RawConnect();
  std::string burst = "set k 0 0 18446744073709551614\r\nget k\r\n";
  ASSERT_EQ(::write(fd, burst.data(), burst.size()),
            static_cast<ssize_t>(burst.size()));
  std::string reply = ReadUntil(fd, "END\r\n");
  EXPECT_NE(reply.find("CLIENT_ERROR"), std::string::npos);
  // Nothing was stored and the connection is still usable.
  ASSERT_EQ(::write(fd, "get k\r\n", 7), 7);
  EXPECT_NE(ReadUntil(fd, "END\r\n").find("END\r\n"), std::string::npos);
  ::close(fd);
}

/// Every reply in `bytes`, parsed in order; stops at the first that is
/// incomplete or malformed and reports how many bytes were left over.
std::vector<Response> ParseAll(std::string_view bytes, std::size_t* left) {
  std::vector<Response> out;
  while (true) {
    Response r;
    std::size_t consumed = 0;
    if (ParseResponse(bytes, &r, &consumed) != ParseStatus::kOk) break;
    out.push_back(std::move(r));
    bytes.remove_prefix(consumed);
  }
  *left = bytes.size();
  return out;
}

TEST_F(TcpServerTest, RoundTripAwaitsExactlyTheRepliesTheServerSends) {
  // One RoundTrip carrying a valid request, a malformed line, an oversized
  // payload claim, a request with a bad chunk terminator and a final get:
  // the server answers each with one reply (two CLIENT_ERRORs for the bad
  // terminator: the claimed block is skipped, then the CRLF left behind
  // reads as an empty command line).
  const std::string batch =
      "set a 0 0 1\r\nx\r\n"
      "frobnicate the bits\r\n"
      "set big 0 0 18446744073709551614\r\n"
      "set t 0 0 1\r\nxyz\r\n"
      "get a\r\n";
  ASSERT_EQ(ExpectedReplies(batch), 6u);

  // The raw server agrees: send the batch plus quit, read to EOF, count.
  int fd = RawConnect();
  std::string raw = batch + "quit\r\n";
  ASSERT_EQ(::write(fd, raw.data(), raw.size()),
            static_cast<ssize_t>(raw.size()));
  std::string all = ReadUntil(fd, "\x01never");  // until the server's FIN
  ::close(fd);
  std::size_t left = 0;
  std::vector<Response> sent = ParseAll(all, &left);
  EXPECT_EQ(left, 0u);
  ASSERT_EQ(sent.size(), ExpectedReplies(raw));
  EXPECT_EQ(sent.size(), 6u);

  auto channel = Connect();
  std::string reply;
  ASSERT_TRUE(channel->RoundTrip(batch, &reply));
  std::vector<Response> got = ParseAll(reply, &left);
  EXPECT_EQ(left, 0u);
  ASSERT_EQ(got.size(), 6u);
  EXPECT_EQ(got[0].type, ResponseType::kStored);
  for (int i = 1; i <= 4; ++i) EXPECT_EQ(got[i].type, ResponseType::kError);
  EXPECT_EQ(got[5].type, ResponseType::kValue);
  EXPECT_EQ(got[5].data, "x");
  // Nothing left over to desync the next round trip.
  ASSERT_TRUE(channel->RoundTrip("get a\r\n", &reply));
  EXPECT_EQ(reply, "VALUE a 0 1\r\nx\r\nEND\r\n");

  // quit draws no reply and the server answers nothing after it.
  const std::string with_quit = "get a\r\nquit\r\nget a\r\n";
  EXPECT_EQ(ExpectedReplies(with_quit), 1u);
  ASSERT_TRUE(channel->RoundTrip(with_quit, &reply));
  EXPECT_EQ(reply, "VALUE a 0 1\r\nx\r\nEND\r\n");
  EXPECT_FALSE(channel->RoundTrip("get a\r\n", &reply));  // closed
}

TEST(TcpServerBackpressure, UnreadResponsesThrottleInsteadOfGrowingMemory) {
  // A client that pipelines many reads of a large value and consumes none of
  // the replies must be paused (response backlog capped, EPOLLIN dropped),
  // then served to completion once it starts reading — with every response
  // intact and in order.
  IQServer server;
  TcpServer::Config cfg;
  cfg.workers = 1;
  cfg.max_response_bytes = 64u << 10;  // far below the total response volume
  TcpServer tcp(server, cfg);
  std::string error;
  ASSERT_TRUE(tcp.Start(&error)) << error;

  const std::string big(32u << 10, 'v');
  {
    auto ch = TcpChannel::Connect("127.0.0.1", tcp.port(), &error);
    ASSERT_NE(ch, nullptr) << error;
    RemoteCacheClient client(*ch);
    ASSERT_EQ(client.Set("big", big), StoreResult::kStored);
  }

  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(tcp.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
      << std::strerror(errno);

  constexpr int kGets = 200;  // ~6.4 MB of responses, 100x the cap
  std::string burst;
  for (int i = 0; i < kGets; ++i) burst += "get big\r\n";
  ASSERT_EQ(::write(fd, burst.data(), burst.size()),
            static_cast<ssize_t>(burst.size()));

  const std::string one_response =
      "VALUE big 0 " + std::to_string(big.size()) + "\r\n" + big + "\r\nEND\r\n";
  std::string got;
  got.reserve(one_response.size() * kGets);
  char buf[64 * 1024];
  while (got.size() < one_response.size() * kGets) {
    ssize_t r = ::read(fd, buf, sizeof(buf));
    ASSERT_GT(r, 0) << "connection died under backpressure";
    got.append(buf, static_cast<std::size_t>(r));
  }
  for (int i = 0; i < kGets; ++i) {
    EXPECT_EQ(got.compare(i * one_response.size(), one_response.size(),
                          one_response),
              0)
        << "response " << i << " corrupted or out of order";
  }
  ::close(fd);
}

// A server that accepts the connection and then never replies must not hang
// the client: the io deadline expires, the operation fails as a transport
// error, and the channel reports itself dead.
TEST(TcpChannelDeadlineTest, SilentServerTripsTheIoDeadline) {
  int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(lfd, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  // Accept in the background, read the request, never answer.
  std::thread mute([lfd] {
    int fd = ::accept(lfd, nullptr, nullptr);
    if (fd >= 0) {
      char buf[256];
      while (::read(fd, buf, sizeof(buf)) > 0) {
      }
      ::close(fd);
    }
  });

  TcpChannel::Options opt;
  opt.connect_timeout_ms = 1000;
  opt.io_timeout_ms = 100;
  std::string error;
  auto channel =
      TcpChannel::Connect("127.0.0.1", ntohs(addr.sin_port), opt, &error);
  ASSERT_NE(channel, nullptr) << error;

  const Clock& clock = SteadyClock::Instance();
  Nanos start = clock.Now();
  std::string reply;
  EXPECT_FALSE(channel->RoundTrip("get k\r\n", &reply));
  Nanos elapsed = clock.Now() - start;
  EXPECT_GE(elapsed, 90 * kNanosPerMilli);  // waited for the deadline...
  EXPECT_LT(elapsed, 2 * kNanosPerSec);     // ...but nowhere near forever
  // The deadline tore the connection down; later operations fail fast.
  EXPECT_FALSE(channel->RoundTrip("get k\r\n", &reply));

  channel.reset();  // EOF lets the mute server's read loop exit
  mute.join();
  ::close(lfd);
}

TEST_F(TcpServerTest, StopIsIdempotentAndDropsConnections) {
  auto channel = Connect();
  RemoteCacheClient client(*channel);
  client.Set("k", "v");
  tcp_->Stop();
  tcp_->Stop();  // second call is a no-op
  EXPECT_EQ(tcp_->Stats().conn_active, 0u);
}

/// TcpServerTest with four workers, so concurrent connections really run
/// on different threads against the shared store.
class FourWorkerServerTest : public TcpServerTest {
 protected:
  void SetUp() override {
    TcpServer::Config cfg;
    cfg.workers = 4;
    tcp_ = std::make_unique<TcpServer>(server_, cfg);
    std::string error;
    ASSERT_TRUE(tcp_->Start(&error)) << error;
  }

  /// `per_shard` keys on each of the store's shards, so one burst or one
  /// session touches every shard lock.
  std::vector<std::string> KeysSpanningShards(std::size_t per_shard) {
    const CacheStore& store = server_.store();
    std::vector<std::size_t> seen(store.shard_count(), 0);
    std::vector<std::string> keys;
    for (int i = 0; keys.size() < seen.size() * per_shard; ++i) {
      std::string key = "span:" + std::to_string(i);
      std::size_t shard = store.ShardIndexFor(key);
      if (seen[shard] >= per_shard) continue;
      ++seen[shard];
      keys.push_back(std::move(key));
    }
    return keys;
  }
};

TEST_F(FourWorkerServerTest, QuitAfterPipelinedBatchAnswersEverythingFirst) {
  // quit arrives pipelined behind 32 gets (two per shard): the connection
  // must linger until every reply has flushed, and only then FIN.
  std::vector<std::string> keys = KeysSpanningShards(2);
  int fd = RawConnect();
  std::string burst;
  for (const std::string& key : keys) burst += "get " + key + "\r\n";
  burst += "quit\r\n";
  ASSERT_EQ(::write(fd, burst.data(), burst.size()),
            static_cast<ssize_t>(burst.size()));
  std::string got;
  char buf[4096];
  while (true) {
    ssize_t r = ::read(fd, buf, sizeof(buf));
    if (r <= 0) break;  // FIN only after the whole batch
    got.append(buf, static_cast<std::size_t>(r));
  }
  std::size_t ends = 0;
  for (std::size_t pos = 0; (pos = got.find("END\r\n", pos)) != std::string::npos;
       pos += 5) {
    ++ends;
  }
  EXPECT_EQ(ends, keys.size());
  ::close(fd);
  EXPECT_TRUE(Eventually([this] { return tcp_->Stats().conn_active == 0; }));
}

TEST_F(FourWorkerServerTest, MultiShardSessionCommitReleasesAllLeases) {
  // One session quarantines keys on every shard, then commits over TCP: the
  // fan-out must delete all of them and leave no lease behind.
  std::vector<std::string> keys = KeysSpanningShards(2);
  auto channel = Connect();
  RemoteCacheClient client(*channel);
  for (const std::string& key : keys) {
    ASSERT_EQ(client.Set(key, "stale"), StoreResult::kStored);
  }
  SessionId tid = client.GenID();
  for (const std::string& key : keys) {
    ASSERT_EQ(client.QaReg(tid, key), QuarantineResult::kGranted) << key;
  }
  ASSERT_TRUE(client.Commit(tid));
  for (const std::string& key : keys) {
    EXPECT_FALSE(client.Get(key).has_value()) << key << " not invalidated";
  }
  EXPECT_EQ(server_.LeaseCount(), 0u);
}

// ---- the prefetch window changes no reply ---------------------------------

/// A fresh server (its own IQServer, so token and cas counters restart)
/// with w0..w19 stored, reachable over raw sockets.
struct TranscriptServer {
  TranscriptServer() {
    for (int i = 0; i < 20; ++i) {
      iq.store().Set("w" + std::to_string(i), "v" + std::to_string(i));
    }
    TcpServer::Config cfg;
    cfg.workers = 2;
    tcp = std::make_unique<TcpServer>(iq, cfg);
    std::string error;
    EXPECT_TRUE(tcp->Start(&error)) << error;
  }

  int Connect() const {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(tcp->port());
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    int on = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, sizeof(on));
    return fd;
  }

  IQServer iq;
  std::unique_ptr<TcpServer> tcp;
};

/// 40 requests ending in quit: get, gets, iqget (hits and one miss), set,
/// multi-key get, a malformed line and an oversized payload claim. `gets`
/// (which shows cas) only reads keys the burst never writes, and only one
/// request draws a lease token.
std::vector<std::string> TranscriptRequests() {
  std::vector<std::string> reqs;
  for (int i = 0; reqs.size() < 39; ++i) {
    const std::string w = "w" + std::to_string(i % 20);
    const std::string s = "s" + std::to_string(i);
    switch (i % 6) {
      case 0: reqs.push_back("get " + w + "\r\n"); break;
      case 1: reqs.push_back("gets " + w + "\r\n"); break;
      case 2: reqs.push_back("iqget " + w + " 0\r\n"); break;
      case 3: {
        const std::string v = "value-" + std::to_string(i);
        reqs.push_back("set " + s + " 0 0 " + std::to_string(v.size()) +
                       "\r\n" + v + "\r\n");
        break;
      }
      case 4:
        reqs.push_back("iqget s" + std::to_string(i - 1) + " 0\r\n");
        break;
      case 5:
        reqs.push_back("get " + w + " s" + std::to_string(i - 2) +
                       " nothere\r\n");
        break;
    }
    if (reqs.size() == 10) reqs.push_back("frobnicate the bits\r\n");
    if (reqs.size() == 25) {
      reqs.push_back("set big 0 0 18446744073709551614\r\n");
    }
    if (reqs.size() == 30) reqs.push_back("iqget absent 7\r\n");
  }
  reqs.resize(39);
  reqs.push_back("quit\r\n");
  return reqs;
}

/// Each request written alone and its one reply read before the next; quit
/// draws none. Returns every reply byte in order.
std::string OneAtATime(const std::vector<std::string>& reqs) {
  TranscriptServer srv;
  int fd = srv.Connect();
  std::string replies;
  std::string pending;
  char buf[4096];
  for (const std::string& req : reqs) {
    EXPECT_EQ(::write(fd, req.data(), req.size()),
              static_cast<ssize_t>(req.size()));
    if (req == "quit\r\n") break;
    std::size_t consumed = 0;
    while (ParseResponse(pending, nullptr, &consumed) != ParseStatus::kOk) {
      ssize_t r = ::read(fd, buf, sizeof(buf));
      if (r <= 0) {
        ADD_FAILURE() << "connection ended before the reply to " << req;
        ::close(fd);
        return replies;
      }
      pending.append(buf, static_cast<std::size_t>(r));
    }
    EXPECT_EQ(consumed, pending.size()) << "more than one reply to " << req;
    replies += pending;
    pending.clear();
  }
  EXPECT_EQ(::read(fd, buf, sizeof(buf)), 0);  // quit: FIN, no reply
  ::close(fd);
  return replies;
}

/// The whole burst pipelined, written in pieces that end at `cuts` (byte
/// offsets), with a pause after each so the server reads them separately.
/// Returns everything the server sent before its FIN.
std::string Pipelined(const std::vector<std::string>& reqs,
                      const std::vector<std::size_t>& cuts) {
  std::string burst;
  for (const std::string& req : reqs) burst += req;
  TranscriptServer srv;
  int fd = srv.Connect();
  std::size_t at = 0;
  for (std::size_t cut : cuts) {
    EXPECT_EQ(::write(fd, burst.data() + at, cut - at),
              static_cast<ssize_t>(cut - at));
    at = cut;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(::write(fd, burst.data() + at, burst.size() - at),
            static_cast<ssize_t>(burst.size() - at));
  std::string all;
  char buf[4096];
  for (ssize_t r; (r = ::read(fd, buf, sizeof(buf))) > 0;) {
    all.append(buf, static_cast<std::size_t>(r));
  }
  ::close(fd);
  return all;
}

TEST(PrefetchWindowTest, PipelinedBurstRepliesMatchOneAtATime) {
  const std::vector<std::string> reqs = TranscriptRequests();
  ASSERT_EQ(reqs.size(), 40u);
  const std::string want = OneAtATime(reqs);
  std::size_t left = 0;
  ASSERT_EQ(ParseAll(want, &left).size(), 39u);
  EXPECT_EQ(left, 0u);
  EXPECT_NE(want.find("CLIENT_ERROR"), std::string::npos);
  EXPECT_NE(want.find("MISS_TOKEN"), std::string::npos);
  EXPECT_EQ(Pipelined(reqs, {}), want);
}

TEST(PrefetchWindowTest, WindowWhoseLastRequestIsSplitAcrossReads) {
  // The first window is the first request plus the 15 buffered behind it.
  // Cut the burst inside the window's last request, and again inside a
  // later set's payload: the first read frames a short window, and the
  // request completes only in a later read.
  const std::vector<std::string> reqs = TranscriptRequests();
  std::size_t window_end = 0;  // offset of request 16's first byte
  for (std::size_t i = 0; i < CacheStore::kPrefetchWindow; ++i) {
    window_end += reqs[i].size();
  }
  const std::size_t mid_last = window_end - reqs[15].size() / 2;
  std::size_t set_at = window_end;
  std::size_t i = CacheStore::kPrefetchWindow;
  for (; reqs[i].rfind("set s", 0) != 0; ++i) set_at += reqs[i].size();
  const std::size_t mid_payload = set_at + reqs[i].size() - 4;
  EXPECT_EQ(Pipelined(reqs, {mid_last, mid_payload}), OneAtATime(reqs));
}

}  // namespace
}  // namespace iq::net
