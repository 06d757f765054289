// Robustness fuzzing: random and mutated byte streams against the protocol
// parser and the full dispatcher. The server must never crash, hang, or
// corrupt state on arbitrary input - it may only answer with errors.
#include <gtest/gtest.h>

#include "net/channel.h"
#include "net/remote_backend.h"
#include "util/rng.h"

namespace iq::net {
namespace {

std::string RandomBytes(Rng& rng, std::size_t max_len) {
  std::size_t len = rng.NextUint64(max_len);
  std::string out;
  out.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    out += static_cast<char>(rng.NextUint64(256));
  }
  return out;
}

/// Mutate a valid request: flip bytes, truncate, duplicate.
std::string Mutate(Rng& rng, std::string bytes) {
  switch (rng.NextUint64(4)) {
    case 0: {  // flip a byte
      if (!bytes.empty()) {
        bytes[rng.NextUint64(bytes.size())] =
            static_cast<char>(rng.NextUint64(256));
      }
      return bytes;
    }
    case 1:  // truncate
      return bytes.substr(0, rng.NextUint64(bytes.size() + 1));
    case 2:  // duplicate a prefix
      return bytes.substr(0, rng.NextUint64(bytes.size() + 1)) + bytes;
    default:  // splice random garbage into the middle
      if (bytes.empty()) return bytes;
      return bytes.substr(0, bytes.size() / 2) + RandomBytes(rng, 8) +
             bytes.substr(bytes.size() / 2);
  }
}

class FuzzSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeedTest, ParserSurvivesRandomBytes) {
  Rng rng(GetParam());
  RequestParser parser;
  for (int round = 0; round < 2000; ++round) {
    parser.Feed(RandomBytes(rng, 64));
    Request req;
    std::string error;
    // Drain until the parser wants more input; every outcome is fine as
    // long as nothing crashes and errors carry a message.
    for (int i = 0; i < 100; ++i) {
      auto status = parser.Next(&req, &error);
      if (status == RequestParser::Status::kNeedMore) break;
      if (status == RequestParser::Status::kError) {
        EXPECT_FALSE(error.empty());
      }
    }
    // The buffer must not grow without bound on garbage (only an
    // incomplete trailing request may remain).
    if (parser.buffered() > 1 << 20) {
      FAIL() << "parser buffer ballooned";
    }
  }
}

TEST_P(FuzzSeedTest, ParserSurvivesMutatedValidRequests) {
  Rng rng(GetParam() + 1000);
  RequestParser parser;
  const std::string templates[] = {
      "set key 0 0 5\r\nhello\r\n",
      "get key\r\n",
      "cas key 1 0 3 42\r\nabc\r\n",
      "iqget key 7\r\n",
      "qaread key 7\r\n",
      "sar key 9 4\r\ndata\r\n",
      "iqappend 3 key 2\r\nxy\r\n",
      "commit 3\r\n",
  };
  for (int round = 0; round < 2000; ++round) {
    std::string bytes =
        Mutate(rng, templates[rng.NextUint64(std::size(templates))]);
    parser.Feed(bytes);
    Request req;
    std::string error;
    for (int i = 0; i < 100; ++i) {
      auto status = parser.Next(&req, &error);
      if (status == RequestParser::Status::kNeedMore) break;
    }
    // Periodically hard-reset by feeding a terminator so truncated data
    // blocks cannot starve the stream forever.
    if (round % 50 == 49) {
      parser.Feed("\r\nget reset\r\n");
      for (int i = 0; i < 200; ++i) {
        if (parser.Next(&req, &error) == RequestParser::Status::kNeedMore) {
          break;
        }
      }
    }
  }
  SUCCEED();
}

TEST_P(FuzzSeedTest, DispatcherSurvivesGarbageRoundTrips) {
  Rng rng(GetParam() + 2000);
  IQServer server;
  LoopbackChannel channel(server);
  for (int round = 0; round < 500; ++round) {
    std::string reply;
    EXPECT_TRUE(channel.RoundTrip(RandomBytes(rng, 48) + "\r\n", &reply));
  }
  // The server still works after the abuse.
  RemoteBackend client(channel);
  EXPECT_EQ(client.Set("sane", "value"), StoreResult::kStored);
  EXPECT_EQ(client.Get("sane")->value, "value");
}

/// The framing-only scan must agree with the full parse on any input: same
/// status, and on success the same length.
void ExpectFramingMatchesParse(std::string_view bytes) {
  Response resp;
  std::size_t parsed = 0;
  std::size_t framed = 0;
  ParseStatus full = ParseResponse(bytes, &resp, &parsed);
  ParseStatus frame = ParseResponse(bytes, nullptr, &framed);
  ASSERT_EQ(full, frame) << bytes;
  if (full == ParseStatus::kOk) {
    EXPECT_EQ(parsed, framed) << bytes;
    EXPECT_LE(parsed, bytes.size());
  }
}

TEST_P(FuzzSeedTest, ResponseParserSurvivesRandomBytes) {
  Rng rng(GetParam() + 3000);
  for (int round = 0; round < 2000; ++round) {
    ExpectFramingMatchesParse(RandomBytes(rng, 64));
  }
}

TEST_P(FuzzSeedTest, ResponseParserSurvivesMutatedReplies) {
  Rng rng(GetParam() + 4000);
  const std::string templates[] = {
      "VALUE key 0 5\r\nhello\r\nEND\r\n",
      "VALUE a 1 1 7 T99\r\nx\r\nVALUE b 2 2\r\nyz\r\nEND\r\n",
      "QVALUE 9 3\r\nabc\r\n",
      "METRICS 4\r\n# x\n\r\n",
      "STAT a 1\r\nSTAT b 2\r\nEND\r\n",
      "TRACE_INFO 1 0 8\r\nTRACE 1 2 0 release 3 4\r\nEND\r\n",
      "MISS_TOKEN 42\r\n",
      "STORED\r\n",
      "12345\r\n",
      "CLIENT_ERROR\r\n",
      "CLIENT_ERROR bad argument count\r\n",
      "SERVER_ERROR\r\n",
      "SERVER_ERROR out of memory\r\n",
  };
  for (int round = 0; round < 2000; ++round) {
    ExpectFramingMatchesParse(
        Mutate(rng, templates[rng.NextUint64(std::size(templates))]));
  }
  // Unmutated, every template is one whole reply.
  for (const std::string& t : templates) {
    std::size_t consumed = 0;
    EXPECT_EQ(ParseResponse(t, nullptr, &consumed), ParseStatus::kOk) << t;
    EXPECT_EQ(consumed, t.size()) << t;
  }
}

TEST_P(FuzzSeedTest, ExpectedRepliesMatchesTheParser) {
  // The client's framing-only request count must follow the server's
  // parser exactly: one reply per request or error, none from quit on.
  Rng rng(GetParam() + 5000);
  const std::string templates[] = {
      "set key 0 0 5\r\nhello\r\n", "get a b c\r\n",
      "iqget key 7\r\n",             "sar key 9 4\r\ndata\r\n",
      "set k 0 0 99999999999\r\n",    "frobnicate\r\n",
      "quit\r\n",
  };
  for (int round = 0; round < 500; ++round) {
    std::string bytes;
    for (int i = 0; i < 4; ++i) {
      std::string t = templates[rng.NextUint64(std::size(templates))];
      bytes += rng.NextUint64(3) == 0 ? Mutate(rng, t) : t;
    }
    RequestParser parser;
    parser.Feed(bytes);
    Request req;
    std::string error;
    std::size_t replies = 0;
    while (true) {
      auto status = parser.Next(&req, &error);
      if (status == RequestParser::Status::kNeedMore) break;
      if (status == RequestParser::Status::kOk &&
          req.command == Command::kQuit) {
        break;
      }
      ++replies;
    }
    EXPECT_EQ(ExpectedReplies(bytes), replies) << bytes;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeedTest,
                         ::testing::Values(11, 22, 33, 44, 55));

}  // namespace
}  // namespace iq::net
