// The IQ command set over the memcached text protocol: what actually goes
// on the wire between an application (IQ-Client / Whalin) and the cache
// server (IQ-Twemcached). Useful for eyeballing the protocol and for
// writing clients in other languages.
//
// Build & run:  ./build/examples/wire_protocol
#include "core/iq_server.h"
#include <cstdio>

#include "net/remote_backend.h"

using namespace iq;
using namespace iq::net;

namespace {

/// A channel wrapper that prints every exchange.
class TracingChannel final : public Channel {
 public:
  explicit TracingChannel(Channel& inner) : inner_(inner) {}

  bool RoundTrip(const std::string& request_bytes,
                 std::string* reply) override {
    bool ok = inner_.RoundTrip(request_bytes, reply);
    Show(">", request_bytes);
    Show("<", ok ? *reply : "(transport failure)");
    return ok;
  }

 private:
  static void Show(const char* dir, const std::string& bytes) {
    std::string printable;
    for (char c : bytes) {
      if (c == '\r') {
        printable += "\\r";
      } else if (c == '\n') {
        printable += "\\n  ";
      } else {
        printable += c;
      }
    }
    while (printable.size() >= 2 && printable.ends_with("  ")) {
      printable.pop_back();
    }
    std::printf("  %s %s\n", dir, printable.c_str());
  }

  Channel& inner_;
};

}  // namespace

int main() {
  IQServer server;
  LoopbackChannel loopback(server);
  TracingChannel wire(loopback);
  RemoteBackend client(wire);

  std::printf("-- read session: miss, I lease, recompute, install --\n");
  SessionId reader = client.GenID();
  GetReply miss = client.IQget("profile:1", reader);
  client.IQset("profile:1", "alice|7|0", miss.token);
  client.IQget("profile:1", reader);

  std::printf("\n-- write session (refresh): QaRead ... SaR --\n");
  SessionId writer = client.GenID();
  QaReadReply q = client.QaRead("profile:1", writer);
  client.SaR("profile:1", std::optional<std::string>("alice|7|1"), q.token);

  std::printf("\n-- write session (invalidate): QaReg ... DaR --\n");
  SessionId tid = client.GenID();
  client.QaReg(tid, "profile:1");
  client.DaR(tid);

  std::printf("\n-- write session (incremental): IQ-delta ... commit --\n");
  client.Set("pending:1", "3");
  SessionId delta_tid = client.GenID();
  client.IQDelta(delta_tid, "pending:1", DeltaOp{DeltaOp::Kind::kIncr, {}, 1});
  client.Commit(delta_tid);
  client.Get("pending:1");

  std::printf("\n-- server statistics --\n");
  std::string stats = client.Stats();
  std::printf("%s", stats.c_str());
  return 0;
}
