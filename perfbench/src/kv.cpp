// kv_pipelined: iqcached-style traffic over TCP. Two client threads, one
// connection each, send batches of 16 requests (95% IQget, 5% set) with a
// single Flush and collect the replies with a single Drain. Keys follow a
// scrambled Zipf 0.99; each thread owns half of the 100k keys, so it knows
// the exact value it stored last under every key it reads and can check
// every hit byte for byte.

#include "core/iq_server.h"
#include "net/tcp_channel.h"
#include "net/tcp_server.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr std::uint64_t kKeys = 100'000;
constexpr std::size_t kValueBytes = 100;
constexpr int kClients = 2;
constexpr int kServerWorkers = 2;
constexpr int kBatch = 16;
constexpr double kSetShare = 0.05;
constexpr double kZipfTheta = 0.99;
constexpr std::uint64_t kKeysPerClient = kKeys / kClients;

std::string Key(std::uint64_t id) { return "kv:" + std::to_string(id); }

/// The value stored under key `id` at `version`: a readable prefix padded
/// to kValueBytes with letters drawn from the seed.
std::string Value(std::uint64_t id, std::uint32_t version,
                  std::uint64_t seed) {
  std::string v = std::to_string(id) + "." + std::to_string(version) + ":";
  std::uint64_t h = seed ^ (id * 0x9E3779B97F4A7C15ULL) ^ version;
  while (v.size() < kValueBytes) {
    h = h * 6364136223846793005ULL + 1442695040888963407ULL;
    v.push_back(static_cast<char>('a' + (h >> 32) % 26));
  }
  return v;
}

struct KvFixture {
  iq::IQServer server{iq::CacheStore::Config{}, iq::IQServer::Config{}};
  std::unique_ptr<iq::net::TcpServer> wire;
  std::vector<std::unique_ptr<iq::net::TcpChannel>> channels;
};

/// Per client thread: the version last stored under each owned key, and
/// the request/reply tally behind the "replies == requests" check.
struct ClientState {
  std::vector<std::uint32_t> versions =
      std::vector<std::uint32_t>(kKeysPerClient, 0);
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  std::uint64_t wrong = 0;  // replies with the wrong status or value
  std::string first_problem;
  bool dead = false;  // the connection failed; the thread stopped
};

struct KvPhase {
  WindowResult window;
  Counters delta;
};

/// One closed-loop phase. `seed` fixes the stored values; `phase_seed` the
/// keys and verbs this phase draws.
KvPhase RunPhase(KvFixture& f, std::vector<ClientState>& clients,
                 double seconds, std::uint64_t seed, std::uint64_t phase_seed,
                 SpanRecorder* recorder) {
  const std::uint32_t batch_span =
      recorder != nullptr ? recorder->NameId("kv.batch") : 0;
  iq::Rng seeder(phase_seed);
  std::vector<iq::Rng> rngs;
  for (int i = 0; i < kClients; ++i) rngs.push_back(seeder.Fork());
  CounterSources sources;
  sources.servers = {&f.server};
  sources.wire = {f.wire.get()};
  Counters before;
  KvPhase phase;
  phase.window = ClosedLoop::Run(
      kClients, seconds,
      [&](int i, LoopThread& t) {
        auto c = static_cast<std::size_t>(i);
        if (recorder != nullptr) recorder->AttachThisThread();
        ClientState& st = clients[c];
        iq::net::TcpChannel& channel = *f.channels[c];
        iq::Rng& rng = rngs[c];  // advances across rounds
        iq::ScrambledZipfian zipf(kKeysPerClient, kZipfTheta);
        const std::uint64_t base = c * kKeysPerClient;
        struct Slot {
          std::uint64_t id;
          std::uint32_t version;
          bool set;
        };
        Slot slots[kBatch];
        iq::net::Request request;
        while (t.Running() && !st.dead) {
          std::uint64_t sets = 0;
          for (Slot& slot : slots) {
            std::uint64_t local = zipf.Next(rng);
            slot.id = base + local;
            slot.set = rng.NextDouble() < kSetShare;
            if (slot.set) {
              ++sets;
              slot.version = ++st.versions[local];
              request.command = iq::net::Command::kSet;
              request.data = Value(slot.id, slot.version, seed);
            } else {
              slot.version = st.versions[local];
              request.command = iq::net::Command::kIQGet;
              request.data.clear();
            }
            request.key = Key(slot.id);
            request.session = 0;
            channel.SendNoWait(request);
          }
          st.sent += kBatch;
          Nanos start = NowNanos();
          std::vector<iq::net::Response> replies;
          {
            SpanScope root(batch_span);  // a no-op in an untraced phase
            if (channel.Flush()) replies = channel.Drain();
          }
          Nanos latency = NowNanos() - start;
          st.received += replies.size();
          std::uint64_t bad = kBatch - replies.size();
          for (std::size_t k = 0; k < replies.size(); ++k) {
            const Slot& slot = slots[k];
            const iq::net::Response& r = replies[k];
            bool good =
                slot.set ? r.type == iq::net::ResponseType::kStored
                         : r.type == iq::net::ResponseType::kValue &&
                               r.data == Value(slot.id, slot.version, seed);
            if (!good) {
              ++bad;
              if (st.first_problem.empty()) {
                st.first_problem = (slot.set ? "set " : "iqget ") +
                                   Key(slot.id) + " got '" + r.data + "'";
              }
            }
          }
          if (replies.size() != static_cast<std::size_t>(kBatch)) {
            st.dead = true;  // transport error or short drain
            if (st.first_problem.empty()) st.first_problem = "short drain";
          }
          st.wrong += bad;
          t.Record(latency, kBatch, bad, 0, sets);
        }
        if (recorder != nullptr) recorder->DetachThisThread();
      },
      [&] { before = Snapshot(sources); },
      [&] { Accumulate(phase.delta, Snapshot(sources), before); });
  return phase;
}

std::unique_ptr<KvFixture> MakeFixture(std::uint64_t seed,
                                       std::string* error) {
  auto f = std::make_unique<KvFixture>();
  for (std::uint64_t id = 0; id < kKeys; ++id) {
    f->server.store().Set(Key(id), Value(id, 0, seed));
  }
  iq::net::TcpServer::Config cfg;
  cfg.workers = kServerWorkers;
  f->wire = std::make_unique<iq::net::TcpServer>(f->server, cfg);
  if (!f->wire->Start(error)) return nullptr;
  for (int c = 0; c < kClients; ++c) {
    f->channels.push_back(
        iq::net::TcpChannel::Connect("127.0.0.1", f->wire->port(), error));
    if (f->channels.back() == nullptr) return nullptr;
  }
  return f;
}

}  // namespace

RunReport RunKvPipelined(const Options& options) {
  RunReport report;
  std::unique_ptr<KvFixture> f = SetUpRepeatedly<KvFixture>(
      [&options](std::string* error) {
        return MakeFixture(options.seed, error);
      },
      report);
  if (f == nullptr) return report;

  std::vector<ClientState> clients(kClients);
  if (!options.trace) {
    report.window =
        RunPhase(*f, clients, options.seconds, options.seed, options.seed,
                 nullptr)
            .window;
  } else {
    SpanRecorder recorder;
    KvPhase plain = RunPhase(*f, clients, options.seconds / 2, options.seed,
                             options.seed, nullptr);
    KvPhase traced = RunPhase(*f, clients, options.seconds / 2, options.seed,
                              options.seed + 1, &recorder);
    report.window = plain.window;
    report.traced = traced.window;
    LayerInputs in;
    in.untraced = plain.window;
    in.traced = traced.window;
    in.delta = traced.delta;
    in.spans = recorder.Aggregate();
    report.per_layer = PerLayerMetrics(in);
    if (!options.span_path.empty() && !recorder.Dump(options.span_path)) {
      report.Fail("cannot write spans to " + options.span_path);
    }
  }

  for (std::size_t c = 0; c < clients.size(); ++c) {
    const ClientState& st = clients[c];
    if (st.received != st.sent) {
      report.Fail("client " + std::to_string(c) + " sent " +
                  std::to_string(st.sent) + " requests but got " +
                  std::to_string(st.received) + " replies");
    }
    if (st.wrong != 0) {
      report.Fail("client " + std::to_string(c) + ": " +
                  std::to_string(st.wrong) + " wrong replies, first: " +
                  st.first_problem);
    }
    // After the loop quiesces, every key holds the value stored last.
    for (std::uint64_t local = 0; local < kKeysPerClient; ++local) {
      std::uint64_t id = c * kKeysPerClient + local;
      auto item = f->server.store().Get(Key(id));
      if (!item || item->value != Value(id, st.versions[local], options.seed)) {
        report.Fail("key " + Key(id) + " does not hold its last stored value");
        break;
      }
    }
  }
  std::string bad = f->server.store().CheckInvariants();
  if (!bad.empty()) report.Fail("invariants: " + bad);
  if (std::size_t leases = f->server.LeaseCount(); leases != 0) {
    report.Fail(std::to_string(leases) + " leases held after the run");
  }
  return report;
}

}  // namespace perfbench
