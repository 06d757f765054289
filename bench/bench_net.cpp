// bench_net: round trips/sec over loopback TCP vs pipeline depth.
//
// Measures the cost the LoopbackChannel was hiding (syscalls, wakeups) and
// what client-side pipelining buys back:
//   - loopback       in-process Channel baseline, depth 1
//   - tcp depth 1    one request per write/read pair (memcached default)
//   - tcp depth 8/64 SendNoWait x N -> Flush (one write) -> Drain
//   - wire floor     1-byte echo with the depth-1 cell's threads, sockets
//                    and polling, minus the protocol: the attainable rate
//
// Every cell runs kClientThreads concurrent clients (one connection each
// for TCP), the way a cache server is actually loaded: the server drains
// whatever is ready per epoll wakeup, so per-round-trip scheduler costs
// amortize across connections instead of being serialized through one.
//
// The op mix is 1 set : 3 get over a small keyspace with 100-byte values —
// small requests, where per-round-trip overhead dominates, i.e. the case
// pipelining exists for.
//
// Output: a human table on stdout and a JSON record (BENCH_net.json by
// default, override with IQ_BENCH_NET_OUT) so CI can track the trajectory.
// Env knobs: IQ_BENCH_SECONDS (measurement window per cell, default 1.0).
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "bench_common.h"
#include "core/iq_server.h"
#include "net/channel.h"
#include "net/tcp_channel.h"
#include "net/tcp_server.h"

using namespace iq;

namespace {

constexpr int kClientThreads = 4;
constexpr int kServerWorkers = 2;  // TcpServer workers in the tcp cells
constexpr int kKeys = 64;
constexpr std::size_t kValueBytes = 100;

/// Build the i-th request of the 1-set:3-get mix.
net::Request MixRequest(std::uint64_t i) {
  net::Request r;
  std::string key = "k:" + std::to_string(i % kKeys);
  if (i % 4 == 0) {
    r.command = net::Command::kSet;
    r.key = std::move(key);
    r.data.assign(kValueBytes, 'v');
  } else {
    r.command = net::Command::kGet;
    r.key = std::move(key);
  }
  return r;
}

/// Aggregate requests/sec of kClientThreads threads, each driving its own
/// channel until the shared deadline. make_channel is called per thread.
/// Depth 1 is one RoundTrip per request on any channel; a deeper pipeline
/// needs TcpChannel's SendNoWait/Flush/Drain.
template <typename MakeChannel>
double MeasureThreads(const MakeChannel& make_channel, int depth,
                      Nanos window) {
  const Clock& clock = SteadyClock::Instance();
  Nanos deadline = clock.Now() + window;
  std::atomic<std::uint64_t> total{0};
  std::vector<std::thread> threads;
  threads.reserve(kClientThreads);
  for (int t = 0; t < kClientThreads; ++t) {
    threads.emplace_back([&, t] {
      auto channel = make_channel();
      std::uint64_t count = static_cast<std::uint64_t>(t) * 7;  // decorrelate
      std::string bytes;
      std::string reply;
      while (clock.Now() < deadline) {
        if constexpr (std::is_same_v<decltype(*channel), net::TcpChannel&>) {
          if (depth > 1) {
            for (int i = 0; i < depth; ++i) {
              channel->SendNoWait(
                  MixRequest(count + static_cast<std::uint64_t>(i)));
            }
            channel->Flush();
            std::vector<net::Response> responses = channel->Drain();
            if (static_cast<int>(responses.size()) != depth) {
              std::fprintf(stderr, "bench_net: short drain (%zu of %d)\n",
                           responses.size(), depth);
              std::exit(1);
            }
            count += static_cast<std::uint64_t>(depth);
            total.fetch_add(static_cast<std::uint64_t>(depth),
                            std::memory_order_relaxed);
            continue;
          }
        }
        bytes.clear();
        net::AppendTo(MixRequest(count), &bytes);
        if (!channel->RoundTrip(bytes, &reply)) {
          std::fprintf(stderr, "bench_net: transport failure\n");
          std::exit(1);
        }
        ++count;
        total.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : threads) th.join();
  return static_cast<double>(total.load()) /
         (static_cast<double>(window) / kNanosPerSec);
}

/// Read at least one byte from non-blocking `fd` with TcpChannel's
/// discipline: spin on EAGAIN (multicore only), then block in poll().
bool SpinThenPollRead(int fd, char* buf, std::size_t size) {
  int spins = std::thread::hardware_concurrency() > 1 ? 400 : 0;
  while (true) {
    ssize_t r = ::read(fd, buf, size);
    if (r > 0) return true;
    if (r == 0 || (errno != EAGAIN && errno != EINTR)) return false;
    if (spins-- > 0) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
      continue;
    }
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, -1) < 0 && errno != EINTR) return false;
  }
}

/// One echo worker shaped like a TcpServer worker: epoll over its
/// connections, zero-timeout spins after activity (TcpServer's multicore
/// spin_polls default), SCHED_BATCH, no parsing and no dispatch. Returns
/// once every connection it serves has reached EOF.
void EchoWorker(std::vector<int> fds) {
  sched_param sp{};
  (void)::sched_setscheduler(0, SCHED_BATCH, &sp);
  int ep = ::epoll_create1(EPOLL_CLOEXEC);
  for (int fd : fds) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(ep, EPOLL_CTL_ADD, fd, &ev);
  }
  const int spin_polls = std::thread::hardware_concurrency() > 1 ? 400 : 0;
  std::size_t live = fds.size();
  int spin_left = 0;
  epoll_event events[16];
  while (live > 0) {
    int n = ::epoll_wait(ep, events, 16, spin_left > 0 ? 0 : -1);
    if (n <= 0) {
      if (n == 0) --spin_left;
      continue;
    }
    spin_left = spin_polls;
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      char b[64];
      ssize_t r = ::read(fd, b, sizeof(b));
      if (r > 0) {
        if (::write(fd, b, static_cast<std::size_t>(r)) == r) continue;
      } else if (r < 0 && (errno == EAGAIN || errno == EINTR)) {
        continue;
      }
      ::epoll_ctl(ep, EPOLL_CTL_DEL, fd, nullptr);
      ::close(fd);
      --live;
    }
  }
  ::close(ep);
}

/// Round trips/sec of a bare 1-byte TCP echo with the same shape as the
/// "tcp depth 1" cell: kClientThreads clients, one connection each, reading
/// like TcpChannel, served by kServerWorkers echo workers polling like
/// TcpServer's. Only the protocol work is missing, so this is what any
/// depth-1 request/response protocol can reach on this host; tcp depth 1
/// reads above it only by measurement noise.
double MeasureWireFloor(Nanos window) {
  int lfd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (lfd < 0 || ::bind(lfd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)) != 0 ||
      ::listen(lfd, kClientThreads) != 0) {
    return 0;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len);
  // Loopback connects complete through the backlog, so the accept()s after
  // them cannot block.
  int on = 1;
  std::vector<int> clients;
  std::vector<std::vector<int>> served(kServerWorkers);
  for (int i = 0; i < kClientThreads; ++i) {
    int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0 ||
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      std::fprintf(stderr, "bench_net: wire floor connect failed\n");
      std::exit(1);
    }
    int srv = ::accept4(lfd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (srv < 0) {
      std::fprintf(stderr, "bench_net: wire floor accept failed\n");
      std::exit(1);
    }
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, sizeof(on));
    ::setsockopt(srv, IPPROTO_TCP, TCP_NODELAY, &on, sizeof(on));
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    clients.push_back(fd);
    served[static_cast<std::size_t>(i % kServerWorkers)].push_back(srv);
  }
  ::close(lfd);
  std::vector<std::thread> echo;
  for (std::vector<int>& fds : served) echo.emplace_back(EchoWorker, fds);

  const Clock& clock = SteadyClock::Instance();
  Nanos deadline = clock.Now() + window;
  std::atomic<std::uint64_t> total{0};
  std::vector<std::thread> threads;
  for (int fd : clients) {
    threads.emplace_back([&, fd] {
      std::uint64_t count = 0;
      char b[16] = {'x'};
      while (clock.Now() < deadline) {
        if (::write(fd, b, 1) != 1 || !SpinThenPollRead(fd, b, sizeof(b))) {
          break;
        }
        ++count;
      }
      total.fetch_add(count, std::memory_order_relaxed);
      ::close(fd);  // the echo worker reads EOF and drops the connection
    });
  }
  for (auto& th : threads) th.join();
  for (auto& th : echo) th.join();
  return static_cast<double>(total.load()) /
         (static_cast<double>(window) / kNanosPerSec);
}

}  // namespace

int main() {
  Nanos window = static_cast<Nanos>(
      bench::EnvDouble("IQ_BENCH_SECONDS", 1.0) * kNanosPerSec);

  // Loopback baseline: same serialize/parse/dispatch work, no sockets.
  double loopback_rps;
  {
    IQServer server;
    loopback_rps = MeasureThreads(
        [&server] { return std::make_unique<net::LoopbackChannel>(server); },
        1, window);
  }

  // What this host charges for any depth-1 TCP round trip at all.
  double floor_rps = MeasureWireFloor(window);

  // TCP over 127.0.0.1, one connection per client thread, depths 1/8/64.
  IQServer server;
  net::TcpServer::Config cfg;
  cfg.workers = kServerWorkers;
  net::TcpServer tcp(server, cfg);
  std::string error;
  if (!tcp.Start(&error)) {
    std::fprintf(stderr, "bench_net: %s\n", error.c_str());
    return 1;
  }
  auto connect = [&tcp] {
    std::string err;
    auto ch = net::TcpChannel::Connect("127.0.0.1", tcp.port(), &err);
    if (!ch) {
      std::fprintf(stderr, "bench_net: %s\n", err.c_str());
      std::exit(1);
    }
    return ch;
  };

  const int depths[] = {1, 8, 64};
  std::vector<double> tcp_rps;
  std::printf(
      "bench_net: loopback TCP, 1 set : 3 get, %zu-byte values, "
      "%d client threads, %d server workers\n\n",
      kValueBytes, kClientThreads, kServerWorkers);
  std::printf("  %-18s %14.0f req/s\n", "loopback (no net)", loopback_rps);
  std::printf("  %-18s %14.0f req/s\n", "wire floor (echo)", floor_rps);
  for (int depth : depths) {
    double rps = MeasureThreads(connect, depth, window);
    tcp_rps.push_back(rps);
    std::printf("  tcp depth %-8d %14.0f req/s\n", depth, rps);
  }
  tcp.Stop();

  double speedup = tcp_rps.back() / tcp_rps.front();
  double vs_loopback = loopback_rps / tcp_rps.front();
  double pct_of_floor = floor_rps > 0 ? 100.0 * tcp_rps.front() / floor_rps : 0;
  std::printf("\n  depth 64 vs depth 1:   %.2fx\n", speedup);
  std::printf("  loopback vs tcp d1:    %.2fx\n", vs_loopback);
  std::printf("  tcp d1 vs wire floor:  %.0f%% of the attainable rate\n",
              pct_of_floor);

  // Read the revision before opening the record: truncating a tracked
  // record first would make every revision read "-dirty".
  const std::string source_rev = bench::SourceRevision();
  const char* out_path = std::getenv("IQ_BENCH_NET_OUT");
  if (out_path == nullptr) out_path = "BENCH_net.json";
  if (FILE* f = std::fopen(out_path, "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"bench_net\",\n"
                 "  \"git_sha\": \"%s\",\n"
                 "  \"hardware_concurrency\": %u,\n"
                 "  \"window_seconds\": %.2f,\n"
                 "  \"mix\": \"1 set : 3 get, %zu-byte values\",\n"
                 "  \"client_threads\": %d,\n"
                 "  \"server_workers\": %d,\n"
                 "  \"loopback_rps\": %.0f,\n"
                 "  \"wire_floor_rps\": %.0f,\n"
                 "  \"tcp\": [\n",
                 source_rev.c_str(),
                 std::thread::hardware_concurrency(),
                 static_cast<double>(window) / kNanosPerSec, kValueBytes,
                 kClientThreads, kServerWorkers, loopback_rps, floor_rps);
    for (std::size_t i = 0; i < tcp_rps.size(); ++i) {
      std::fprintf(f, "    {\"depth\": %d, \"rps\": %.0f}%s\n", depths[i],
                   tcp_rps[i], i + 1 < tcp_rps.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n"
                 "  \"speedup_depth64_vs_depth1\": %.2f,\n"
                 "  \"loopback_over_tcp_depth1\": %.2f,\n"
                 "  \"tcp_depth1_pct_of_wire_floor\": %.1f\n"
                 "}\n",
                 speedup, vs_loopback, pct_of_floor);
    std::fclose(f);
    std::printf("  wrote %s\n", out_path);
  } else {
    std::fprintf(stderr, "bench_net: cannot write %s\n", out_path);
    return 1;
  }
  return 0;
}
