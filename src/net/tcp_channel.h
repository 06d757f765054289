// Client side of the TCP transport.
//
// TcpChannel is the socket twin of LoopbackChannel: RoundTrip() gives the
// one-outstanding-request behavior RemoteBackend expects. For callers that
// batch, it also pipelines: queue N requests with SendNoWait (serialized
// back-to-back into one reused buffer), push them over the socket with a
// single write() via Flush, then Drain the N responses from as few read()s
// as the kernel allows. Pipelining amortizes the per-round-trip syscall +
// wakeup cost, which is the whole ballgame for small memcached-style
// requests (see bench/bench_net.cpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/channel.h"
#include "net/protocol.h"

namespace iq::net {

class TcpChannel final : public Channel {
 public:
  /// Deadlines. Before these existed every wait was `poll(…, -1)`: a wedged
  /// server (accepts but never replies) hung the client forever. A deadline
  /// expiry closes the connection and fails the operation — the caller sees
  /// a transport error, never a fabricated response.
  struct Options {
    int connect_timeout_ms = 5000;  // per address attempt; <= 0 waits forever
    int io_timeout_ms = 10000;      // per RoundTrip/Flush/Drain; <= 0 forever
  };

  /// Connect to host:port (IPv4 dotted quad or name resolvable by
  /// getaddrinfo), bounded by options.connect_timeout_ms. TCP_NODELAY is
  /// set: the pipelining layer does its own batching, so Nagle only adds
  /// latency. Returns nullptr with *error set on failure.
  static std::unique_ptr<TcpChannel> Connect(const std::string& host,
                                             std::uint16_t port,
                                             std::string* error = nullptr);
  static std::unique_ptr<TcpChannel> Connect(const std::string& host,
                                             std::uint16_t port,
                                             const Options& options,
                                             std::string* error = nullptr);

  ~TcpChannel() override;

  TcpChannel(const TcpChannel&) = delete;
  TcpChannel& operator=(const TcpChannel&) = delete;

  /// One-outstanding-request mode: writes `request_bytes`, blocks (at most
  /// io_timeout_ms) until the matching response(s) arrive in *reply, raw.
  /// The bytes may carry several pipelined requests; ExpectedReplies()
  /// says how many replies to await (quit draws none and closes the
  /// connection server-side), and a framing-only scan finds where each ends
  /// without building it. False on transport failure, deadline expiry or a
  /// malformed reply — the connection is then closed (the stream can no
  /// longer be trusted).
  bool RoundTrip(const std::string& request_bytes,
                 std::string* reply) override;

  /// Queue one request locally (no I/O). `quit` expects no response and is
  /// excluded from the outstanding count.
  void SendNoWait(const Request& request);

  /// Write every queued request to the socket. False on transport error.
  bool Flush();

  /// Block until every outstanding response has arrived; returns them in
  /// request order (the server never reorders). A transport error / EOF
  /// cuts the vector short.
  std::vector<Response> Drain();

  bool connected() const { return fd_ >= 0; }

 private:
  /// Absolute steady-clock deadline for one operation; max() = no deadline.
  using TimePoint = std::chrono::steady_clock::time_point;

  TcpChannel(int fd, const Options& options) : fd_(fd), options_(options) {}

  bool WriteAll(const char* data, std::size_t size, TimePoint deadline);
  /// One read() straight into rbuf_'s spare capacity (spin-then-poll up to
  /// `deadline`). False on EOF, error, or deadline expiry.
  bool FillReadBuffer(TimePoint deadline);
  /// Close the socket: the stream can no longer be trusted.
  void Close();
  TimePoint IoDeadline() const;

  int fd_ = -1;
  Options options_;
  std::string wbuf_;        // queued requests awaiting Flush
  std::size_t outstanding_ = 0;
  RecvBuffer rbuf_;         // received bytes awaiting parse
  std::mutex mu_;  // one in-flight operation per channel, like Loopback
};

}  // namespace iq::net
