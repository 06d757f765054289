#include "net/tcp_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <pthread.h>
#include <sched.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <mutex>
#include <unordered_map>

#include "net/protocol.h"

namespace iq::net {

// One accepted socket, owned by exactly one worker. The parser holds the
// unconsumed request bytes; `out` holds the unsent response bytes (reused
// across requests, compacted only when fully drained).
//
// Affinity mode adds ordered response slots: a forwarded request reserves
// an empty slot, its completion fills it, and FlushOutput writev()s the
// contiguous completed prefix. `out` always holds responses ordered BEFORE
// every slot; once any slot exists, inline responses append as already-
// completed slots so pipelined order is preserved, and the connection
// reverts to the plain `out` path when the deque drains.
struct TcpServer::Connection {
  Connection(int fd_in, std::uint64_t id_in) : fd(fd_in), id(id_in) {}
  int fd;
  std::uint64_t id;  // process-unique; cross-core completions address this
  RequestParser parser;
  Request request;  // reused: the parser fills it in place
  /// Affinity mode: `request` is parsed but waits for earlier forwarded
  /// requests to finish (see DrainRequests).
  bool request_parked = false;
  /// Affinity mode: the forwarded request in flight spans owners (a
  /// kControl or kSession route), so nothing after it may start yet.
  bool wide_inflight = false;
  std::string out;
  std::size_t out_pos = 0;
  bool want_write = false;  // EPOLLOUT currently registered
  bool want_read = true;    // EPOLLIN currently registered
  bool closing = false;     // quit seen / fatal error: flush, then close

  struct Slot {
    bool done = false;
    std::string text;
  };
  std::deque<Slot> slots;
  std::size_t slot_bytes = 0;       // unwritten bytes across completed slots
  std::size_t front_pos = 0;        // written prefix of slots.front()
  std::size_t slots_inflight = 0;   // forwarded, completion not delivered
  std::uint64_t next_slot_seq = 0;  // seq of the next slot to append
  std::uint64_t head_slot_seq = 0;  // seq of slots.front()

  std::size_t out_backlog() const { return (out.size() - out_pos) + slot_bytes; }
  /// True when FlushOutput could make progress right now (the backlog's
  /// leading edge is writable bytes, not a still-in-flight slot).
  bool flushable() const {
    return out_pos < out.size() || (!slots.empty() && slots.front().done);
  }
};

/// A request crossing cores: executed by the shard owner, answered back to
/// the origin worker's mailbox.
struct TcpServer::CrossOp {
  std::size_t origin;     // worker index the completion goes back to
  std::uint64_t conn_id;
  std::uint64_t slot_seq;
  Request request;
};

struct TcpServer::CrossDone {
  std::uint64_t conn_id;
  std::uint64_t slot_seq;
  std::string text;  // serialized response bytes
};

struct alignas(64) TcpServer::Worker {
  Worker(IQServer& server, std::size_t index_in)
      : index(index_in), dispatcher(server) {}

  std::size_t index;
  int epoll_fd = -1;
  int wake_fd = -1;  // eventfd: shutdown + handoff + cross-core wakeups
  std::thread thread;
  CommandDispatcher dispatcher;
  std::unordered_map<int, std::unique_ptr<Connection>> conns;
  /// Affinity completions address connections by id (never by fd, which
  /// the kernel recycles); maintained alongside `conns`.
  std::unordered_map<std::uint64_t, Connection*> conns_by_id;

  // Mailbox for connections accepted by worker 0 on this worker's behalf.
  std::mutex handoff_mu;
  std::vector<int> handoff;
  /// Accepted-but-not-yet-adopted connections, counted into the least-
  /// loaded accept decision so a burst of accepts doesn't all land here.
  std::atomic<std::uint32_t> handoff_pending{0};

  // Cross-core mailbox (affinity mode): requests for shards this worker
  // owns, and completions for requests this worker forwarded. One mutex
  // guards both vectors; each is swapped out wholesale under it, so the
  // critical sections stay a few pointer moves long.
  std::mutex mail_mu;
  std::vector<CrossOp> mail_ops;
  std::vector<CrossDone> mail_done;

  // fds unregistered this epoll batch; the close() is deferred until the
  // batch ends so the kernel cannot recycle the number for an accept4()
  // earlier in the same batch — a stale queued event would then pass the
  // conns.find() check and be applied to the wrong (new) connection.
  std::vector<int> pending_close;

  // Wire counters: relaxed atomics in a worker-private cache line, summed
  // lock-free by Stats() — the IQShardStats discipline.
  std::atomic<std::uint64_t> conn_accepted{0};
  std::atomic<std::uint64_t> conn_active{0};
  std::atomic<std::uint64_t> bytes_read{0};
  std::atomic<std::uint64_t> bytes_written{0};
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> affinity_forwards{0};
  std::atomic<std::uint64_t> affinity_inline{0};
  std::atomic<std::uint64_t> affinity_fallbacks{0};
};

namespace {

void AddEpoll(int epoll_fd, int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  ::epoll_ctl(epoll_fd, EPOLL_CTL_ADD, fd, &ev);
}

void WakeWorker(int wake_fd) {
  std::uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_fd, &one, sizeof(one));
}

/// iovecs gathered per writev: the `out` remainder plus up to this many
/// completed slots. Well under IOV_MAX everywhere.
constexpr int kMaxIov = 64;

}  // namespace

TcpServer::TcpServer(IQServer& server, Config config)
    : server_(server),
      config_(std::move(config)),
      partition_(server.store().shard_count(),
                 config_.workers < 1 ? 1
                                     : static_cast<std::size_t>(config_.workers)) {
  if (config_.workers < 1) config_.workers = 1;
  if (config_.mailbox_capacity < 1) config_.mailbox_capacity = 1;
  if (config_.max_inflight_per_conn < 1) config_.max_inflight_per_conn = 1;
  if (config_.spin_polls < 0) {
    config_.spin_polls =
        std::thread::hardware_concurrency() > 1 ? 400 : 0;
  }
}

TcpServer::~TcpServer() { Stop(); }

bool TcpServer::Start(std::string* error) {
  auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what + ": " + std::strerror(errno);
    for (auto& w : workers_) {
      if (w->wake_fd >= 0) ::close(w->wake_fd);
      if (w->epoll_fd >= 0) ::close(w->epoll_fd);
    }
    workers_.clear();
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return false;
  };

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return fail("socket");
  int on = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &on, sizeof(on));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    errno = EINVAL;
    return fail("inet_pton " + config_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    return fail("bind");
  }
  if (::listen(listen_fd_, 128) < 0) return fail("listen");

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  workers_.reserve(static_cast<std::size_t>(config_.workers));
  for (int i = 0; i < config_.workers; ++i) {
    auto w = std::make_unique<Worker>(server_, static_cast<std::size_t>(i));
    w->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    w->wake_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (w->epoll_fd < 0 || w->wake_fd < 0) return fail("epoll/eventfd");
    AddEpoll(w->epoll_fd, w->wake_fd, EPOLLIN);
    w->dispatcher.set_stats_augmenter(
        [this](std::string& out) { AppendWireStats(out); });
    workers_.push_back(std::move(w));
  }
  // Only worker 0 watches the listener; it distributes accepted sockets
  // least-loaded-first, so there is no accept thundering herd across epolls.
  AddEpoll(workers_[0]->epoll_fd, listen_fd_, EPOLLIN);

  running_.store(true, std::memory_order_release);
  for (auto& w : workers_) {
    w->thread = std::thread([this, worker = w.get()] { WorkerLoop(*worker); });
  }
  return true;
}

void TcpServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    // Never started (or already stopped): still release any bound listener.
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return;
  }
  for (auto& w : workers_) WakeWorker(w->wake_fd);
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  for (auto& w : workers_) {
    for (auto& [fd, conn] : w->conns) ::close(fd);
    w->conns.clear();
    w->conns_by_id.clear();
    // Connections handed off but never adopted.
    for (int fd : w->handoff) ::close(fd);
    w->handoff.clear();
    ::close(w->wake_fd);
    ::close(w->epoll_fd);
  }
  workers_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

TcpServerStats TcpServer::Stats() const {
  TcpServerStats total;
  for (const auto& w : workers_) {
    total.conn_accepted += w->conn_accepted.load(std::memory_order_relaxed);
    total.conn_active += w->conn_active.load(std::memory_order_relaxed);
    total.bytes_read += w->bytes_read.load(std::memory_order_relaxed);
    total.bytes_written += w->bytes_written.load(std::memory_order_relaxed);
    total.requests += w->requests.load(std::memory_order_relaxed);
    total.affinity_forwards +=
        w->affinity_forwards.load(std::memory_order_relaxed);
    total.affinity_inline += w->affinity_inline.load(std::memory_order_relaxed);
    total.affinity_fallbacks +=
        w->affinity_fallbacks.load(std::memory_order_relaxed);
  }
  return total;
}

void TcpServer::AppendWireStats(std::string& out) const {
  TcpServerStats s = Stats();
  auto stat = [&out](const char* name, std::uint64_t v) {
    out += "STAT ";
    out += name;
    out += ' ';
    out += std::to_string(v);
    out += "\r\n";
  };
  stat("conn_accepted", s.conn_accepted);
  stat("conn_active", s.conn_active);
  stat("bytes_read", s.bytes_read);
  stat("bytes_written", s.bytes_written);
  stat("net_requests", s.requests);
  stat("affinity_mode", config_.affinity ? 1 : 0);
  stat("affinity_forwards", s.affinity_forwards);
  stat("affinity_inline", s.affinity_inline);
  stat("affinity_fallbacks", s.affinity_fallbacks);
}

void TcpServer::WorkerLoop(Worker& worker) {
  if (config_.pin_cores) {
    unsigned ncpu = std::thread::hardware_concurrency();
    if (ncpu > 0) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(static_cast<unsigned>(worker.index) % ncpu, &set);
      (void)::pthread_setaffinity_np(::pthread_self(), sizeof(set), &set);
    }
  }
  // SCHED_BATCH turns off wakeup preemption for this thread: on a busy
  // host, synchronous clients get to finish their timeslice and several
  // requests pile up per epoll wakeup instead of the worker preempting the
  // first writer immediately. Unprivileged; ignore failure (non-Linux CI).
  sched_param sp{};
  (void)::sched_setscheduler(0, SCHED_BATCH, &sp);
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  int spin_left = 0;  // zero-timeout polls remaining before we block
  while (running_.load(std::memory_order_acquire)) {
    int n = ::epoll_wait(worker.epoll_fd, events, kMaxEvents,
                         spin_left > 0 ? 0 : -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (n == 0) {
      --spin_left;
      continue;
    }
    spin_left = config_.spin_polls;  // activity: stay hot for a bit
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      if (fd == worker.wake_fd) {
        std::uint64_t drained;
        while (::read(worker.wake_fd, &drained, sizeof(drained)) > 0) {
        }
        AdoptPending(worker);
        if (config_.affinity) {
          ExecuteCrossOps(worker);
          DeliverCompletions(worker);
        }
        continue;
      }
      if (fd == listen_fd_) {
        AcceptReady(worker);
        continue;
      }
      auto it = worker.conns.find(fd);
      if (it == worker.conns.end()) continue;  // closed earlier this batch
      HandleEvent(worker, *it->second, events[i].events);
    }
    // Now that no stale event from this batch can alias a recycled fd,
    // release the numbers (see Worker::pending_close).
    for (int fd : worker.pending_close) ::close(fd);
    worker.pending_close.clear();
  }
  for (int fd : worker.pending_close) ::close(fd);
  worker.pending_close.clear();
  for (auto& [fd, conn] : worker.conns) ::close(fd);
  worker.conns.clear();
  worker.conns_by_id.clear();
}

void TcpServer::AcceptReady(Worker& w0) {
  while (true) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN, or the listener went away during shutdown
    }
    int on = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &on, sizeof(on));
    // Least-loaded handoff: a long-lived connection (an iqbench worker, a
    // casql pool member) parks on its worker forever, so blind round-robin
    // slowly piles persistent connections onto whichever worker the cursor
    // favored. Pick the worker with the fewest live + pending connections;
    // the rotating scan start spreads ties instead of biasing worker 0.
    std::size_t n = workers_.size();
    std::size_t best = accept_rotor_ % n;
    std::uint64_t best_load = ~std::uint64_t{0};
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t idx = (accept_rotor_ + i) % n;
      Worker& w = *workers_[idx];
      std::uint64_t load = w.conn_active.load(std::memory_order_relaxed) +
                           w.handoff_pending.load(std::memory_order_relaxed);
      if (load < best_load) {
        best_load = load;
        best = idx;
      }
    }
    ++accept_rotor_;
    Worker& target = *workers_[best];
    target.conn_accepted.fetch_add(1, std::memory_order_relaxed);
    if (&target == &w0) {
      AdoptConnection(w0, fd);
    } else {
      target.handoff_pending.fetch_add(1, std::memory_order_relaxed);
      {
        std::lock_guard lock(target.handoff_mu);
        target.handoff.push_back(fd);
      }
      WakeWorker(target.wake_fd);
    }
  }
}

void TcpServer::AdoptPending(Worker& worker) {
  std::vector<int> fds;
  {
    std::lock_guard lock(worker.handoff_mu);
    fds.swap(worker.handoff);
  }
  for (int fd : fds) {
    worker.handoff_pending.fetch_sub(1, std::memory_order_relaxed);
    AdoptConnection(worker, fd);
  }
}

void TcpServer::AdoptConnection(Worker& worker, int fd) {
  worker.conn_active.fetch_add(1, std::memory_order_relaxed);
  auto conn = std::make_unique<Connection>(
      fd, next_conn_id_.fetch_add(1, std::memory_order_relaxed));
  worker.conns_by_id.emplace(conn->id, conn.get());
  worker.conns.emplace(fd, std::move(conn));
  AddEpoll(worker.epoll_fd, fd, EPOLLIN);
}

void TcpServer::HandleEvent(Worker& worker, Connection& conn,
                            std::uint32_t events) {
  if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
    CloseConnection(worker, conn);
    return;
  }
  bool peer_closed = false;
  if ((events & EPOLLIN) != 0) {
    while (true) {
      // Straight into the parser's buffer: no bounce copy.
      std::span<char> tail = conn.parser.WritableTail(RecvBuffer::kReadChunk);
      ssize_t r = ::read(conn.fd, tail.data(), tail.size());
      if (r > 0) {
        worker.bytes_read.fetch_add(static_cast<std::uint64_t>(r),
                                    std::memory_order_relaxed);
        conn.parser.Commit(static_cast<std::size_t>(r));
        if (static_cast<std::size_t>(r) < tail.size()) break;
        continue;
      }
      if (r == 0) {
        peer_closed = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      peer_closed = true;
      break;
    }
  }
  PumpConnection(worker, conn, peer_closed);
}

void TcpServer::PumpConnection(Worker& worker, Connection& conn,
                               bool peer_closed) {
  // Alternate draining and flushing until neither makes progress: a flush
  // that brings the output backlog back under max_response_bytes re-opens
  // DrainRequests, which must then run again for the requests that were
  // parked in the parser during backpressure (no further event would
  // deliver them if the client has nothing more to send). Forwarded
  // requests park the same way; a delivered completion re-enters here.
  while (true) {
    std::size_t buffered_before = conn.parser.buffered();
    std::size_t backlog_before = conn.out_backlog();
    DrainRequests(worker, conn);
    FlushOutput(worker, conn);
    if (conn.parser.buffered() == buffered_before &&
        conn.out_backlog() == backlog_before) {
      break;
    }
  }
  // A closing connection lingers until every reserved slot has completed
  // and flushed — quit after a pipelined cross-shard batch still answers
  // the whole batch before the FIN.
  if (peer_closed ||
      (conn.closing && conn.out_pos == conn.out.size() && conn.slots.empty())) {
    CloseConnection(worker, conn);
    return;
  }
  UpdateInterest(worker, conn);
}

std::size_t TcpServer::TargetWorker(const Worker& worker,
                                    const Request& request) const {
  switch (RouteOf(request)) {
    case RouteKind::kKey:
      return partition_.OwnerOfHash(CacheStore::HashKey(request.key));
    case RouteKind::kSession:
      return partition_.HomeOfSession(request.session);
    case RouteKind::kControl:
      // Cross-shard aggregates funnel through one partition so their
      // whole-store lock sweeps serialize there instead of interleaving
      // from every core at once.
      return 0;
    case RouteKind::kLocal:
      break;
  }
  return worker.index;
}

bool TcpServer::TryForward(Worker& worker, Connection& conn, std::size_t target,
                           Request&& request) {
  Worker& t = *workers_[target];
  {
    std::lock_guard lock(t.mail_mu);
    if (t.mail_ops.size() >= config_.mailbox_capacity) return false;
    t.mail_ops.push_back(
        CrossOp{worker.index, conn.id, conn.next_slot_seq, std::move(request)});
  }
  // Reserve the response position. Only this worker's thread delivers
  // completions to this connection, so the slot is guaranteed to exist
  // before the completion can be applied even if the owner executes first.
  conn.slots.emplace_back();
  ++conn.next_slot_seq;
  ++conn.slots_inflight;
  worker.affinity_forwards.fetch_add(1, std::memory_order_relaxed);
  WakeWorker(t.wake_fd);
  return true;
}

void TcpServer::ExecuteCrossOps(Worker& worker) {
  std::vector<CrossOp> ops;
  {
    std::lock_guard lock(worker.mail_mu);
    ops.swap(worker.mail_ops);
  }
  if (ops.empty()) return;
  // Execute against this worker's own shards, then batch the completions
  // per origin so each origin pays one lock + one eventfd wakeup per batch.
  std::vector<std::vector<CrossDone>> by_origin(workers_.size());
  for (CrossOp& op : ops) {
    CrossDone done;
    done.conn_id = op.conn_id;
    done.slot_seq = op.slot_seq;
    AppendTo(worker.dispatcher.Dispatch(op.request), &done.text);
    by_origin[op.origin].push_back(std::move(done));
  }
  for (std::size_t i = 0; i < by_origin.size(); ++i) {
    if (by_origin[i].empty()) continue;
    Worker& origin = *workers_[i];
    {
      std::lock_guard lock(origin.mail_mu);
      for (CrossDone& d : by_origin[i]) origin.mail_done.push_back(std::move(d));
    }
    WakeWorker(origin.wake_fd);
  }
}

void TcpServer::DeliverCompletions(Worker& worker) {
  std::vector<CrossDone> done;
  {
    std::lock_guard lock(worker.mail_mu);
    done.swap(worker.mail_done);
  }
  if (done.empty()) return;
  std::vector<std::uint64_t> touched;
  for (CrossDone& d : done) {
    auto it = worker.conns_by_id.find(d.conn_id);
    if (it == worker.conns_by_id.end()) continue;  // connection died
    Connection& conn = *it->second;
    if (d.slot_seq < conn.head_slot_seq) continue;  // slot already dropped
    std::size_t idx = static_cast<std::size_t>(d.slot_seq - conn.head_slot_seq);
    if (idx >= conn.slots.size()) continue;
    Connection::Slot& slot = conn.slots[idx];
    if (slot.done) continue;
    slot.done = true;
    slot.text = std::move(d.text);
    conn.slot_bytes += slot.text.size();
    --conn.slots_inflight;
    if (std::find(touched.begin(), touched.end(), d.conn_id) == touched.end()) {
      touched.push_back(d.conn_id);
    }
  }
  for (std::uint64_t id : touched) {
    auto it = worker.conns_by_id.find(id);  // re-lookup: a pump can close
    if (it == worker.conns_by_id.end()) continue;
    PumpConnection(worker, *it->second);
  }
}

void TcpServer::DrainRequests(Worker& worker, Connection& conn) {
  // Responses append straight to `out` until a forwarded request reserves
  // a slot; from then on they append as completed slots, keeping pipelined
  // order across the inline/forwarded interleave.
  auto emit = [&conn](const Response& resp) {
    if (conn.slots.empty()) {
      AppendTo(resp, &conn.out);
      return;
    }
    Connection::Slot slot;
    slot.done = true;
    AppendTo(resp, &slot.text);
    conn.slot_bytes += slot.text.size();
    conn.slots.push_back(std::move(slot));
    ++conn.next_slot_seq;
  };

  // Prefetch window: when a request opens a window, the keys of the
  // complete requests buffered behind it are peeked (framing only) and the
  // store prefetches all of them, so their cache misses overlap instead of
  // each request stalling on its own. `ahead` counts the requests after the
  // current one already in the window. A hint only: nothing here changes
  // what executes, or in which order.
  std::string_view window[CacheStore::kPrefetchWindow];
  std::size_t ahead = 0;

  Request& request = conn.request;
  std::string error;
  while (!conn.closing) {
    if (conn.out_backlog() > config_.max_response_bytes) return;
    if (conn.slots_inflight >= config_.max_inflight_per_conn) return;
    if (!conn.request_parked) {
      auto status = conn.parser.Next(&request, &error);
      if (status == RequestParser::Status::kNeedMore) break;
      if (ahead > 0) {
        --ahead;
      } else if (status == RequestParser::Status::kOk) {
        window[0] = request.key;
        ahead = PeekKeys(conn.parser.Unread(),
                         std::span(window).subspan(1));
        // A lone request has no other miss to overlap with.
        if (ahead > 0) server_.store().Prefetch(std::span(window, 1 + ahead));
      }
      if (status == RequestParser::Status::kError) {
        Response err;
        err.type = ResponseType::kError;
        err.message = error;
        emit(err);
        continue;  // parser resynced past the bad line; keep the connection
      }
      worker.requests.fetch_add(1, std::memory_order_relaxed);
      if (request.command == Command::kQuit) {
        // memcached closes without a reply; flush what's pending first.
        conn.closing = true;
        break;
      }
    }
    conn.request_parked = false;
    if (config_.affinity) {
      // Pipelined requests must execute in order wherever they share
      // state. Single-key requests on different owners touch disjoint keys
      // and may run concurrently; a request spanning owners (multi-key get,
      // control verbs, session commit/abort/dar) waits until everything
      // forwarded before it completed, and everything after it waits for
      // it. Otherwise `set a` forwarded to a's owner could run after a
      // later `get a b` forwarded to partition 0.
      if (conn.slots_inflight == 0) conn.wide_inflight = false;
      RouteKind route = RouteOf(request);
      bool wide = route == RouteKind::kControl || route == RouteKind::kSession;
      if (conn.wide_inflight || (wide && conn.slots_inflight > 0)) {
        conn.request_parked = true;  // a completion re-pumps the connection
        return;
      }
      std::size_t target = TargetWorker(worker, request);
      if (target != worker.index) {
        if (TryForward(worker, conn, target, std::move(request))) {
          conn.wide_inflight = wide;
          continue;
        }
        if (conn.slots_inflight > 0) {
          // Inline now could overtake an earlier request on the same key
          // still queued at the owner; wait for this connection's
          // completions instead.
          conn.request_parked = true;
          return;
        }
        // Owner's mailbox is full: execute inline anyway. Correct — the
        // shard mutexes still serialize per key — just not core-local.
        worker.affinity_fallbacks.fetch_add(1, std::memory_order_relaxed);
      } else {
        worker.affinity_inline.fetch_add(1, std::memory_order_relaxed);
      }
    }
    emit(worker.dispatcher.Dispatch(request));
  }
  // The oversized-request guard only applies when nothing is parked behind
  // a forwarded request: with completions pending, `buffered()` can hold
  // many complete-but-deferred requests, which is backpressure, not abuse.
  if (!conn.closing && conn.slots_inflight == 0 &&
      conn.parser.buffered() > config_.max_request_bytes) {
    Response err;
    err.type = ResponseType::kError;
    err.message = "request exceeds server limit";
    emit(err);
    conn.closing = true;
  }
}

void TcpServer::FlushOutput(Worker& worker, Connection& conn) {
  while (true) {
    // Gather the `out` remainder plus the contiguous completed-slot prefix
    // into one writev: a pipelined drain's responses — wherever they were
    // produced — leave in a single syscall, and forwarded responses are
    // written from their slot without ever being copied into `out`.
    iovec iov[kMaxIov];
    int cnt = 0;
    if (conn.out_pos < conn.out.size()) {
      iov[cnt].iov_base = conn.out.data() + conn.out_pos;
      iov[cnt].iov_len = conn.out.size() - conn.out_pos;
      ++cnt;
    }
    std::size_t front_skip = conn.front_pos;
    for (const Connection::Slot& slot : conn.slots) {
      if (!slot.done || cnt == kMaxIov) break;
      iov[cnt].iov_base = const_cast<char*>(slot.text.data()) + front_skip;
      iov[cnt].iov_len = slot.text.size() - front_skip;
      front_skip = 0;
      ++cnt;
    }
    if (cnt == 0) break;  // drained, or waiting on an in-flight slot
    ssize_t w = ::writev(conn.fd, iov, cnt);
    if (w > 0) {
      worker.bytes_written.fetch_add(static_cast<std::uint64_t>(w),
                                     std::memory_order_relaxed);
      std::size_t left = static_cast<std::size_t>(w);
      std::size_t out_rem = conn.out.size() - conn.out_pos;
      std::size_t take = left < out_rem ? left : out_rem;
      conn.out_pos += take;
      left -= take;
      while (left > 0) {
        Connection::Slot& front = conn.slots.front();
        std::size_t rem = front.text.size() - conn.front_pos;
        take = left < rem ? left : rem;
        conn.front_pos += take;
        conn.slot_bytes -= take;
        left -= take;
        if (conn.front_pos == front.text.size()) {
          conn.slots.pop_front();
          ++conn.head_slot_seq;
          conn.front_pos = 0;
        }
      }
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Partial flush: drop the sent prefix once it dominates the buffer,
      // so a persistently slow reader holds out.size() near its backlog
      // (which DrainRequests caps) instead of the whole session's volume.
      if (conn.out_pos > conn.out.size() / 2) {
        conn.out.erase(0, conn.out_pos);
        conn.out_pos = 0;
      }
      return;
    }
    // Peer is gone; drop what's left so the close path runs. Straggler
    // completions for the dropped slots are discarded by seq (< head).
    conn.out_pos = conn.out.size();
    conn.slots.clear();
    conn.slot_bytes = 0;
    conn.front_pos = 0;
    conn.head_slot_seq = conn.next_slot_seq;
    conn.slots_inflight = 0;
    conn.closing = true;
    return;
  }
  if (conn.out_pos == conn.out.size()) {
    conn.out.clear();
    conn.out_pos = 0;
  }
}

void TcpServer::UpdateInterest(Worker& worker, Connection& conn) {
  bool want_write = conn.flushable();
  // Backpressure: while the peer isn't consuming responses (or too many
  // forwarded requests are in flight), stop reading too (level-triggered
  // EPOLLIN would otherwise spin); its sends then back up into TCP flow
  // control instead of this worker's memory.
  bool want_read = !conn.closing &&
                   conn.out_backlog() <= config_.max_response_bytes &&
                   conn.slots_inflight < config_.max_inflight_per_conn;
  if (want_write == conn.want_write && want_read == conn.want_read) return;
  conn.want_write = want_write;
  conn.want_read = want_read;
  epoll_event ev{};
  ev.events = (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  ev.data.fd = conn.fd;
  ::epoll_ctl(worker.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
}

void TcpServer::CloseConnection(Worker& worker, Connection& conn) {
  int fd = conn.fd;
  ::epoll_ctl(worker.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  worker.conns_by_id.erase(conn.id);
  worker.conns.erase(fd);  // destroys conn
  worker.pending_close.push_back(fd);  // close()d at end of batch
  worker.conn_active.fetch_sub(1, std::memory_order_relaxed);
}

}  // namespace iq::net
