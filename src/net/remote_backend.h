// RemoteBackend: the wire client. A KvsBackend that speaks the memcached/IQ
// text protocol through a Channel - the deployment shape of the paper's
// testbed, where the application (IQ-Client) and the cache server
// (IQ-Twemcached) are separate processes. Each verb builds its Request,
// makes one round trip and maps the reply; everything above KvsBackend
// (IQClient, the casql session layer, the BG benchmark) runs unchanged over
// it. A few wire-only verbs (stats, trace, multi-key get) are plain members
// for the tools and tests that need them.
//
// Thread safety: safe for concurrent callers; the underlying channel
// serializes round trips like a single memcached connection would. For
// higher fan-out, give each worker its own RemoteBackend over its own
// channel.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/kvs_backend.h"
#include "net/channel.h"
#include "net/protocol.h"
#include "util/trace_ring.h"

namespace iq::net {

class RemoteBackend final : public KvsBackend {
 public:
  /// `clock` defaults to the process steady clock (the remote server's
  /// clock is not observable, exactly as in a real deployment).
  explicit RemoteBackend(Channel& channel, const Clock* clock = nullptr)
      : channel_(channel),
        clock_(clock != nullptr ? *clock : SteadyClock::Instance()) {}

  const Clock& clock() const override { return clock_; }

  // ---- the IQ command set ----
  // Only an explicit GRANTED counts as granted and only REJECT as a Q
  // conflict; every other reply (a dead channel included) is a transport
  // error, never a silent grant or an endless conflict loop.
  SessionId GenID() override;
  GetReply IQget(std::string_view key, SessionId session = 0) override;
  StoreResult IQset(std::string_view key, std::string_view value,
                    LeaseToken token) override;
  QaReadReply QaRead(std::string_view key, SessionId session) override;
  StoreResult SaR(std::string_view key, std::optional<std::string_view> v_new,
                  LeaseToken token) override;
  QuarantineResult QaReg(SessionId tid, std::string_view key) override;
  void DaR(SessionId tid) override;
  QuarantineResult IQDelta(SessionId tid, std::string_view key,
                           DeltaOp delta) override;
  void Commit(SessionId tid) override;
  void Abort(SessionId tid) override;
  /// `release <tid> <key>`: drops just this lease; the session's buffered
  /// deltas/quarantines on other keys survive, matching IQServer.
  void ReleaseKey(SessionId tid, std::string_view key) override;

  // ---- plain memcached operations ----
  /// Sent as `gets`: the cas unique is included.
  std::optional<CacheItem> Get(std::string_view key) override;
  StoreResult Set(std::string_view key, std::string_view value) override;
  StoreResult Add(std::string_view key, std::string_view value) override;
  StoreResult Cas(std::string_view key, std::string_view value,
                  std::uint64_t cas) override;
  StoreResult Append(std::string_view key, std::string_view blob) override;
  StoreResult Prepend(std::string_view key, std::string_view blob) override;
  std::optional<std::uint64_t> Incr(std::string_view key,
                                    std::uint64_t amount) override;
  std::optional<std::uint64_t> Decr(std::string_view key,
                                    std::uint64_t amount) override;
  /// Wire `delete`, which voids any I lease on the key.
  bool DeleteVoid(std::string_view key) override;

  // ---- wire-only verbs ----
  /// Fetch N keys in one round trip (`get k1 k2 ... kn`). Result is aligned
  /// with `keys`; misses are nullopt. `with_cas` issues `gets` instead.
  std::vector<std::optional<CacheItem>> MultiGet(
      const std::vector<std::string>& keys, bool with_cas = false);
  /// The raw `stats` reply ("STAT name value" lines); on a transport error,
  /// its reason instead (which ParseIQStats reads as all zeros).
  std::string Stats();
  /// One drained trace with its completeness header. `has_info` is false
  /// against pre-TRACE_INFO servers.
  struct TraceDrain {
    std::vector<TraceEvent> events;
    TraceInfo info;
    bool has_info = false;
  };
  /// Drain the newest `max_events` lease-trace events (0 = server default)
  /// with the server's TRACE_INFO header, so the caller (iqcheck) can tell
  /// a complete history from a wrapped one. nullopt on transport failure or
  /// an unparsable reply.
  std::optional<TraceDrain> TraceWithInfo(std::uint64_t max_events = 0);

 private:
  /// One round trip. A failed channel or a short/malformed reply comes back
  /// as kTransportError.
  Response Call(const Request& request);

  Channel& channel_;
  const Clock& clock_;
};

}  // namespace iq::net
