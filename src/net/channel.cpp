#include "net/channel.h"

#include "util/backoff.h"

namespace iq::net {

LoopbackChannel::LoopbackChannel(IQServer& server, Nanos one_way_latency,
                                 const Clock* clock)
    : dispatcher_(server),
      latency_(one_way_latency),
      clock_(clock != nullptr ? *clock : SteadyClock::Instance()) {}

bool LoopbackChannel::RoundTrip(const std::string& request_bytes,
                                std::string* reply) {
  if (latency_ > 0) SleepFor(clock_, latency_);
  reply->clear();
  {
    std::lock_guard lock(mu_);
    parser_.Feed(request_bytes);
    std::string error;
    // A single RoundTrip may carry several pipelined requests; answer all.
    while (true) {
      auto status = parser_.Next(&request_, &error);
      if (status == RequestParser::Status::kNeedMore) break;
      if (status == RequestParser::Status::kError) {
        Response err;
        err.type = ResponseType::kError;
        err.message = error;
        AppendTo(err, reply);
        continue;
      }
      requests_.fetch_add(1, std::memory_order_relaxed);
      AppendTo(dispatcher_.Dispatch(request_), reply);
    }
  }
  if (latency_ > 0) SleepFor(clock_, latency_);
  return true;
}

Response RemoteCacheClient::Call(const Request& request) {
  // Per-thread wire scratch: their capacity survives across calls, so a
  // steady-state call allocates nothing for its request or reply bytes.
  thread_local std::string request_bytes;
  thread_local std::string reply;
  request_bytes.clear();
  AppendTo(request, &request_bytes);
  // One named result on every path: it is constructed in the caller's
  // frame (NRVO) and the reply is parsed straight into it.
  Response resp;
  auto fail = [&resp](const char* why) {
    resp = Response{};
    resp.type = ResponseType::kTransportError;
    resp.message = why;
  };
  std::size_t consumed = 0;
  if (!channel_.RoundTrip(request_bytes, &reply)) {
    fail("connection failed");
  } else if (ParseResponse(reply, &resp, &consumed) != ParseStatus::kOk) {
    // A short or unparseable reply means the stream is desynced; the caller
    // cannot trust anything further on this connection. Treat as transport
    // failure, not as a server-refused command.
    fail("short or malformed response");
  }
  return resp;
}

std::optional<CacheItem> RemoteCacheClient::Get(std::string_view key) {
  Request r;
  r.command = Command::kGet;
  r.key = key;
  Response resp = Call(r);
  if (resp.type != ResponseType::kValue) return std::nullopt;
  return CacheItem{std::move(resp.data), resp.flags, resp.cas_unique};
}

std::optional<CacheItem> RemoteCacheClient::Gets(std::string_view key) {
  Request r;
  r.command = Command::kGets;
  r.key = key;
  Response resp = Call(r);
  if (resp.type != ResponseType::kValue) return std::nullopt;
  return CacheItem{std::move(resp.data), resp.flags, resp.cas_unique};
}

std::vector<std::optional<CacheItem>> RemoteCacheClient::MultiGet(
    const std::vector<std::string>& keys, bool with_cas) {
  std::vector<std::optional<CacheItem>> out(keys.size());
  if (keys.empty()) return out;
  Request r;
  r.command = with_cas ? Command::kGets : Command::kGet;
  r.key = keys.front();
  if (keys.size() > 1) r.keys = keys;
  Response resp = Call(r);
  if (resp.type != ResponseType::kValue) return out;
  if (resp.values.empty()) {
    // One hit: it rides in the single-value fields.
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (keys[i] != resp.key) continue;
      out[i] = CacheItem{std::move(resp.data), resp.flags, resp.cas_unique};
      break;
    }
    return out;
  }
  // The server omits misses, so match returned VALUE blocks back to the
  // requested keys (duplicates each consume one block, in order). Caveat,
  // inherent to memcached get semantics: the server looks keys up one at a
  // time, so with duplicate keys in one request a concurrent write can make
  // the copies disagree (e.g. only the second copy hits), and sequence
  // matching then attributes the hit to the first copy. Positions still only
  // ever receive a value stored under their own key; dedupe keys before
  // calling if per-position exactness across duplicates matters.
  std::size_t next = 0;
  for (std::size_t i = 0; i < keys.size() && next < resp.values.size(); ++i) {
    ValueEntry& v = resp.values[next];
    if (v.key != keys[i]) continue;
    out[i] = CacheItem{std::move(v.data), v.flags, v.cas_unique};
    ++next;
  }
  return out;
}

namespace {

StoreResult ToStoreResult(const Response& resp) {
  switch (resp.type) {
    case ResponseType::kStored: return StoreResult::kStored;
    case ResponseType::kExists: return StoreResult::kExists;
    case ResponseType::kNotFound: return StoreResult::kNotFound;
    case ResponseType::kTransportError: return StoreResult::kTransportError;
    default: return StoreResult::kNotStored;
  }
}

}  // namespace

StoreResult RemoteCacheClient::Set(std::string_view key,
                                   std::string_view value,
                                   std::uint32_t flags, std::int64_t exptime) {
  Request r;
  r.command = Command::kSet;
  r.key = key;
  r.data = value;
  r.flags = flags;
  r.exptime = exptime;
  return ToStoreResult(Call(r));
}

StoreResult RemoteCacheClient::Add(std::string_view key,
                                   std::string_view value) {
  Request r;
  r.command = Command::kAdd;
  r.key = key;
  r.data = value;
  return ToStoreResult(Call(r));
}

StoreResult RemoteCacheClient::Cas(std::string_view key,
                                   std::string_view value,
                                   std::uint64_t unique) {
  Request r;
  r.command = Command::kCas;
  r.key = key;
  r.data = value;
  r.cas_unique = unique;
  return ToStoreResult(Call(r));
}

bool RemoteCacheClient::Delete(std::string_view key) {
  Request r;
  r.command = Command::kDelete;
  r.key = key;
  return Call(r).type == ResponseType::kDeleted;
}

StoreResult RemoteCacheClient::Append(std::string_view key,
                                      std::string_view blob) {
  Request r;
  r.command = Command::kAppend;
  r.key = key;
  r.data = blob;
  return ToStoreResult(Call(r));
}

StoreResult RemoteCacheClient::Prepend(std::string_view key,
                                       std::string_view blob) {
  Request r;
  r.command = Command::kPrepend;
  r.key = key;
  r.data = blob;
  return ToStoreResult(Call(r));
}

std::optional<std::uint64_t> RemoteCacheClient::Incr(std::string_view key,
                                                     std::uint64_t amount) {
  Request r;
  r.command = Command::kIncr;
  r.key = key;
  r.amount = amount;
  Response resp = Call(r);
  if (resp.type != ResponseType::kNumber) return std::nullopt;
  return resp.number;
}

std::optional<std::uint64_t> RemoteCacheClient::Decr(std::string_view key,
                                                     std::uint64_t amount) {
  Request r;
  r.command = Command::kDecr;
  r.key = key;
  r.amount = amount;
  Response resp = Call(r);
  if (resp.type != ResponseType::kNumber) return std::nullopt;
  return resp.number;
}

void RemoteCacheClient::FlushAll() {
  Request r;
  r.command = Command::kFlushAll;
  Call(r);
}

std::string RemoteCacheClient::Stats() {
  Request r;
  r.command = Command::kStats;
  return Call(r).message;
}

std::optional<RemoteCacheClient::TraceDrain> RemoteCacheClient::TraceWithInfo(
    std::uint64_t max_events) {
  Request r;
  r.command = Command::kTrace;
  r.amount = max_events;
  Response resp = Call(r);
  TraceDrain drain;
  // A headerless empty trace (pre-TRACE_INFO server) is a bare END.
  if (resp.type == ResponseType::kEnd) return drain;
  if (resp.type != ResponseType::kTrace) return std::nullopt;
  if (!ParseTraceEvents(resp.message, &drain.events, &drain.info,
                        &drain.has_info)) {
    return std::nullopt;
  }
  return drain;
}

GetReply RemoteCacheClient::IQget(std::string_view key, SessionId session) {
  Request r;
  r.command = Command::kIQGet;
  r.key = key;
  r.session = session;
  Response resp = Call(r);
  switch (resp.type) {
    case ResponseType::kValue:
      // The ttl token, if any, is a duration relative to receipt: the
      // caller anchors it to its own clock the moment it stores the entry.
      return {GetReply::Status::kHit, std::move(resp.data), 0,
              static_cast<Nanos>(resp.ttl_ns)};
    case ResponseType::kMissToken:
      return {GetReply::Status::kMissGrantedI, {}, resp.number};
    case ResponseType::kMissNoLease:
      return {GetReply::Status::kMissNoLease, {}, 0};
    case ResponseType::kMissBackoff:
      return {GetReply::Status::kMissBackoff, {}, 0};
    default:
      // Transport failure (or a refused/garbled command): report the outage
      // rather than kMissBackoff, which would make the session spin its full
      // retry budget against a dead server.
      return {GetReply::Status::kTransportError, {}, 0};
  }
}

StoreResult RemoteCacheClient::IQset(std::string_view key,
                                     std::string_view value,
                                     LeaseToken token) {
  Request r;
  r.command = Command::kIQSet;
  r.key = key;
  r.data = value;
  r.token = token;
  return ToStoreResult(Call(r));
}

QaReadReply RemoteCacheClient::QaRead(std::string_view key,
                                      SessionId session) {
  Request r;
  r.command = Command::kQaRead;
  r.key = key;
  r.session = session;
  Response resp = Call(r);
  switch (resp.type) {
    case ResponseType::kQValue:
      return {QaReadReply::Status::kGranted, std::move(resp.data), resp.number};
    case ResponseType::kQMiss:
      return {QaReadReply::Status::kGranted, std::nullopt, resp.number};
    case ResponseType::kReject:
      return {QaReadReply::Status::kReject, std::nullopt, 0};
    default:
      // Only an explicit REJECT means "Q conflict, abort and retry". A dead
      // channel must surface as an outage so the session aborts its RDBMS
      // txn instead of spinning the conflict path forever.
      return {QaReadReply::Status::kTransportError, std::nullopt, 0};
  }
}

StoreResult RemoteCacheClient::SaR(std::string_view key,
                                   std::optional<std::string_view> value,
                                   LeaseToken token) {
  Request r;
  r.command = value ? Command::kSaR : Command::kSaRNull;
  r.key = key;
  if (value) r.data = *value;
  r.token = token;
  return ToStoreResult(Call(r));
}

SessionId RemoteCacheClient::GenID() {
  Request r;
  r.command = Command::kGenId;
  Response resp = Call(r);
  return resp.type == ResponseType::kId ? resp.number : 0;
}

QuarantineResult RemoteCacheClient::QaReg(SessionId tid,
                                          std::string_view key) {
  Request r;
  r.command = Command::kQaReg;
  r.session = tid;
  r.key = key;
  switch (Call(r).type) {
    case ResponseType::kGranted: return QuarantineResult::kGranted;
    case ResponseType::kReject: return QuarantineResult::kReject;
    default: return QuarantineResult::kTransportError;
  }
}

bool RemoteCacheClient::DaR(SessionId tid) {
  Request r;
  r.command = Command::kDaR;
  r.session = tid;
  return Call(r).type == ResponseType::kOk;
}

QuarantineResult RemoteCacheClient::IQDelta(SessionId tid,
                                            std::string_view key,
                                            DeltaOp delta) {
  Request r;
  r.session = tid;
  r.key = key;
  switch (delta.kind) {
    case DeltaOp::Kind::kAppend:
      r.command = Command::kIQAppend;
      r.data = std::move(delta.blob);
      break;
    case DeltaOp::Kind::kPrepend:
      r.command = Command::kIQPrepend;
      r.data = std::move(delta.blob);
      break;
    case DeltaOp::Kind::kIncr:
      r.command = Command::kIQIncr;
      r.amount = delta.amount;
      break;
    case DeltaOp::Kind::kDecr:
      r.command = Command::kIQDecr;
      r.amount = delta.amount;
      break;
  }
  switch (Call(r).type) {
    case ResponseType::kGranted: return QuarantineResult::kGranted;
    case ResponseType::kReject: return QuarantineResult::kReject;
    default: return QuarantineResult::kTransportError;
  }
}

bool RemoteCacheClient::Commit(SessionId tid) {
  Request r;
  r.command = Command::kCommit;
  r.session = tid;
  return Call(r).type == ResponseType::kOk;
}

bool RemoteCacheClient::Abort(SessionId tid) {
  Request r;
  r.command = Command::kAbort;
  r.session = tid;
  return Call(r).type == ResponseType::kOk;
}

bool RemoteCacheClient::Release(SessionId tid, std::string_view key) {
  Request r;
  r.command = Command::kRelease;
  r.session = tid;
  r.key = key;
  return Call(r).type == ResponseType::kOk;
}

}  // namespace iq::net
