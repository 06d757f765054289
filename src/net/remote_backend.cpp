#include "net/remote_backend.h"

namespace iq::net {

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

/// QaReg and the IQ-delta verbs. The server always grants QaReg, but only
/// an acknowledged GRANTED may be reported as one: a session on a dead
/// channel that believed its keys quarantined would commit its RDBMS txn
/// with no invalidation in place — the permanent staleness the whole lease
/// protocol exists to prevent.
QuarantineResult ToQuarantineResult(const Response& resp) {
  switch (resp.type) {
    case ResponseType::kGranted: return QuarantineResult::kGranted;
    case ResponseType::kReject: return QuarantineResult::kReject;
    default: return QuarantineResult::kTransportError;
  }
}

std::optional<std::uint64_t> ToNumber(const Response& resp) {
  if (resp.type != ResponseType::kNumber) return std::nullopt;
  return resp.number;
}

std::optional<CacheItem> ToItem(Response& resp) {
  if (resp.type != ResponseType::kValue) return std::nullopt;
  return CacheItem{std::move(resp.data), resp.flags, resp.cas_unique};
}

Request Keyed(Command command, std::string_view key) {
  Request r;
  r.command = command;
  r.key = key;
  return r;
}

Request ForSession(Command command, SessionId tid) {
  Request r;
  r.command = command;
  r.session = tid;
  return r;
}

}  // namespace

Response RemoteBackend::Call(const Request& request) {
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

// ---- the IQ command set ------------------------------------------------------

SessionId RemoteBackend::GenID() {
  Request r;
  r.command = Command::kGenId;
  Response resp = Call(r);
  return resp.type == ResponseType::kId ? resp.number : 0;
}

GetReply RemoteBackend::IQget(std::string_view key, SessionId session) {
  Request r = Keyed(Command::kIQGet, key);
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

StoreResult RemoteBackend::IQset(std::string_view key, std::string_view value,
                                 LeaseToken token) {
  Request r = Keyed(Command::kIQSet, key);
  r.data = value;
  r.token = token;
  return ToStoreResult(Call(r));
}

QaReadReply RemoteBackend::QaRead(std::string_view key, SessionId session) {
  Request r = Keyed(Command::kQaRead, key);
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

StoreResult RemoteBackend::SaR(std::string_view key,
                               std::optional<std::string_view> v_new,
                               LeaseToken token) {
  Request r = Keyed(v_new ? Command::kSaR : Command::kSaRNull, key);
  if (v_new) r.data = *v_new;
  r.token = token;
  return ToStoreResult(Call(r));
}

QuarantineResult RemoteBackend::QaReg(SessionId tid, std::string_view key) {
  Request r = Keyed(Command::kQaReg, key);
  r.session = tid;
  return ToQuarantineResult(Call(r));
}

// DaR/Commit/Abort/release report nothing: an unacknowledged one may or may
// not have been applied, and lease expiry is the backstop either way.
void RemoteBackend::DaR(SessionId tid) { Call(ForSession(Command::kDaR, tid)); }

QuarantineResult RemoteBackend::IQDelta(SessionId tid, std::string_view key,
                                        DeltaOp delta) {
  Request r = ForSession(Command::kIQAppend, tid);
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
  return ToQuarantineResult(Call(r));
}

void RemoteBackend::Commit(SessionId tid) {
  Call(ForSession(Command::kCommit, tid));
}

void RemoteBackend::Abort(SessionId tid) {
  Call(ForSession(Command::kAbort, tid));
}

void RemoteBackend::ReleaseKey(SessionId tid, std::string_view key) {
  Request r = ForSession(Command::kRelease, tid);
  r.key = key;
  Call(r);
}

// ---- plain memcached operations ------------------------------------------------

std::optional<CacheItem> RemoteBackend::Get(std::string_view key) {
  Response resp = Call(Keyed(Command::kGets, key));
  return ToItem(resp);
}

StoreResult RemoteBackend::Set(std::string_view key, std::string_view value) {
  Request r = Keyed(Command::kSet, key);
  r.data = value;
  return ToStoreResult(Call(r));
}

StoreResult RemoteBackend::Add(std::string_view key, std::string_view value) {
  Request r = Keyed(Command::kAdd, key);
  r.data = value;
  return ToStoreResult(Call(r));
}

StoreResult RemoteBackend::Cas(std::string_view key, std::string_view value,
                               std::uint64_t cas) {
  Request r = Keyed(Command::kCas, key);
  r.data = value;
  r.cas_unique = cas;
  return ToStoreResult(Call(r));
}

StoreResult RemoteBackend::Append(std::string_view key, std::string_view blob) {
  Request r = Keyed(Command::kAppend, key);
  r.data = blob;
  return ToStoreResult(Call(r));
}

StoreResult RemoteBackend::Prepend(std::string_view key,
                                   std::string_view blob) {
  Request r = Keyed(Command::kPrepend, key);
  r.data = blob;
  return ToStoreResult(Call(r));
}

std::optional<std::uint64_t> RemoteBackend::Incr(std::string_view key,
                                                 std::uint64_t amount) {
  Request r = Keyed(Command::kIncr, key);
  r.amount = amount;
  return ToNumber(Call(r));
}

std::optional<std::uint64_t> RemoteBackend::Decr(std::string_view key,
                                                 std::uint64_t amount) {
  Request r = Keyed(Command::kDecr, key);
  r.amount = amount;
  return ToNumber(Call(r));
}

bool RemoteBackend::DeleteVoid(std::string_view key) {
  return Call(Keyed(Command::kDelete, key)).type == ResponseType::kDeleted;
}

// ---- wire-only verbs -------------------------------------------------------------

std::vector<std::optional<CacheItem>> RemoteBackend::MultiGet(
    const std::vector<std::string>& keys, bool with_cas) {
  std::vector<std::optional<CacheItem>> out(keys.size());
  if (keys.empty()) return out;
  Request r = Keyed(with_cas ? Command::kGets : Command::kGet, keys.front());
  if (keys.size() > 1) r.keys = keys;
  Response resp = Call(r);
  if (resp.type != ResponseType::kValue) return out;
  if (resp.values.empty()) {
    // One hit: it rides in the single-value fields.
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (keys[i] != resp.key) continue;
      out[i] = ToItem(resp);
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

std::string RemoteBackend::Stats() {
  Request r;
  r.command = Command::kStats;
  return Call(r).message;
}

std::optional<RemoteBackend::TraceDrain> RemoteBackend::TraceWithInfo(
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

}  // namespace iq::net
