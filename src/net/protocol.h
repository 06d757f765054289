// The memcached text protocol, extended with the IQ commands of Section 5.
//
// Standard commands (memcached 1.4 text protocol subset):
//   get <key> [<key> ...]\r\n                        (multi-key: one round trip)
//   gets <key> [<key> ...]\r\n                       (returns cas unique)
//   set|add|replace <key> <flags> <exptime> <bytes>\r\n<data>\r\n
//   cas <key> <flags> <exptime> <bytes> <unique>\r\n<data>\r\n
//   append|prepend <key> <flags> <exptime> <bytes>\r\n<data>\r\n
//   delete <key>\r\n
//   incr|decr <key> <amount>\r\n
//   flush_all\r\n
//   stats\r\n
//   quit\r\n
//
// IQ extensions (one line each; tokens are decimal):
//   iqget <key> <session>\r\n
//     -> VALUE ... | MISS_TOKEN <token> | MISS_BACKOFF | MISS_NOLEASE
//     (a hit's VALUE line may carry a trailing T<ttl_ns> token: a near-cache
//      validity interval. Always a DURATION relative to receipt, never an
//      absolute deadline — client and server clocks are not comparable over
//      TCP. Old parsers skip the non-numeric token harmlessly.)
//   iqset <key> <token> <bytes>\r\n<data>\r\n  -> STORED | NOT_STORED
//   qaread <key> <session>\r\n
//     -> QVALUE <token> ...data block... | QMISS <token> | REJECT
//   sar <key> <token> <bytes>\r\n<data>\r\n    -> STORED | NOT_FOUND
//   sarnull <key> <token>\r\n                  -> STORED | NOT_FOUND
//   genid\r\n                                  -> ID <session>
//   qareg <tid> <key>\r\n                      -> GRANTED
//   dar <tid>\r\n                              -> OK
//   iqappend|iqprepend <tid> <key> <bytes>\r\n<data>\r\n -> GRANTED | REJECT
//   iqincr|iqdecr <tid> <key> <amount>\r\n     -> GRANTED | REJECT
//   commit <tid>\r\n                           -> OK
//   abort <tid>\r\n                            -> OK
//   release <tid> <key>\r\n                    -> OK
//     (drop the session's lease on one key; buffered deltas/quarantines on
//      other keys survive — unlike abort)
//   sweep\r\n                                  -> <number of leases expired>
//     (force one pass over the lease table, expiring overdue leases — the
//      same reclamation a periodic server-side sweep thread performs)
//   metrics\r\n                                -> METRICS <bytes>\r\n<data>\r\n
//     (Prometheus exposition text: lifetime totals plus rates over the
//      window since the previous metrics scrape; see net/metrics.h)
//   trace [<n>]\r\n            -> TRACE_INFO + TRACE lines + END\r\n
//     (a "TRACE_INFO <recorded> <dropped> <capacity>" completeness header —
//      dropped != 0 means the rings wrapped and the history is incomplete —
//      then the newest n (default 128) lease-trace events, one
//      "TRACE <seq> <at> <shard> <kind> <session> <key_hash>" line each;
//      see util/trace_ring.h)
//
// Codec rules (DESIGN.md §4.2): one verb table serves both directions; each
// line is tokenized once, left to right, into nothing but views; each
// payload byte is copied once, from the receive buffer into the caller's
// Request/Response. The parsers fill the caller's object in place: a
// reused Request/Response keeps its string capacity, so parsing a
// single-key request or reply into a warm one allocates nothing. The
// request parser is incremental. The same parse functions double as
// framing-only scans (no output object): TcpChannel uses them to count the
// replies a batch draws and to find where each reply ends, and TcpServer to
// peek at the keys of the requests it is about to execute.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace iq::net {

/// Upper bound on the <bytes> field of any data block, request or response.
/// Without a cap a remote peer can claim a length near SIZE_MAX and make the
/// terminator arithmetic (`eol + 2 + bytes + 2`) wrap, landing the computed
/// data block back on top of the command line — the request is then accepted
/// and the bytes meant as its payload are re-executed as commands (protocol
/// desync). Oversized claims draw kError / are never treated as complete.
constexpr std::size_t kMaxPayloadBytes = 8u << 20;

/// Outcome of one parse attempt, requests and responses alike.
enum class ParseStatus {
  kOk,        // one complete message taken; *consumed is its length
  kNeedMore,  // the bytes end inside a message
  kError,     // malformed: a request draws CLIENT_ERROR, a reply desyncs
};

enum class Command {
  kGet,
  kGets,
  kSet,
  kAdd,
  kReplace,
  kCas,
  kAppend,
  kPrepend,
  kDelete,
  kIncr,
  kDecr,
  kFlushAll,
  kStats,
  kQuit,
  // IQ extensions
  kIQGet,
  kIQSet,
  kQaRead,
  kSaR,
  kSaRNull,
  kGenId,
  kQaReg,
  kDaR,
  kIQAppend,
  kIQPrepend,
  kIQIncr,
  kIQDecr,
  kCommit,
  kAbort,
  kRelease,
  kSweep,
  kMetrics,
  kTrace,
};

const char* ToString(Command c);

/// One parsed request.
struct Request {
  Command command;
  std::string key;
  /// Multi-key get/gets only: every key in order (keys[0] == key). A
  /// single-key get leaves it empty and carries just `key`.
  std::vector<std::string> keys;
  std::string data;            // payload of storage commands
  std::uint32_t flags = 0;
  std::int64_t exptime = 0;    // seconds, memcached-style
  std::uint64_t cas_unique = 0;
  std::uint64_t amount = 0;    // incr/decr
  std::uint64_t token = 0;     // IQ lease token
  std::uint64_t session = 0;   // IQ session / tid
};

/// Receive buffer: read() lands bytes straight in its spare capacity (no
/// bounce buffer), parsers read them in place, and consumed bytes leave
/// from the front. The storage is uninitialized on growth, so reserving a
/// large read window costs nothing until the kernel fills it.
class RecvBuffer {
 public:
  /// Spare capacity a socket reader asks for before each read().
  static constexpr std::size_t kReadChunk = 16 * 1024;

  /// Bytes received and not yet consumed.
  std::string_view Unread() const {
    return std::string_view(data_.get() + begin_, end_ - begin_);
  }
  std::size_t size() const { return end_ - begin_; }

  /// At least `min_bytes` of writable space after the unread bytes; write
  /// into it, then Commit() the count actually written.
  std::span<char> WritableTail(std::size_t min_bytes);
  void Commit(std::size_t n) { end_ += n; }

  void Append(std::string_view bytes);
  void Consume(std::size_t n);

 private:
  std::unique_ptr<char[]> data_;
  std::size_t capacity_ = 0;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
};

/// Incremental request parser. Tolerates requests split across arbitrary
/// Feed() boundaries (as TCP would deliver them).
class RequestParser {
 public:
  using Status = ParseStatus;

  /// Append raw bytes to the internal buffer.
  void Feed(std::string_view bytes) { buffer_.Append(bytes); }

  /// Receive straight into the parser: read() into WritableTail(), then
  /// Commit() the bytes read.
  std::span<char> WritableTail(std::size_t min_bytes) {
    return buffer_.WritableTail(min_bytes);
  }
  void Commit(std::size_t n) { buffer_.Commit(n); }

  /// Take one request into *out, reusing its string capacity. Fields the
  /// command does not carry are reset. On kError the bad line (or data
  /// block) is skipped and *error says why; *out is then unspecified.
  Status Next(Request* out, std::string* error);

  /// Bytes buffered but not yet consumed by Next().
  std::size_t buffered() const { return buffer_.size(); }
  /// Those bytes, valid until the next Feed/Commit/Next.
  std::string_view Unread() const { return buffer_.Unread(); }

 private:
  RecvBuffer buffer_;
  /// buffered() below which Next() cannot complete: a request whose data
  /// block is still arriving is not re-scanned on every partial read.
  std::size_t need_ = 0;
};

/// Append the wire form of `request` to *out without intermediate strings —
/// the path used by pipelined clients to batch many requests into one
/// reused buffer.
void AppendTo(const Request& request, std::string* out);

/// How many replies a server sends for the complete requests at the front
/// of `bytes`: one per request, one CLIENT_ERROR per malformed line or
/// oversized payload claim, none for `quit` or anything after it (the
/// server closes). A framing-only scan: it builds no Request.
std::size_t ExpectedReplies(std::string_view bytes);

/// The first key of each of the next complete requests at the front of
/// `bytes`, at most keys.size() of them, in order; empty for a request
/// without a key or a malformed one. Stops at an incomplete request and
/// before `quit`. Returns how many requests it framed (the slots written).
/// The same framing-only scan as ExpectedReplies; the keys view `bytes`.
std::size_t PeekKeys(std::string_view bytes, std::span<std::string_view> keys);

// ---- responses ----------------------------------------------------------------

enum class ResponseType {
  kValue,        // (VALUE <key> <flags> <bytes> [<cas>] [T<ttl_ns>]\r\n<data>\r\n)+END\r\n
  kEnd,          // END (get miss)
  kStored,
  kNotStored,
  kExists,
  kNotFound,
  kDeleted,
  kNumber,       // incr/decr result
  kError,        // ERROR / CLIENT_ERROR <msg>
  kOk,
  kStats,        // STAT lines + END
  // IQ extensions
  kMissToken,    // MISS_TOKEN <token>
  kMissBackoff,  // MISS_BACKOFF
  kMissNoLease,  // MISS_NOLEASE
  kQValue,       // QVALUE <token> <bytes>\r\n<data>
  kQMiss,        // QMISS <token>
  kReject,       // REJECT
  kGranted,      // GRANTED
  kId,           // ID <session>
  // Observability
  kMetrics,      // METRICS <bytes>\r\n<data>\r\n (Prometheus text in data)
  kTrace,        // TRACE lines + END (raw lines in message)
  // Failure signalling
  kTransportError,  // SERVER_ERROR <msg>. Synthesized client-side by
                    // RemoteCacheClient::Call when the channel itself fails
                    // (dead connection, deadline, desync); distinct from
                    // kError (the server parsed the request and refused it)
                    // so sessions can tell outage from conflict.
};

/// One VALUE block of a multi-hit get/gets response.
struct ValueEntry {
  std::string key;
  std::string data;
  std::uint32_t flags = 0;
  std::uint64_t cas_unique = 0;
  /// Near-cache validity duration in nanoseconds (iqget hits; 0 = none).
  std::uint64_t ttl_ns = 0;
};

struct Response {
  ResponseType type;
  std::string key;
  std::string data;
  std::uint32_t flags = 0;
  std::uint64_t cas_unique = 0;
  bool with_cas = false;       // gets vs get
  /// Near-cache validity duration granted with an iqget hit (nanoseconds,
  /// 0 = none), carried as a trailing T<ttl_ns> token on the VALUE line.
  std::uint64_t ttl_ns = 0;
  std::uint64_t number = 0;    // incr/decr result, token, or session id
  std::string message;         // error text / stats payload
  /// kValue with more than one hit (multi-key get): every hit, in order.
  /// When non-empty it takes precedence over the single-value fields for
  /// serialization. ParseResponse fills it only for multi-hit replies, and
  /// then mirrors hit 0 into the single-value fields; a one-hit reply
  /// leaves it empty and fills the single-value fields alone.
  std::vector<ValueEntry> values;
};

/// Append the wire form of `response` to *out without intermediate strings
/// (server hot path: one reused output buffer per connection).
void AppendTo(const Response& response, std::string* out);

/// Parse the one response at the front of `bytes` into *out (client side),
/// reusing its string capacity; on kOk *consumed is the response's length.
/// `out == nullptr` is a framing-only scan: the same checks, nothing built.
/// On kNeedMore / kError *out is unspecified.
ParseStatus ParseResponse(std::string_view bytes, Response* out,
                          std::size_t* consumed);

}  // namespace iq::net
