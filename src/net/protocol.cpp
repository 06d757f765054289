#include "net/protocol.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <optional>

namespace iq::net {
namespace {

std::optional<std::uint64_t> ParseU64(std::string_view s) {
  std::uint64_t v = 0;
  auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || p != s.data() + s.size()) return std::nullopt;
  return v;
}

std::optional<std::int64_t> ParseI64(std::string_view s) {
  std::int64_t v = 0;
  auto [p, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || p != s.data() + s.size()) return std::nullopt;
  return v;
}

void AppendU64(std::string* out, std::uint64_t v) {
  char buf[20];
  auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;
  out->append(buf, p - buf);
}

void AppendI64(std::string* out, std::int64_t v) {
  char buf[21];
  auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;
  out->append(buf, p - buf);
}

/// The space-separated tokens of one protocol line, taken left to right
/// without storing them: every line is scanned exactly once.
class Tokens {
 public:
  explicit Tokens(std::string_view line) : line_(line) {}

  /// The next token, or an empty view at the end of the line.
  std::string_view Next() {
    SkipSpaces();
    std::size_t start = pos_;
    while (pos_ < line_.size() && line_[pos_] != ' ') ++pos_;
    return line_.substr(start, pos_ - start);
  }

  bool Done() {
    SkipSpaces();
    return pos_ == line_.size();
  }

  /// The untokenized remainder of the line.
  std::string_view Rest() const { return line_.substr(pos_); }

 private:
  void SkipSpaces() {
    while (pos_ < line_.size() && line_[pos_] == ' ') ++pos_;
  }

  std::string_view line_;
  std::size_t pos_ = 0;
};

/// Take exactly one token per output and then the end of the line.
template <typename... Views>
bool Exactly(Tokens& tok, Views*... out) {
  return ((*out = tok.Next(), !out->empty()) && ...) && tok.Done();
}

// ---- the verb table ------------------------------------------------------------

struct Verb {
  std::string_view name;
  Command command;
  bool has_payload;  // followed by a data block
};

/// Indexed by Command: ToString() reads it one way, the parser the other.
constexpr Verb kVerbs[] = {
    {"get", Command::kGet, false},
    {"gets", Command::kGets, false},
    {"set", Command::kSet, true},
    {"add", Command::kAdd, true},
    {"replace", Command::kReplace, true},
    {"cas", Command::kCas, true},
    {"append", Command::kAppend, true},
    {"prepend", Command::kPrepend, true},
    {"delete", Command::kDelete, false},
    {"incr", Command::kIncr, false},
    {"decr", Command::kDecr, false},
    {"flush_all", Command::kFlushAll, false},
    {"stats", Command::kStats, false},
    {"quit", Command::kQuit, false},
    {"iqget", Command::kIQGet, false},
    {"iqset", Command::kIQSet, true},
    {"qaread", Command::kQaRead, false},
    {"sar", Command::kSaR, true},
    {"sarnull", Command::kSaRNull, false},
    {"genid", Command::kGenId, false},
    {"qareg", Command::kQaReg, false},
    {"dar", Command::kDaR, false},
    {"iqappend", Command::kIQAppend, true},
    {"iqprepend", Command::kIQPrepend, true},
    {"iqincr", Command::kIQIncr, false},
    {"iqdecr", Command::kIQDecr, false},
    {"commit", Command::kCommit, false},
    {"abort", Command::kAbort, false},
    {"release", Command::kRelease, false},
    {"sweep", Command::kSweep, false},
    {"metrics", Command::kMetrics, false},
    {"trace", Command::kTrace, false},
};

constexpr bool VerbsIndexedByCommand() {
  for (std::size_t i = 0; i < std::size(kVerbs); ++i) {
    if (static_cast<std::size_t>(kVerbs[i].command) != i) return false;
  }
  return static_cast<std::size_t>(Command::kTrace) + 1 == std::size(kVerbs);
}
static_assert(VerbsIndexedByCommand());

/// Linear scan over 32 short names, comparing length and first byte before
/// any memcmp: no hashing and no allocation.
const Verb* FindVerb(std::string_view name) {
  for (const Verb& v : kVerbs) {
    if (v.name.size() == name.size() && v.name[0] == name[0] &&
        std::memcmp(v.name.data(), name.data(), name.size()) == 0) {
      return &v;
    }
  }
  return nullptr;
}

// ---- requests ------------------------------------------------------------------

/// A request line's fields as views into the line; nothing owned.
struct RequestLine {
  std::string_view key;
  std::string_view more_keys;  // multi-key get: the line after the first key
  std::uint64_t payload = 0;   // <bytes> of the data block
  std::uint32_t flags = 0;
  std::int64_t exptime = 0;
  std::uint64_t cas_unique = 0;
  std::uint64_t amount = 0;
  std::uint64_t token = 0;
  std::uint64_t session = 0;
};

/// Parse the arguments after the verb. Returns the error text for a
/// malformed line, nullptr on success.
const char* ParseArgs(Command command, Tokens& tok, RequestLine* line) {
  std::string_view a, b, c, d;
  auto u64 = [](std::string_view s, std::uint64_t* v) {
    auto n = ParseU64(s);
    if (n) *v = *n;
    return n.has_value();
  };
  switch (command) {
    case Command::kGet:
    case Command::kGets:
      // Multi-key retrieval per the real memcached protocol: one request
      // line, N keys, one END-terminated response.
      line->key = tok.Next();
      if (line->key.empty()) return "bad argument count";
      if (!tok.Done()) line->more_keys = tok.Rest();
      return nullptr;
    case Command::kDelete:
      if (!Exactly(tok, &line->key)) return "bad argument count";
      return nullptr;
    case Command::kSet:
    case Command::kAdd:
    case Command::kReplace:
    case Command::kAppend:
    case Command::kPrepend:
    case Command::kCas: {
      bool ok = command == Command::kCas
                    ? Exactly(tok, &line->key, &a, &b, &c, &d)
                    : Exactly(tok, &line->key, &a, &b, &c);
      if (!ok) return "bad argument count";
      std::uint64_t flags = 0;
      auto exptime = ParseI64(b);
      if (!u64(a, &flags) || !exptime || !u64(c, &line->payload) ||
          (command == Command::kCas && !u64(d, &line->cas_unique))) {
        return "bad numeric field";
      }
      line->flags = static_cast<std::uint32_t>(flags);
      line->exptime = *exptime;
      return nullptr;
    }
    case Command::kIncr:
    case Command::kDecr:
      if (!Exactly(tok, &line->key, &a)) return "bad argument count";
      if (!u64(a, &line->amount)) return "bad amount";
      return nullptr;
    case Command::kFlushAll:
    case Command::kStats:
    case Command::kQuit:
    case Command::kGenId:
    case Command::kSweep:
    case Command::kMetrics:
      if (!tok.Done()) return "bad argument count";
      return nullptr;
    case Command::kTrace:
      // Optional event count: `trace` or `trace <n>`. 0 (or omitted) means
      // the server default.
      if (tok.Done()) return nullptr;
      if (!Exactly(tok, &a)) return "bad argument count";
      if (!u64(a, &line->amount)) return "bad event count";
      return nullptr;
    case Command::kIQGet:
    case Command::kQaRead:
      if (!Exactly(tok, &line->key, &a)) return "bad argument count";
      if (!u64(a, &line->session)) return "bad session id";
      return nullptr;
    case Command::kIQSet:
    case Command::kSaR:
      if (!Exactly(tok, &line->key, &a, &b)) return "bad argument count";
      if (!u64(a, &line->token) || !u64(b, &line->payload)) {
        return "bad numeric field";
      }
      return nullptr;
    case Command::kSaRNull:
      if (!Exactly(tok, &line->key, &a)) return "bad argument count";
      if (!u64(a, &line->token)) return "bad token";
      return nullptr;
    case Command::kQaReg:
    case Command::kRelease:
      if (!Exactly(tok, &a, &line->key)) return "bad argument count";
      if (!u64(a, &line->session)) return "bad tid";
      return nullptr;
    case Command::kDaR:
    case Command::kCommit:
    case Command::kAbort:
      if (!Exactly(tok, &a)) return "bad argument count";
      if (!u64(a, &line->session)) return "bad tid";
      return nullptr;
    case Command::kIQAppend:
    case Command::kIQPrepend:
      if (!Exactly(tok, &a, &line->key, &b)) return "bad argument count";
      if (!u64(a, &line->session) || !u64(b, &line->payload)) {
        return "bad numeric field";
      }
      return nullptr;
    case Command::kIQIncr:
    case Command::kIQDecr:
      if (!Exactly(tok, &a, &line->key, &b)) return "bad argument count";
      if (!u64(a, &line->session) || !u64(b, &line->amount)) {
        return "bad numeric field";
      }
      return nullptr;
  }
  return "unhandled command";
}

void Fill(Request* out, Command command, const RequestLine& line,
          std::string_view data) {
  out->command = command;
  out->key.assign(line.key);
  out->keys.clear();
  if (!line.more_keys.empty()) {
    out->keys.emplace_back(line.key);
    Tokens more(line.more_keys);
    for (std::string_view k = more.Next(); !k.empty(); k = more.Next()) {
      out->keys.emplace_back(k);
    }
  }
  out->data.assign(data);
  out->flags = line.flags;
  out->exptime = line.exptime;
  out->cas_unique = line.cas_unique;
  out->amount = line.amount;
  out->token = line.token;
  out->session = line.session;
}

/// What a framing-only parse learns about a complete request.
struct Framed {
  const Verb* verb = nullptr;
  std::string_view key;  // first key; a view into the parsed bytes
};

/// Parse (out != nullptr) or just frame (out == nullptr) the request at the
/// front of `bytes`. *consumed: the message length on kOk, the bytes to skip
/// on kError, and on kNeedMore the size the bytes must reach before another
/// attempt can succeed. `error` and `framed` may be null.
ParseStatus ParseRequest(std::string_view bytes, Request* out,
                         std::size_t* consumed, std::string* error,
                         Framed* framed) {
  std::size_t eol = bytes.find("\r\n");
  if (eol == std::string_view::npos) {
    *consumed = bytes.size() + 1;
    return ParseStatus::kNeedMore;
  }
  std::size_t line_end = eol + 2;
  auto fail = [&](std::size_t skip, const char* why) {
    *consumed = skip;
    if (error != nullptr) *error = why;
    return ParseStatus::kError;
  };
  Tokens tok(bytes.substr(0, eol));
  std::string_view name = tok.Next();
  if (name.empty()) return fail(line_end, "empty command line");
  const Verb* v = FindVerb(name);
  if (v == nullptr) {
    *consumed = line_end;
    if (error != nullptr) {
      error->assign("unknown command '").append(name).append("'");
    }
    return ParseStatus::kError;
  }
  RequestLine line;
  if (const char* why = ParseArgs(v->command, tok, &line)) {
    return fail(line_end, why);
  }
  std::string_view data;
  std::size_t total = line_end;
  if (v->has_payload) {
    std::uint64_t need = line.payload;
    if (need > kMaxPayloadBytes) {
      // Never wait for (or index past) an absurd length claim; see the
      // kMaxPayloadBytes comment. Resync past the command line — the bytes
      // the peer meant as payload will parse as garbage commands and draw
      // further CLIENT_ERRORs, but nothing is silently executed as data.
      return fail(line_end, "payload exceeds protocol limit");
    }
    // Data block: <need> bytes followed by \r\n. `avail`-style comparisons
    // keep the arithmetic overflow-free even if the cap above ever moves.
    std::size_t avail = bytes.size() - line_end;
    if (avail < need || avail - need < 2) {
      *consumed = line_end + need + 2;
      return ParseStatus::kNeedMore;
    }
    total = line_end + need + 2;
    if (bytes[total - 2] != '\r' || bytes[total - 1] != '\n') {
      return fail(total, "bad data chunk terminator");
    }
    data = bytes.substr(line_end, need);
  }
  *consumed = total;
  if (framed != nullptr) *framed = Framed{v, line.key};
  if (out != nullptr) Fill(out, v->command, line, data);
  return ParseStatus::kOk;
}

/// Frame the complete requests at the front of `bytes`, at most `limit` of
/// them, stopping at an incomplete one and before `quit` (the server
/// closes there). Calls visit(key) for each, with an empty key for a
/// malformed request (it draws one CLIENT_ERROR) or a keyless verb.
/// Returns how many were framed.
template <typename Visit>
std::size_t FrameRequests(std::string_view bytes, std::size_t limit,
                          Visit visit) {
  std::size_t n = 0;
  while (n < limit && !bytes.empty()) {
    std::size_t consumed = 0;
    Framed framed;
    ParseStatus status =
        ParseRequest(bytes, nullptr, &consumed, nullptr, &framed);
    if (status == ParseStatus::kNeedMore) break;
    if (status == ParseStatus::kOk && framed.verb->command == Command::kQuit) {
      break;
    }
    visit(framed.key);  // empty on kError
    ++n;
    bytes.remove_prefix(consumed);
  }
  return n;
}

}  // namespace

const char* ToString(Command c) {
  // Every name is a string literal, so data() is NUL-terminated.
  return kVerbs[static_cast<std::size_t>(c)].name.data();
}

// ---- receive buffer ----------------------------------------------------------

std::span<char> RecvBuffer::WritableTail(std::size_t min_bytes) {
  if (capacity_ - end_ < min_bytes) {
    std::size_t unread = size();
    if (begin_ >= unread && capacity_ - unread >= min_bytes) {
      // Slide the unread bytes to the front. Only when they are no longer
      // than the consumed prefix, so every byte moves O(1) times overall.
      std::memmove(data_.get(), data_.get() + begin_, unread);
    } else {
      std::size_t grown = std::max(capacity_ * 2, unread + min_bytes);
      std::unique_ptr<char[]> bigger(new char[grown]);
      if (unread > 0) std::memcpy(bigger.get(), data_.get() + begin_, unread);
      data_ = std::move(bigger);
      capacity_ = grown;
    }
    begin_ = 0;
    end_ = unread;
  }
  return std::span<char>(data_.get() + end_, capacity_ - end_);
}

void RecvBuffer::Append(std::string_view bytes) {
  if (bytes.empty()) return;
  std::memcpy(WritableTail(bytes.size()).data(), bytes.data(), bytes.size());
  Commit(bytes.size());
}

void RecvBuffer::Consume(std::size_t n) {
  begin_ += n;
  if (begin_ == end_) begin_ = end_ = 0;
}

// ---- request parser ----------------------------------------------------------

RequestParser::Status RequestParser::Next(Request* out, std::string* error) {
  if (buffer_.size() < need_) return Status::kNeedMore;
  std::size_t consumed = 0;
  Status status =
      ParseRequest(buffer_.Unread(), out, &consumed, error, nullptr);
  if (status == Status::kNeedMore) {
    need_ = consumed;
  } else {
    buffer_.Consume(consumed);
    need_ = 0;
  }
  return status;
}

std::size_t ExpectedReplies(std::string_view bytes) {
  return FrameRequests(bytes, SIZE_MAX, [](std::string_view) {});
}

std::size_t PeekKeys(std::string_view bytes,
                     std::span<std::string_view> keys) {
  std::size_t n = 0;
  return FrameRequests(bytes, keys.size(),
                       [&](std::string_view key) { keys[n++] = key; });
}

void AppendTo(const Request& r, std::string* out) {
  auto data_block = [&] {
    out->push_back(' ');
    AppendU64(out, r.data.size());
    out->append("\r\n");
    out->append(r.data);
    out->append("\r\n");
  };
  out->append(ToString(r.command));
  switch (r.command) {
    case Command::kGet:
    case Command::kGets:
      if (r.keys.empty()) {
        out->push_back(' ');
        out->append(r.key);
      } else {
        for (const std::string& k : r.keys) {
          out->push_back(' ');
          out->append(k);
        }
      }
      out->append("\r\n");
      return;
    case Command::kSet:
    case Command::kAdd:
    case Command::kReplace:
    case Command::kAppend:
    case Command::kPrepend:
      out->push_back(' ');
      out->append(r.key);
      out->push_back(' ');
      AppendU64(out, r.flags);
      out->push_back(' ');
      AppendI64(out, r.exptime);
      data_block();
      return;
    case Command::kCas:
      out->push_back(' ');
      out->append(r.key);
      out->push_back(' ');
      AppendU64(out, r.flags);
      out->push_back(' ');
      AppendI64(out, r.exptime);
      out->push_back(' ');
      AppendU64(out, r.data.size());
      out->push_back(' ');
      AppendU64(out, r.cas_unique);
      out->append("\r\n");
      out->append(r.data);
      out->append("\r\n");
      return;
    case Command::kDelete:
      out->push_back(' ');
      out->append(r.key);
      out->append("\r\n");
      return;
    case Command::kIncr:
    case Command::kDecr:
      out->push_back(' ');
      out->append(r.key);
      out->push_back(' ');
      AppendU64(out, r.amount);
      out->append("\r\n");
      return;
    case Command::kFlushAll:
    case Command::kStats:
    case Command::kQuit:
    case Command::kGenId:
    case Command::kSweep:
    case Command::kMetrics:
      out->append("\r\n");
      return;
    case Command::kTrace:
      if (r.amount != 0) {
        out->push_back(' ');
        AppendU64(out, r.amount);
      }
      out->append("\r\n");
      return;
    case Command::kIQGet:
    case Command::kQaRead:
      out->push_back(' ');
      out->append(r.key);
      out->push_back(' ');
      AppendU64(out, r.session);
      out->append("\r\n");
      return;
    case Command::kIQSet:
    case Command::kSaR:
      out->push_back(' ');
      out->append(r.key);
      out->push_back(' ');
      AppendU64(out, r.token);
      data_block();
      return;
    case Command::kSaRNull:
      out->push_back(' ');
      out->append(r.key);
      out->push_back(' ');
      AppendU64(out, r.token);
      out->append("\r\n");
      return;
    case Command::kQaReg:
    case Command::kRelease:
      out->push_back(' ');
      AppendU64(out, r.session);
      out->push_back(' ');
      out->append(r.key);
      out->append("\r\n");
      return;
    case Command::kDaR:
    case Command::kCommit:
    case Command::kAbort:
      out->push_back(' ');
      AppendU64(out, r.session);
      out->append("\r\n");
      return;
    case Command::kIQAppend:
    case Command::kIQPrepend:
      out->push_back(' ');
      AppendU64(out, r.session);
      out->push_back(' ');
      out->append(r.key);
      data_block();
      return;
    case Command::kIQIncr:
    case Command::kIQDecr:
      out->push_back(' ');
      AppendU64(out, r.session);
      out->push_back(' ');
      out->append(r.key);
      out->push_back(' ');
      AppendU64(out, r.amount);
      out->append("\r\n");
      return;
  }
}

// ---- responses -------------------------------------------------------------------

namespace {

/// Replies that are one fixed word: the serializer and the parser share it.
struct ReplyWord {
  std::string_view word;
  ResponseType type;
};

constexpr ReplyWord kReplyWords[] = {
    {"END", ResponseType::kEnd},
    {"STORED", ResponseType::kStored},
    {"NOT_STORED", ResponseType::kNotStored},
    {"EXISTS", ResponseType::kExists},
    {"NOT_FOUND", ResponseType::kNotFound},
    {"DELETED", ResponseType::kDeleted},
    {"OK", ResponseType::kOk},
    {"MISS_BACKOFF", ResponseType::kMissBackoff},
    {"MISS_NOLEASE", ResponseType::kMissNoLease},
    {"REJECT", ResponseType::kReject},
    {"GRANTED", ResponseType::kGranted},
    {"ERROR", ResponseType::kError},
};

/// Replies whose head is followed by one decimal number.
constexpr ReplyWord kNumberedReplies[] = {
    {"MISS_TOKEN", ResponseType::kMissToken},
    {"QMISS", ResponseType::kQMiss},
    {"ID", ResponseType::kId},
};

template <std::size_t N>
const ReplyWord* FindReply(const ReplyWord (&table)[N], std::string_view head) {
  for (const ReplyWord& w : table) {
    if (w.word == head) return &w;
  }
  return nullptr;
}

std::string_view WordOf(ResponseType type) {
  for (const ReplyWord& w : kReplyWords) {
    if (w.type == type) return w.word;
  }
  for (const ReplyWord& w : kNumberedReplies) {
    if (w.type == type) return w.word;
  }
  return {};
}

void AppendValueBlock(std::string* out, const std::string& key,
                      const std::string& data, std::uint32_t flags,
                      bool with_cas, std::uint64_t cas_unique,
                      std::uint64_t ttl_ns) {
  out->append("VALUE ");
  out->append(key);
  out->push_back(' ');
  AppendU64(out, flags);
  out->push_back(' ');
  AppendU64(out, data.size());
  if (with_cas) {
    out->push_back(' ');
    AppendU64(out, cas_unique);
  }
  if (ttl_ns != 0) {
    // Near-cache validity duration. The 'T' prefix keeps the token
    // non-numeric, so pre-TTL parsers skip it instead of mistaking it for
    // a cas unique.
    out->append(" T");
    AppendU64(out, ttl_ns);
  }
  out->append("\r\n");
  out->append(data);
  out->append("\r\n");
}

/// A sized data block of `size` bytes plus \r\n starting at `at`.
ParseStatus TakeBlock(std::string_view bytes, std::size_t at,
                      std::uint64_t size, std::string_view* block) {
  if (size > kMaxPayloadBytes) return ParseStatus::kError;
  std::size_t avail = bytes.size() - at;
  if (avail < size || avail - size < 2) return ParseStatus::kNeedMore;
  if (bytes[at + size] != '\r' || bytes[at + size + 1] != '\n') {
    return ParseStatus::kError;
  }
  *block = bytes.substr(at, size);
  return ParseStatus::kOk;
}

/// Lines up to a line reading exactly END (STAT and TRACE replies). On kOk
/// *end is where the END line starts.
ParseStatus FindEndLine(std::string_view bytes, std::size_t* end) {
  std::size_t off = 0;
  while (true) {
    std::size_t eol = bytes.find("\r\n", off);
    if (eol == std::string_view::npos) return ParseStatus::kNeedMore;
    if (bytes.substr(off, eol - off) == "END") {
      *end = off;
      return ParseStatus::kOk;
    }
    off = eol + 2;
  }
}

/// The VALUE blocks of a get reply, up to its END. Hit 0 goes to the
/// single-value fields; a second hit moves the reply into `values`.
ParseStatus ParseValueBlocks(std::string_view bytes, Response* out,
                             std::size_t* consumed) {
  std::size_t off = 0;
  std::size_t hits = 0;
  while (true) {
    if (bytes.size() - off >= 5 && bytes.compare(off, 5, "END\r\n") == 0) {
      *consumed = off + 5;
      return ParseStatus::kOk;
    }
    std::size_t eol = bytes.find("\r\n", off);
    if (eol == std::string_view::npos) return ParseStatus::kNeedMore;
    Tokens tok(bytes.substr(off, eol - off));
    std::string_view head = tok.Next(), key = tok.Next(),
                     flags_tok = tok.Next(), size_tok = tok.Next();
    if (head != "VALUE" || size_tok.empty()) return ParseStatus::kError;
    auto flags = ParseU64(flags_tok);
    auto size = ParseU64(size_tok);
    if (!flags || !size) return ParseStatus::kError;
    std::string_view data;
    ParseStatus block = TakeBlock(bytes, eol + 2, *size, &data);
    if (block != ParseStatus::kOk) return block;
    off = eol + 2 + data.size() + 2;
    if (out == nullptr) {
      ++hits;
      continue;
    }
    std::uint64_t cas_unique = 0;
    std::uint64_t ttl_ns = 0;
    for (std::string_view extra = tok.Next(); !extra.empty();
         extra = tok.Next()) {
      if (extra[0] == 'T') {
        // Trailing near-cache validity duration (see protocol.h).
        if (auto ttl = ParseU64(extra.substr(1))) ttl_ns = *ttl;
      } else if (auto cas = ParseU64(extra)) {
        cas_unique = *cas;
        out->with_cas = true;
      }
    }
    if (hits == 0) {
      out->key.assign(key);
      out->data.assign(data);
      out->flags = static_cast<std::uint32_t>(*flags);
      out->cas_unique = cas_unique;
      out->ttl_ns = ttl_ns;
    } else {
      if (hits == 1) {
        out->values.push_back(ValueEntry{out->key, out->data, out->flags,
                                         out->cas_unique, out->ttl_ns});
      }
      out->values.push_back(ValueEntry{std::string(key), std::string(data),
                                       static_cast<std::uint32_t>(*flags),
                                       cas_unique, ttl_ns});
    }
    ++hits;
  }
}

void Reset(Response* out, ResponseType type) {
  out->type = type;
  out->key.clear();
  out->data.clear();
  out->flags = 0;
  out->cas_unique = 0;
  out->with_cas = false;
  out->ttl_ns = 0;
  out->number = 0;
  out->message.clear();
  out->values.clear();
}

}  // namespace

void AppendTo(const Response& r, std::string* out) {
  switch (r.type) {
    case ResponseType::kValue:
      if (!r.values.empty()) {
        for (const ValueEntry& v : r.values) {
          AppendValueBlock(out, v.key, v.data, v.flags, r.with_cas,
                           v.cas_unique, v.ttl_ns);
        }
      } else {
        AppendValueBlock(out, r.key, r.data, r.flags, r.with_cas,
                         r.cas_unique, r.ttl_ns);
      }
      out->append("END\r\n");
      return;
    case ResponseType::kNumber:
      AppendU64(out, r.number);
      out->append("\r\n");
      return;
    case ResponseType::kError:
      if (r.message.empty()) {
        out->append("ERROR\r\n");
      } else {
        out->append("CLIENT_ERROR ");
        out->append(r.message);
        out->append("\r\n");
      }
      return;
    case ResponseType::kStats:
      out->append(r.message);
      out->append("END\r\n");
      return;
    case ResponseType::kMissToken:
    case ResponseType::kQMiss:
    case ResponseType::kId:
      out->append(WordOf(r.type));
      out->push_back(' ');
      AppendU64(out, r.number);
      out->append("\r\n");
      return;
    case ResponseType::kQValue:
      out->append("QVALUE ");
      AppendU64(out, r.number);
      out->push_back(' ');
      AppendU64(out, r.data.size());
      out->append("\r\n");
      out->append(r.data);
      out->append("\r\n");
      return;
    case ResponseType::kMetrics:
      // Sized block like QVALUE: the Prometheus text contains arbitrary
      // lines ('#' comments, label braces) that must not be re-scanned as
      // protocol heads.
      out->append("METRICS ");
      AppendU64(out, r.data.size());
      out->append("\r\n");
      out->append(r.data);
      out->append("\r\n");
      return;
    case ResponseType::kTrace:
      // A TRACE_INFO completeness header plus zero or more self-describing
      // TRACE lines, END-terminated (the STAT pattern; a headerless empty
      // trace is a bare END and parses as kEnd).
      out->append(r.message);
      out->append("END\r\n");
      return;
    case ResponseType::kTransportError:
      out->append("SERVER_ERROR ");
      out->append(r.message.empty() ? "transport failure" : r.message);
      out->append("\r\n");
      return;
    default:
      out->append(WordOf(r.type));
      out->append("\r\n");
      return;
  }
}

ParseStatus ParseResponse(std::string_view bytes, Response* out,
                          std::size_t* consumed) {
  std::size_t eol = bytes.find("\r\n");
  if (eol == std::string_view::npos) return ParseStatus::kNeedMore;
  std::string_view line = bytes.substr(0, eol);
  Tokens tok(line);
  std::string_view head = tok.Next();
  if (head.empty()) return ParseStatus::kError;
  std::size_t line_end = eol + 2;
  auto done = [&](ResponseType type, std::size_t size) {
    if (out != nullptr) Reset(out, type);
    *consumed = size;
    return ParseStatus::kOk;
  };

  if (head == "VALUE") {
    // One or more VALUE blocks (multi-key get), terminated by END.
    if (out != nullptr) Reset(out, ResponseType::kValue);
    return ParseValueBlocks(bytes, out, consumed);
  }
  if (const ReplyWord* w = FindReply(kReplyWords, head)) {
    return done(w->type, line_end);
  }
  if (const ReplyWord* w = FindReply(kNumberedReplies, head)) {
    std::string_view arg;
    if (!Exactly(tok, &arg)) return ParseStatus::kError;
    auto n = ParseU64(arg);
    if (!n) return ParseStatus::kError;
    done(w->type, line_end);
    if (out != nullptr) out->number = *n;
    return ParseStatus::kOk;
  }
  if (head == "CLIENT_ERROR" || head == "SERVER_ERROR") {
    // The message is the rest of the line, possibly empty.
    done(head == "CLIENT_ERROR" ? ResponseType::kError
                                : ResponseType::kTransportError,
         line_end);
    if (out != nullptr) {
      std::string_view rest = tok.Rest();
      if (!rest.empty() && rest[0] == ' ') rest.remove_prefix(1);
      out->message.assign(rest);
    }
    return ParseStatus::kOk;
  }
  if (head == "QVALUE" || head == "METRICS") {
    bool qvalue = head == "QVALUE";
    std::string_view a, b;
    if (qvalue ? !Exactly(tok, &a, &b) : !Exactly(tok, &b)) {
      return ParseStatus::kError;
    }
    auto token = qvalue ? ParseU64(a) : std::optional<std::uint64_t>(0);
    auto size = ParseU64(b);
    if (!token || !size) return ParseStatus::kError;
    std::string_view data;
    ParseStatus block = TakeBlock(bytes, line_end, *size, &data);
    if (block != ParseStatus::kOk) return block;
    done(qvalue ? ResponseType::kQValue : ResponseType::kMetrics,
         line_end + data.size() + 2);
    if (out != nullptr) {
      out->number = *token;
      out->data.assign(data);
    }
    return ParseStatus::kOk;
  }
  if (head == "STAT" || head == "TRACE" || head == "TRACE_INFO") {
    // Raw lines up to END; the message keeps them verbatim.
    std::size_t end = 0;
    ParseStatus lines = FindEndLine(bytes, &end);
    if (lines != ParseStatus::kOk) return lines;
    done(head == "STAT" ? ResponseType::kStats : ResponseType::kTrace,
         end + 5);
    if (out != nullptr) out->message.assign(bytes.substr(0, end));
    return ParseStatus::kOk;
  }
  // A bare number (incr/decr result).
  auto n = ParseU64(head);
  if (!n || !tok.Done()) return ParseStatus::kError;
  done(ResponseType::kNumber, line_end);
  if (out != nullptr) out->number = *n;
  return ParseStatus::kOk;
}

}  // namespace iq::net
