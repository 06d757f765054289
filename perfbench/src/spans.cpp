#include "spans.h"

#include <algorithm>
#include <fstream>

#include "harness.h"

namespace perfbench {
namespace {

thread_local SpanBuffer* tls_buffer = nullptr;

/// Newest spans each buffer keeps for the end-of-run dump.
constexpr std::size_t kTailSpans = 4096;
/// Spans a buffer holds before it folds at the next root boundary.
constexpr std::size_t kFoldAt = 1 << 18;

}  // namespace

void SpanStats::Merge(const SpanStats& o) {
  count += o.count;
  total_ns += o.total_ns;
  self_ns += o.self_ns;
  duration.Merge(o.duration);
}

std::uint32_t SpanBuffer::Begin(std::uint32_t name) {
  auto index = static_cast<std::uint32_t>(spans_.size());
  std::uint32_t parent = open_.empty() ? kNoParent : open_.back();
  std::uint64_t request =
      parent == kNoParent ? ++next_request_ : spans_[parent].request;
  spans_.push_back({name, parent, request, NowNanos(), 0});
  open_.push_back(index);
  return index;
}

void SpanBuffer::End(std::uint32_t index) {
  spans_[index].end = NowNanos();
  open_.pop_back();
  if (open_.empty() && spans_.size() >= kFoldAt) Fold();
}

void SpanBuffer::Fold() {
  // Children of one span run one after another on this thread, so the part
  // of the parent they cover is the sum of their clipped durations.
  std::vector<Nanos> covered(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent == kNoParent) continue;
    const Span& p = spans_[s.parent];
    Nanos lo = std::max(s.start, p.start);
    Nanos hi = std::min(s.end, p.end);
    if (hi > lo) covered[s.parent] += hi - lo;
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Nanos duration = s.end - s.start;
    SpanStats& st = stats_[s.name];
    ++st.count;
    st.total_ns += static_cast<double>(duration);
    st.self_ns += static_cast<double>(duration - covered[i]);
    st.duration.Record(duration);
  }
  std::size_t keep = std::min(kTailSpans, spans_.size());
  tail_.assign(spans_.end() - static_cast<std::ptrdiff_t>(keep), spans_.end());
  // Parent links in the tail name the parent span instead of indexing it.
  for (Span& s : tail_) {
    if (s.parent != kNoParent) s.parent = spans_[s.parent].name;
  }
  spans_ = {};  // frees the memory: a detached buffer may never fill again
}

std::uint32_t SpanRecorder::NameId(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = std::find(names_.begin(), names_.end(), name);
  if (it == names_.end()) it = names_.insert(names_.end(), name);
  return static_cast<std::uint32_t>(it - names_.begin());
}

void SpanRecorder::AttachThisThread() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<SpanBuffer>(buffers_.size() + 1));
  tls_buffer = buffers_.back().get();
}

void SpanRecorder::DetachThisThread() {
  if (tls_buffer != nullptr) tls_buffer->Fold();
  tls_buffer = nullptr;
}

SpanBuffer* SpanRecorder::Current() { return tls_buffer; }

std::map<std::string, SpanStats> SpanRecorder::Aggregate() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, SpanStats> out;
  for (const auto& b : buffers_) {
    for (const auto& [id, st] : b->stats()) out[names_[id]].Merge(st);
  }
  return out;
}

bool SpanRecorder::Dump(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  out << "buffer\trequest\tname\tparent\tstart_ns\tend_ns\n";
  for (std::size_t t = 0; t < buffers_.size(); ++t) {
    for (const SpanBuffer::Span& s : buffers_[t]->tail()) {
      out << t + 1 << '\t' << s.request << '\t' << names_[s.name] << '\t'
          << (s.parent == SpanBuffer::kNoParent ? "-" : names_[s.parent])
          << '\t' << s.start << '\t' << s.end << '\n';
    }
  }
  return out.good();
}

const char* VerbName(Verb v) {
  switch (v) {
    case Verb::kIQget: return "iqget";
    case Verb::kIQset: return "iqset";
    case Verb::kQaRead: return "qaread";
    case Verb::kSaR: return "sar";
    case Verb::kQaReg: return "qareg";
    case Verb::kDaR: return "dar";
    case Verb::kCommit: return "commit";
    case Verb::kAbort: return "abort";
    case Verb::kGenID: return "genid";
    case Verb::kOther: return "other";
  }
  return "other";
}

TimedBackend::TimedBackend(iq::KvsBackend& inner, SpanRecorder& recorder,
                           const std::string& layer)
    : inner_(inner) {
  for (std::size_t v = 0; v < kVerbCount; ++v) {
    ids_[v] = recorder.NameId(layer + "." + VerbName(static_cast<Verb>(v)));
  }
}

iq::SessionId TimedBackend::GenID() {
  SpanScope span(Id(Verb::kGenID));
  return inner_.GenID();
}

iq::GetReply TimedBackend::IQget(std::string_view key, iq::SessionId session) {
  SpanScope span(Id(Verb::kIQget));
  return inner_.IQget(key, session);
}

iq::StoreResult TimedBackend::IQset(std::string_view key,
                                    std::string_view value,
                                    iq::LeaseToken token) {
  SpanScope span(Id(Verb::kIQset));
  return inner_.IQset(key, value, token);
}

iq::QaReadReply TimedBackend::QaRead(std::string_view key,
                                     iq::SessionId session) {
  SpanScope span(Id(Verb::kQaRead));
  return inner_.QaRead(key, session);
}

iq::StoreResult TimedBackend::SaR(std::string_view key,
                                  std::optional<std::string_view> v_new,
                                  iq::LeaseToken token) {
  SpanScope span(Id(Verb::kSaR));
  return inner_.SaR(key, v_new, token);
}

iq::QuarantineResult TimedBackend::QaReg(iq::SessionId tid,
                                         std::string_view key) {
  SpanScope span(Id(Verb::kQaReg));
  return inner_.QaReg(tid, key);
}

void TimedBackend::DaR(iq::SessionId tid) {
  SpanScope span(Id(Verb::kDaR));
  inner_.DaR(tid);
}

iq::QuarantineResult TimedBackend::IQDelta(iq::SessionId tid,
                                           std::string_view key,
                                           iq::DeltaOp delta) {
  SpanScope span(Id(Verb::kOther));
  return inner_.IQDelta(tid, key, std::move(delta));
}

void TimedBackend::Commit(iq::SessionId tid) {
  SpanScope span(Id(Verb::kCommit));
  inner_.Commit(tid);
}

void TimedBackend::Abort(iq::SessionId tid) {
  SpanScope span(Id(Verb::kAbort));
  inner_.Abort(tid);
}

void TimedBackend::ReleaseKey(iq::SessionId tid, std::string_view key) {
  SpanScope span(Id(Verb::kOther));
  inner_.ReleaseKey(tid, key);
}

std::optional<iq::CacheItem> TimedBackend::Get(std::string_view key) {
  SpanScope span(Id(Verb::kOther));
  return inner_.Get(key);
}

iq::StoreResult TimedBackend::Set(std::string_view key,
                                  std::string_view value) {
  SpanScope span(Id(Verb::kOther));
  return inner_.Set(key, value);
}

iq::StoreResult TimedBackend::Add(std::string_view key,
                                  std::string_view value) {
  SpanScope span(Id(Verb::kOther));
  return inner_.Add(key, value);
}

iq::StoreResult TimedBackend::Cas(std::string_view key, std::string_view value,
                                  std::uint64_t cas) {
  SpanScope span(Id(Verb::kOther));
  return inner_.Cas(key, value, cas);
}

iq::StoreResult TimedBackend::Append(std::string_view key,
                                     std::string_view blob) {
  SpanScope span(Id(Verb::kOther));
  return inner_.Append(key, blob);
}

iq::StoreResult TimedBackend::Prepend(std::string_view key,
                                      std::string_view blob) {
  SpanScope span(Id(Verb::kOther));
  return inner_.Prepend(key, blob);
}

std::optional<std::uint64_t> TimedBackend::Incr(std::string_view key,
                                                std::uint64_t amount) {
  SpanScope span(Id(Verb::kOther));
  return inner_.Incr(key, amount);
}

std::optional<std::uint64_t> TimedBackend::Decr(std::string_view key,
                                                std::uint64_t amount) {
  SpanScope span(Id(Verb::kOther));
  return inner_.Decr(key, amount);
}

bool TimedBackend::DeleteVoid(std::string_view key) {
  SpanScope span(Id(Verb::kOther));
  return inner_.DeleteVoid(key);
}

TimedChannel::TimedChannel(iq::net::Channel& inner, SpanRecorder& recorder)
    : inner_(inner), id_(recorder.NameId("net.round_trip")) {}

bool TimedChannel::RoundTrip(const std::string& request_bytes,
                             std::string* reply) {
  SpanScope span(id_);
  bool ok = inner_.RoundTrip(request_bytes, reply);
  if (!ok) failures_.fetch_add(1, std::memory_order_relaxed);
  return ok;
}

}  // namespace perfbench
