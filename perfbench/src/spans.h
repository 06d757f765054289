// Span recorder for the traced run, and the two timing decorators that
// record spans at layer boundaries from outside the program:
//
//   TimedBackend  wraps a KvsBackend (casql/IQClient -> tier, router -> shard)
//   TimedChannel  wraps a net::Channel (RemoteBackend -> TCP round trip)
//
// Each worker thread attaches its own SpanBuffer, so recording a span is a
// vector append with no lock. A span holds its name, start, end, parent and
// the id of the root request it belongs to. A buffer folds its spans into
// per-name aggregates (count, total, self time, duration histogram) whenever
// a root span closes and the buffer is full, and once more at the end of the
// run; it keeps the newest spans so they can be written out when the run
// ends. Self time is a span's duration minus the part its children cover.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/kvs_backend.h"
#include "net/channel.h"
#include "util/histogram.h"

namespace perfbench {

using iq::Nanos;

/// Per-name aggregate over every folded span.
struct SpanStats {
  std::uint64_t count = 0;
  double total_ns = 0;
  double self_ns = 0;
  iq::LatencyHistogram duration;

  double MeanUs() const { return count == 0 ? 0.0 : total_ns / count / 1e3; }
  double SelfMeanUs() const { return count == 0 ? 0.0 : self_ns / count / 1e3; }
  double P50Us() const { return duration.Percentile(0.5) / 1e3; }
  void Merge(const SpanStats& o);
};

class SpanBuffer {
 public:
  struct Span {
    std::uint32_t name;
    std::uint32_t parent;  // index in spans_, or kNoParent
    std::uint64_t request;
    Nanos start;
    Nanos end;
  };
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  /// Request ids carry the buffer's index in their high bits, so they are
  /// unique across buffers.
  explicit SpanBuffer(std::uint64_t index) : next_request_(index << 40) {}

  std::uint32_t Begin(std::uint32_t name);
  void End(std::uint32_t index);

  /// Fold every recorded span into the aggregates. Only valid when no span
  /// is open.
  void Fold();

  const std::map<std::uint32_t, SpanStats>& stats() const { return stats_; }
  const std::vector<Span>& tail() const { return tail_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
  std::uint64_t next_request_;
  std::map<std::uint32_t, SpanStats> stats_;
  std::vector<Span> tail_;  // the newest folded spans, for the dump
};

/// Owns every thread's buffer and the span name table.
class SpanRecorder {
 public:
  /// Interned id for a span name; call before the timed window.
  std::uint32_t NameId(const std::string& name);

  /// Create a buffer and make it the calling thread's current one.
  void AttachThisThread();
  /// Fold the calling thread's buffer and detach it.
  void DetachThisThread();

  /// Per-name aggregates merged across threads (after every thread
  /// detached).
  std::map<std::string, SpanStats> Aggregate() const;
  /// Write the newest spans of every buffer as tab-separated lines
  /// (buffer, request, name, parent, start_ns, end_ns). False on I/O error.
  bool Dump(const std::string& path) const;

  /// The calling thread's buffer, or null outside a traced worker.
  static SpanBuffer* Current();

 private:
  mutable std::mutex mu_;
  std::vector<std::string> names_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

/// RAII span on the calling thread's buffer; a no-op without one.
class SpanScope {
 public:
  explicit SpanScope(std::uint32_t name)
      : buffer_(SpanRecorder::Current()),
        index_(buffer_ != nullptr ? buffer_->Begin(name) : 0) {}
  ~SpanScope() {
    if (buffer_ != nullptr) buffer_->End(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanBuffer* buffer_;
  std::uint32_t index_;
};

/// The IQ verbs a casql session sends through KvsBackend, in the order the
/// per-verb metrics are printed.
enum class Verb : std::uint32_t {
  kIQget, kIQset, kQaRead, kSaR, kQaReg, kDaR, kCommit, kAbort, kGenID,
  kOther,
};
inline constexpr std::size_t kVerbCount = 10;
const char* VerbName(Verb v);

/// KvsBackend decorator: one span named "<layer>.<verb>" per call.
class TimedBackend final : public iq::KvsBackend {
 public:
  TimedBackend(iq::KvsBackend& inner, SpanRecorder& recorder,
               const std::string& layer);

  const iq::Clock& clock() const override { return inner_.clock(); }
  iq::SessionId GenID() override;
  iq::GetReply IQget(std::string_view key, iq::SessionId session) override;
  iq::StoreResult IQset(std::string_view key, std::string_view value,
                        iq::LeaseToken token) override;
  iq::QaReadReply QaRead(std::string_view key, iq::SessionId session) override;
  iq::StoreResult SaR(std::string_view key,
                      std::optional<std::string_view> v_new,
                      iq::LeaseToken token) override;
  iq::QuarantineResult QaReg(iq::SessionId tid, std::string_view key) override;
  void DaR(iq::SessionId tid) override;
  iq::QuarantineResult IQDelta(iq::SessionId tid, std::string_view key,
                               iq::DeltaOp delta) override;
  void Commit(iq::SessionId tid) override;
  void Abort(iq::SessionId tid) override;
  void ReleaseKey(iq::SessionId tid, std::string_view key) override;

  std::optional<iq::CacheItem> Get(std::string_view key) override;
  iq::StoreResult Set(std::string_view key, std::string_view value) override;
  iq::StoreResult Add(std::string_view key, std::string_view value) override;
  iq::StoreResult Cas(std::string_view key, std::string_view value,
                      std::uint64_t cas) override;
  iq::StoreResult Append(std::string_view key, std::string_view blob) override;
  iq::StoreResult Prepend(std::string_view key, std::string_view blob) override;
  std::optional<std::uint64_t> Incr(std::string_view key,
                                    std::uint64_t amount) override;
  std::optional<std::uint64_t> Decr(std::string_view key,
                                    std::uint64_t amount) override;
  bool DeleteVoid(std::string_view key) override;

 private:
  std::uint32_t Id(Verb v) const {
    return ids_[static_cast<std::size_t>(v)];
  }

  iq::KvsBackend& inner_;
  std::uint32_t ids_[kVerbCount];
};

/// Channel decorator: one "net.round_trip" span per RoundTrip, and a count
/// of failed round trips.
class TimedChannel final : public iq::net::Channel {
 public:
  TimedChannel(iq::net::Channel& inner, SpanRecorder& recorder);

  bool RoundTrip(const std::string& request_bytes,
                 std::string* reply) override;
  std::uint64_t failures() const {
    return failures_.load(std::memory_order_relaxed);
  }

 private:
  iq::net::Channel& inner_;
  std::uint32_t id_;
  // Relaxed is enough: read once after the workers joined.
  std::atomic<std::uint64_t> failures_{0};
};

}  // namespace perfbench
