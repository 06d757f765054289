#include "core/iq_client.h"

namespace iq {

IQClient::IQClient(KvsBackend& backend, Config config)
    : backend_(backend), config_(config), seed_rng_(config.seed) {
  if (config_.exponential_backoff) {
    backoff_ = std::make_unique<ExponentialBackoff>(config_.backoff_base,
                                                    config_.backoff_cap);
  } else {
    backoff_ = std::make_unique<FixedBackoff>(config_.backoff_base);
  }
  if (config_.near_capacity > 0) {
    near_ = std::make_unique<NearCache>(config_.near_capacity,
                                        backend_.clock());
  }
}

IQClient::IQClient(KvsBackend& backend) : IQClient(backend, Config{}) {}

std::unique_ptr<IQSession> IQClient::NewSession() {
  return std::unique_ptr<IQSession>(new IQSession(*this, backend_.GenID()));
}

IQSession::IQSession(IQClient& client, SessionId id)
    : client_(client), id_(id), rng_([&] {
        std::lock_guard lock(client.rng_mu_);
        return client.seed_rng_.Fork();
      }()) {}

IQSession::~IQSession() {
  // A session destroyed without Commit() behaves like a failed application
  // node: abort explicitly so leases release immediately rather than
  // waiting for expiry. One that left nothing on the server skips it.
  if (server_state_) Abort();
}

bool IQSession::EnsureId() {
  if (id_ != 0) return true;
  id_ = client_.backend_.GenID();
  return id_ != 0;
}

void IQSession::NearInvalidate(std::string_view key) {
  NearCache* near = client_.near_cache();
  if (near == nullptr) return;
  std::string skey(key);
  near->Invalidate(skey);
  near_written_.insert(std::move(skey));
}

ClientGetResult IQSession::Get(std::string_view key, int max_retries) {
  NearCache* near = client_.near_cache();
  if (near != nullptr) {
    // Zero round trips: a locally valid entry is served straight from the
    // near cache. Entries self-invalidate past their granted interval, so
    // staleness stays within the server's bound (DESIGN.md §4.10).
    if (auto hit = near->Get(std::string(key))) {
      return {ClientGetResult::Status::kHit, std::move(hit->value), true,
              hit->remaining};
    }
  }
  // Re-mint a session id minted during an outage before issuing IQget: an
  // I lease granted under session 0 would be orphaned once the lazy
  // re-mint (via a later write verb) switches ids, leaving Commit/Abort
  // unable to release it.
  if (!EnsureId()) {
    ++stats_.transport_errors;
    return {ClientGetResult::Status::kMissNoInstall, {}};
  }
  for (int attempt = 0; attempt < max_retries; ++attempt) {
    GetReply reply = client_.backend_.IQget(key, id_);
    switch (reply.status) {
      case GetReply::Status::kHit:
        if (near != nullptr && reply.validity > 0) {
          near->Insert(std::string(key), reply.value, reply.validity);
        }
        return {ClientGetResult::Status::kHit, std::move(reply.value)};
      case GetReply::Status::kMissGrantedI:
        server_state_ = true;
        i_tokens_[std::string(key)] = reply.token;
        return {ClientGetResult::Status::kMissRecompute, {}};
      case GetReply::Status::kMissNoLease:
        return {ClientGetResult::Status::kMissNoInstall, {}};
      case GetReply::Status::kTransportError:
        // Cache unreachable: degrade the read to RDBMS pass-through. No I
        // lease exists, so kMissNoInstall is exact — compute fresh, install
        // nothing. Retrying here would spin the budget against a dead host.
        server_state_ = true;  // the lost reply may have granted a lease
        ++stats_.transport_errors;
        return {ClientGetResult::Status::kMissNoInstall, {}};
      case GetReply::Status::kMissBackoff: {
        ++stats_.get_backoffs;
        SleepFor(client_.backend_.clock(),
                 client_.backoff_->DelayFor(attempt, rng_));
        break;
      }
    }
  }
  return {ClientGetResult::Status::kTimeout, {}};
}

void IQSession::Put(std::string_view key, std::string_view value) {
  auto it = i_tokens_.find(std::string(key));
  if (it == i_tokens_.end()) return;  // no lease: nothing to install
  // The freshly computed value supersedes whatever the near cache holds;
  // it gains no validity of its own (grants only come with IQget hits).
  NearInvalidate(key);
  client_.backend_.IQset(key, value, it->second);
  i_tokens_.erase(it);
}

ClientQResult IQSession::Quarantine(std::string_view key) {
  // Write-your-own-reads within this client: drop the local entry before
  // the quarantine lands so no later Get of this process serves the
  // soon-to-be-deleted value locally.
  NearInvalidate(key);
  if (!EnsureId()) {
    ++stats_.transport_errors;
    return ClientQResult::kTransportError;
  }
  server_state_ = true;
  switch (client_.backend_.QaReg(id_, key)) {
    case QuarantineResult::kGranted:
      return ClientQResult::kGranted;
    case QuarantineResult::kReject:
      ++stats_.q_conflicts;
      return ClientQResult::kQConflict;
    case QuarantineResult::kTransportError:
      ++stats_.transport_errors;
      return ClientQResult::kTransportError;
  }
  return ClientQResult::kTransportError;
}

ClientQResult IQSession::QaRead(std::string_view key,
                                std::optional<std::string>& value) {
  NearInvalidate(key);
  if (!EnsureId()) {
    ++stats_.transport_errors;
    return ClientQResult::kTransportError;
  }
  server_state_ = true;
  QaReadReply reply = client_.backend_.QaRead(key, id_);
  if (reply.status == QaReadReply::Status::kReject) {
    ++stats_.q_conflicts;
    return ClientQResult::kQConflict;
  }
  if (reply.status == QaReadReply::Status::kTransportError) {
    ++stats_.transport_errors;
    return ClientQResult::kTransportError;
  }
  q_tokens_[std::string(key)] = reply.token;
  value = std::move(reply.value);
  return ClientQResult::kGranted;
}

StoreResult IQSession::SaR(std::string_view key,
                           std::optional<std::string_view> v_new) {
  auto it = q_tokens_.find(std::string(key));
  if (it == q_tokens_.end()) return StoreResult::kNotFound;
  NearInvalidate(key);
  StoreResult r = client_.backend_.SaR(key, v_new, it->second);
  q_tokens_.erase(it);
  return r;
}

ClientQResult IQSession::Delta(std::string_view key, DeltaOp delta) {
  NearInvalidate(key);
  if (!EnsureId()) {
    ++stats_.transport_errors;
    return ClientQResult::kTransportError;
  }
  server_state_ = true;
  switch (client_.backend_.IQDelta(id_, key, std::move(delta))) {
    case QuarantineResult::kGranted:
      return ClientQResult::kGranted;
    case QuarantineResult::kReject:
      ++stats_.q_conflicts;
      return ClientQResult::kQConflict;
    case QuarantineResult::kTransportError:
      ++stats_.transport_errors;
      return ClientQResult::kTransportError;
  }
  return ClientQResult::kTransportError;
}

ClientQResult IQSession::Append(std::string_view key, std::string_view blob) {
  return Delta(key, DeltaOp{DeltaOp::Kind::kAppend, std::string(blob), 0});
}

ClientQResult IQSession::Incr(std::string_view key, std::uint64_t amount) {
  return Delta(key, DeltaOp{DeltaOp::Kind::kIncr, {}, amount});
}

ClientQResult IQSession::Decr(std::string_view key, std::uint64_t amount) {
  return Delta(key, DeltaOp{DeltaOp::Kind::kDecr, {}, amount});
}

void IQSession::Commit() {
  client_.backend_.Commit(id_);
  // Re-invalidate everything this session wrote: a concurrent Get in this
  // process may have re-populated an entry between the write verb's eager
  // invalidation and the commit taking effect.
  if (NearCache* near = client_.near_cache()) {
    for (const std::string& key : near_written_) near->Invalidate(key);
  }
  near_written_.clear();
  i_tokens_.clear();
  q_tokens_.clear();
  server_state_ = false;
  backoff_attempt_ = 0;
}

void IQSession::Abort() {
  client_.backend_.Abort(id_);
  if (NearCache* near = client_.near_cache()) {
    for (const std::string& key : near_written_) near->Invalidate(key);
  }
  near_written_.clear();
  i_tokens_.clear();
  q_tokens_.clear();
  server_state_ = false;
}

void IQSession::DropLease(std::string_view key) {
  client_.backend_.ReleaseKey(id_, key);
  i_tokens_.erase(std::string(key));
  q_tokens_.erase(std::string(key));
}

Nanos IQSession::Backoff() {
  Nanos delay = client_.backoff_->DelayFor(backoff_attempt_++, rng_);
  SleepFor(client_.backend_.clock(), delay);
  return delay;
}

}  // namespace iq
