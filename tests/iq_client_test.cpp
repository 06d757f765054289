#include <gtest/gtest.h>

#include <thread>

#include "core/fault_backend.h"
#include "core/iq_server.h"
#include "core/iq_client.h"

namespace iq {
namespace {

IQClient::Config FastBackoff() {
  IQClient::Config cfg;
  cfg.backoff_base = 10 * kNanosPerMicro;
  cfg.backoff_cap = 100 * kNanosPerMicro;
  return cfg;
}

class IQClientTest : public ::testing::Test {
 protected:
  IQClientTest() : client_(server_, FastBackoff()) {}
  IQServer server_;
  IQClient client_;
};

TEST_F(IQClientTest, SessionsGetDistinctIds) {
  auto a = client_.NewSession();
  auto b = client_.NewSession();
  EXPECT_NE(a->id(), b->id());
}

TEST_F(IQClientTest, GetHitReturnsValue) {
  server_.store().Set("k", "v");
  auto s = client_.NewSession();
  auto r = s->Get("k");
  EXPECT_EQ(r.status, ClientGetResult::Status::kHit);
  EXPECT_EQ(r.value, "v");
}

TEST_F(IQClientTest, MissRecomputeThenPutInstalls) {
  auto s = client_.NewSession();
  auto r = s->Get("k");
  ASSERT_EQ(r.status, ClientGetResult::Status::kMissRecompute);
  s->Put("k", "computed");
  EXPECT_EQ(server_.store().Get("k")->value, "computed");
}

TEST_F(IQClientTest, PutWithoutLeaseIsIgnored) {
  auto s = client_.NewSession();
  s->Put("k", "value");  // never obtained an I lease
  EXPECT_FALSE(server_.store().Get("k"));
}

TEST_F(IQClientTest, TokensAreTransparentToCaller) {
  // The session tracks the token internally; a second session's Put cannot
  // hijack the first session's lease.
  auto s1 = client_.NewSession();
  auto s2 = client_.NewSession();
  ASSERT_EQ(s1->Get("k").status, ClientGetResult::Status::kMissRecompute);
  s2->Put("k", "intruder");
  EXPECT_FALSE(server_.store().Get("k"));
  s1->Put("k", "legit");
  EXPECT_EQ(server_.store().Get("k")->value, "legit");
}

TEST_F(IQClientTest, GetBacksOffWhileContendedThenTimesOut) {
  auto holder = client_.NewSession();
  ASSERT_EQ(holder->Get("k").status, ClientGetResult::Status::kMissRecompute);
  auto waiter = client_.NewSession();
  auto r = waiter->Get("k", /*max_retries=*/3);
  EXPECT_EQ(r.status, ClientGetResult::Status::kTimeout);
  EXPECT_EQ(waiter->stats().get_backoffs, 3u);
}

TEST_F(IQClientTest, GetRetriesUntilHolderInstalls) {
  auto holder = client_.NewSession();
  ASSERT_EQ(holder->Get("k").status, ClientGetResult::Status::kMissRecompute);
  std::thread installer([&] {
    SleepFor(server_.clock(), kNanosPerMilli);
    holder->Put("k", "fresh");
  });
  auto waiter = client_.NewSession();
  auto r = waiter->Get("k", 10000);
  installer.join();
  EXPECT_EQ(r.status, ClientGetResult::Status::kHit);
  EXPECT_EQ(r.value, "fresh");
}

TEST_F(IQClientTest, QaReadGrantAndConflict) {
  server_.store().Set("k", "v0");
  auto s1 = client_.NewSession();
  auto s2 = client_.NewSession();
  std::optional<std::string> v1, v2;
  EXPECT_EQ(s1->QaRead("k", v1), ClientQResult::kGranted);
  EXPECT_EQ(v1, "v0");
  EXPECT_EQ(s2->QaRead("k", v2), ClientQResult::kQConflict);
  EXPECT_EQ(s2->stats().q_conflicts, 1u);
}

TEST_F(IQClientTest, SaRUpdatesAndReleases) {
  server_.store().Set("k", "v0");
  auto s = client_.NewSession();
  std::optional<std::string> old;
  s->QaRead("k", old);
  s->SaR("k", "v1");
  EXPECT_EQ(server_.store().Get("k")->value, "v1");
  // Lease released: another session may now QaRead.
  auto s2 = client_.NewSession();
  std::optional<std::string> v;
  EXPECT_EQ(s2->QaRead("k", v), ClientQResult::kGranted);
}

TEST_F(IQClientTest, SaRWithoutQaReadIsIgnored) {
  server_.store().Set("k", "v0");
  auto s = client_.NewSession();
  s->SaR("k", "hijack");
  EXPECT_EQ(server_.store().Get("k")->value, "v0");
}

TEST_F(IQClientTest, QuarantineThenCommitDeletes) {
  server_.store().Set("k", "v0");
  auto s = client_.NewSession();
  s->Quarantine("k");
  EXPECT_TRUE(server_.store().Get("k"));  // deferred delete
  s->Commit();
  EXPECT_FALSE(server_.store().Get("k"));
}

TEST_F(IQClientTest, QuarantineThenAbortKeepsValue) {
  server_.store().Set("k", "v0");
  auto s = client_.NewSession();
  s->Quarantine("k");
  s->Abort();
  EXPECT_EQ(server_.store().Get("k")->value, "v0");
}

TEST_F(IQClientTest, DeltaHelpersBuildCorrectOps) {
  server_.store().Set("list", "a");
  server_.store().Set("count", "10");
  auto s = client_.NewSession();
  EXPECT_EQ(s->Append("list", ",b"), ClientQResult::kGranted);
  EXPECT_EQ(s->Incr("count", 5), ClientQResult::kGranted);
  s->Commit();
  EXPECT_EQ(server_.store().Get("list")->value, "a,b");
  EXPECT_EQ(server_.store().Get("count")->value, "15");

  auto s2 = client_.NewSession();
  EXPECT_EQ(s2->Decr("count", 3), ClientQResult::kGranted);
  s2->Commit();
  EXPECT_EQ(server_.store().Get("count")->value, "12");
}

TEST_F(IQClientTest, DeltaConflictReportedToCaller) {
  auto s1 = client_.NewSession();
  auto s2 = client_.NewSession();
  EXPECT_EQ(s1->Append("k", "x"), ClientQResult::kGranted);
  EXPECT_EQ(s2->Append("k", "y"), ClientQResult::kQConflict);
}

TEST_F(IQClientTest, AbortReleasesEverything) {
  auto s = client_.NewSession();
  std::optional<std::string> v;
  s->QaRead("a", v);
  s->Quarantine("b");
  s->Append("c", "x");
  s->Abort();
  EXPECT_FALSE(server_.LeaseOn("a"));
  EXPECT_FALSE(server_.LeaseOn("b"));
  EXPECT_FALSE(server_.LeaseOn("c"));
}

TEST_F(IQClientTest, DestructorActsAsAbort) {
  {
    auto s = client_.NewSession();
    std::optional<std::string> v;
    s->QaRead("k", v);
  }
  EXPECT_FALSE(server_.LeaseOn("k"));
}

TEST_F(IQClientTest, DropLeaseUnblocksOtherReaders) {
  auto s1 = client_.NewSession();
  ASSERT_EQ(s1->Get("k").status, ClientGetResult::Status::kMissRecompute);
  s1->DropLease("k");  // compute found nothing worth caching
  auto s2 = client_.NewSession();
  EXPECT_EQ(s2->Get("k").status, ClientGetResult::Status::kMissRecompute);
}

TEST_F(IQClientTest, BackoffSleepsAndResets) {
  auto s = client_.NewSession();
  Nanos t0 = server_.clock().Now();
  s->Backoff();
  s->Backoff();
  EXPECT_GT(server_.clock().Now() - t0, 0);
  s->Commit();  // resets the attempt counter; just verify no crash
  s->Backoff();
}

TEST_F(IQClientTest, GetReMintsSessionIdMintedDuringOutage) {
  // Regression: Get() used to skip EnsureId(), so a session minted while
  // the server was unreachable (id 0) would issue IQget under session 0
  // forever — and any I lease it won would be orphaned once a later write
  // verb lazily re-minted the id.
  FaultBackend fault(server_);
  IQClient client(fault, FastBackoff());
  fault.SetDown(true);
  auto s = client.NewSession();
  EXPECT_EQ(s->id(), 0u);
  // While unreachable, reads degrade to RDBMS pass-through.
  auto r = s->Get("k");
  EXPECT_EQ(r.status, ClientGetResult::Status::kMissNoInstall);
  EXPECT_GE(s->stats().transport_errors, 1u);
  fault.SetDown(false);
  // First read after the backend heals re-mints the id before IQget.
  r = s->Get("k");
  EXPECT_EQ(r.status, ClientGetResult::Status::kMissRecompute);
  EXPECT_NE(s->id(), 0u);
  // The I lease belongs to the re-minted session: Put installs normally.
  s->Put("k", "healed");
  EXPECT_EQ(server_.store().Get("k")->value, "healed");
}

TEST_F(IQClientTest, RestartedSessionBackoffResetsToBase) {
  IQClient::Config cfg;
  cfg.backoff_base = 10 * kNanosPerMicro;
  cfg.backoff_cap = 10 * kNanosPerMilli;
  IQClient client(server_, cfg);
  auto s = client.NewSession();
  for (int i = 0; i < 12; ++i) s->Backoff();
  EXPECT_EQ(s->backoff_attempt(), 12);
  // Fully escalated: the next delay is the cap with +/-50% jitter.
  Nanos escalated = s->Backoff();
  EXPECT_GE(escalated, cfg.backoff_cap / 2);
  EXPECT_LE(escalated, cfg.backoff_cap + cfg.backoff_cap / 2);
  // A restarted session resets to base delay: its first backoff is the
  // base with jitter, not stuck at the cap.
  s->ResetBackoff();
  EXPECT_EQ(s->backoff_attempt(), 0);
  Nanos reset = s->Backoff();
  EXPECT_GE(reset, cfg.backoff_base / 2);
  EXPECT_LE(reset, cfg.backoff_base + cfg.backoff_base / 2);
  EXPECT_EQ(s->backoff_attempt(), 1);
}

TEST_F(IQClientTest, FixedBackoffConfigSupported) {
  IQClient::Config cfg = FastBackoff();
  cfg.exponential_backoff = false;
  IQClient fixed_client(server_, cfg);
  auto s = fixed_client.NewSession();
  // FixedBackoff waits the base delay on every attempt, unjittered.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(s->Backoff(), cfg.backoff_base);
}

}  // namespace
}  // namespace iq
