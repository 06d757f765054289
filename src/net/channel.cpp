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

}  // namespace iq::net
