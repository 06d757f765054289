// Per-layer figures of the traced run: snapshots of the public counters of
// the in-process servers, taken before and after the timed window, and the
// function that turns their difference and the span aggregates into the
// per-layer metric list. Every workload prints the same list, so a layer a
// workload does not exercise reads 0.
#pragma once

#include <array>
#include <map>
#include <string>
#include <vector>

#include "bg/actions.h"
#include "core/iq_server.h"
#include "core/sharded_backend.h"
#include "harness.h"
#include "net/tcp_server.h"
#include "rdbms/database.h"
#include "spans.h"

namespace perfbench {

/// Public counters of every in-process server, summed across instances.
struct Counters {
  iq::IQServerStats leases;
  iq::CacheStats kvs;
  iq::net::TcpServerStats wire;
  iq::ShardedBackendStats router;
  iq::sql::Database::Stats db;
  /// Per command class: observations and total nanoseconds recorded by the
  /// wire dispatcher (IQServer::command_latencies()).
  std::array<std::uint64_t, iq::kCommandClassCount> cmd_count{};
  std::array<double, iq::kCommandClassCount> cmd_total_ns{};
};

/// Where the counters are read from; null or empty entries contribute 0.
struct CounterSources {
  std::vector<iq::IQServer*> servers;
  std::vector<iq::net::TcpServer*> wire;
  std::vector<iq::ShardedBackend*> routers;
  iq::sql::Database* db = nullptr;
};

Counters Snapshot(const CounterSources& sources);
/// Add the change from `before` to `after` into `sum`.
void Accumulate(Counters& sum, const Counters& after, const Counters& before);

/// Everything the per-layer metrics are computed from.
struct LayerInputs {
  /// True when the tier decorator wraps an in-process IQServer, so tier
  /// spans are server spans (core.server_verb_us.*).
  bool in_process_tier = false;
  WindowResult untraced;
  WindowResult traced;
  iq::bg::BGActions::RestartStats restarts;
  Counters delta;
  std::map<std::string, SpanStats> spans;
};

std::vector<Metric> PerLayerMetrics(const LayerInputs& in);

}  // namespace perfbench
