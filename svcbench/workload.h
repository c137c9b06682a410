// The benchmark's three workloads: seeded inputs, the closed-loop
// client that feeds them to a RoutingService, and the checks that
// decide whether each answer is right.
//
// A workload is fixed by its kind; the seed varies only the generated
// instances. The service receives nothing but those instances.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "alg/delta.h"
#include "core/channel.h"
#include "core/connection.h"
#include "engine/batch.h"
#include "svc/service.h"

namespace svcbench {

using namespace segroute;

enum class WorkloadKind { kHitStream, kMissStream, kEditSession };

std::optional<WorkloadKind> parse_workload(std::string_view name);
const char* workload_name(WorkloadKind k);

/// One batch request: the instance and the options it is routed under.
struct BatchItem {
  ConnectionSet cs;
  engine::EngineRouteOptions opts;
};

/// Counts operations and failures; keeps the first few failure reasons.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> reasons;

  void fail(std::string why);
};

/// The fixed shape of a workload; only `seed` varies between runs.
struct Spec {
  WorkloadKind kind = WorkloadKind::kHitStream;
  std::uint64_t seed = 0;
  SegmentedChannel channel;
  std::size_t warmup_ops = 0;  // the fixed warm-up pass of set-up
  std::size_t chunk = 256;     // requests between untimed check points

  /// Seed of the warm-up pass. miss-stream and edit-session warm up on
  /// the same inputs for every --seed, so set-up repeats the same work;
  /// hit-stream warms up on its own pool.
  [[nodiscard]] std::uint64_t warmup_seed() const;

  static Spec make(WorkloadKind kind, std::uint64_t seed);
  [[nodiscard]] svc::SvcOptions svc_options() const;
};

/// A closed-loop client: one outstanding request at a time. A phase runs
/// in chunks; begin_chunk() and end_chunk() are untimed (input
/// generation, verification), next() and record() run between timed
/// requests and stay cheap.
class Client {
 public:
  virtual ~Client() = default;

  /// Binds per-service state (the edit session). Called once per service.
  virtual void attach(svc::RoutingService& s) { (void)s; }
  virtual void begin_chunk(std::size_t n) = 0;
  virtual svc::SvcRequest next() = 0;
  virtual void record(svc::SvcResponse r) = 0;
  virtual void end_chunk(svc::RoutingService& s, Tally& tally) = 0;
};

/// A client for the workload's request stream under `seed`.
std::unique_ptr<Client> make_client(const Spec& spec, std::uint64_t seed);

/// Batch instances for the standalone engine/alg probes: the first `n`
/// requests of a batch workload, or live sets sampled along the edit
/// stream of edit-session.
std::vector<BatchItem> probe_items(const Spec& spec, std::size_t n);

/// The edit stream for the standalone OnlineRouter probe. edit-session
/// replays its own seeded stream; the batch workloads build each probe
/// instance by adds in id order and then remove it again.
struct EditProbe {
  std::vector<double> apply_us;
  std::vector<double> from_scratch_us;
  std::uint64_t edits = 0;
  std::uint64_t repairs = 0;
  std::uint64_t dp_fallbacks = 0;
  std::uint64_t infeasible = 0;
  std::uint64_t failed = 0;  // outcomes other than success or kInfeasible
};

/// Applies `n` edits of the workload's edit stream to a fresh
/// OnlineRouter, timing every apply() and a from_scratch() of the live
/// set after every `scratch_every`-th edit. Counts are deterministic for
/// a given seed and `n`.
EditProbe run_edit_probe(const Spec& spec, std::size_t n,
                         std::size_t scratch_every);

}  // namespace svcbench
