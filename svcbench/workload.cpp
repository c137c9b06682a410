#include "workload.h"

#include <algorithm>
#include <chrono>
#include <functional>

#include "alg/online.h"
#include "gen/segmentation.h"
#include "gen/workload.h"
#include "harness/verify.h"

namespace svcbench {

namespace {

using Clock = std::chrono::steady_clock;

const char* const kTenant = "cad";

// hit-stream: a small channel and a small pool, all of it cached.
constexpr TrackId kHitTracks = 8;
constexpr Column kHitWidth = 64;
constexpr Column kHitSegment = 8;
constexpr int kHitPool = 64;
constexpr int kHitConns = 10;
constexpr double kHitMeanLength = 6.0;
constexpr std::size_t kHitWarmupHits = 1536;

// miss-stream: distinct instances sized so the DP dominates a request.
constexpr TrackId kMissTracks = 6;
constexpr Column kMissWidth = 192;
constexpr Column kMissSegment = 16;
constexpr int kMissConns = 30;
constexpr double kMissMeanLength = 10.0;
constexpr std::size_t kMissWarmup = 256;

// edit-session: one session whose live set stays within a band.
constexpr TrackId kEditTracks = 6;
constexpr Column kEditWidth = 64;
constexpr Column kEditSegment = 8;
constexpr std::size_t kEditBandLo = 8;
constexpr std::size_t kEditBandHi = 16;
constexpr double kEditMeanLength = 6.0;
constexpr std::size_t kEditSessionEdits = 2048;  // then close, open anew
constexpr int kSessionK = 0;  // unlimited-segment sessions

constexpr std::uint64_t kWarmupSeed = 0x5eed;

// Distinct generator streams derived from the one --seed.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + stream * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

bool same_spans(const ConnectionSet& a, const ConnectionSet& b) {
  if (a.size() != b.size()) return false;
  for (ConnId i = 0; i < a.size(); ++i) {
    if (a[i].left != b[i].left || a[i].right != b[i].right) return false;
  }
  return true;
}

/// Request i of miss-stream: every third one is unlimited, K = 2 or
/// optimal under the occupied-length weight, and each is routable by
/// construction under its own options.
class MissSource {
 public:
  MissSource(const SegmentedChannel& ch, std::uint64_t seed)
      : ch_(&ch), rng_(stream_seed(seed, 1)) {}

  BatchItem operator()() {
    BatchItem it;
    const int kind = static_cast<int>(i_++ % 3);
    it.opts.max_segments = kind == 1 ? 2 : 0;
    it.opts.weight = kind == 2 ? engine::WeightKind::kOccupiedLength
                               : engine::WeightKind::kNone;
    it.cs = gen::routable_workload(*ch_, kMissConns, kMissMeanLength, rng_,
                                   it.opts.max_segments);
    return it;
  }

 private:
  const SegmentedChannel* ch_;
  std::mt19937_64 rng_;
  std::uint64_t i_ = 0;
};

/// hit-stream: the pool in order first (the set-up pass that fills the
/// memo cache), then uniform draws from it.
class HitSource {
 public:
  HitSource(const SegmentedChannel& ch, std::uint64_t seed)
      : rng_(stream_seed(seed, 2)) {
    std::mt19937_64 gen_rng(stream_seed(seed, 1));
    pool_.reserve(kHitPool);
    for (int i = 0; i < kHitPool; ++i) {
      BatchItem it;
      it.cs = gen::routable_workload(ch, kHitConns, kHitMeanLength, gen_rng);
      pool_.push_back(std::move(it));
    }
  }

  BatchItem operator()() {
    if (primed_ < pool_.size()) return pool_[primed_++];
    return pool_[rng_() % pool_.size()];
  }

 private:
  std::vector<BatchItem> pool_;
  std::size_t primed_ = 0;
  std::mt19937_64 rng_;
};

void check_batch(const SegmentedChannel& ch, const BatchItem& item,
                 const svc::SvcResponse& r, Tally& tally) {
  ++tally.attempted;
  if (r.admit != svc::Admit::kAccepted) {
    tally.fail(std::string("rejected at admission: ") + svc::to_string(r.admit));
    return;
  }
  if (!r.result.success) {
    tally.fail(std::string("routable instance not routed: ") +
               alg::to_string(r.result.failure) + " " + r.result.note);
    return;
  }
  harness::VerifyOptions vo;
  vo.max_segments = item.opts.max_segments;
  vo.weight = engine::make_weight(item.opts.weight);
  const harness::VerifyResult v =
      harness::RouteVerifier(ch, item.cs).check(r.result, vo);
  if (!v) {
    tally.fail(std::string("RouteVerifier: ") + harness::to_string(v.error) +
               " " + v.detail);
  }
}

class BatchClient final : public Client {
 public:
  BatchClient(const SegmentedChannel& ch, std::function<BatchItem()> source)
      : ch_(&ch), source_(std::move(source)) {}

  void begin_chunk(std::size_t n) override {
    items_.clear();
    reqs_.clear();
    resps_.clear();
    pos_ = 0;
    items_.reserve(n);
    reqs_.reserve(n);
    resps_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      items_.push_back(source_());
      svc::SvcRequest rq;
      rq.tenant = kTenant;
      rq.connections = items_.back().cs;
      rq.options = items_.back().opts;
      reqs_.push_back(std::move(rq));
    }
  }

  svc::SvcRequest next() override { return std::move(reqs_[pos_++]); }

  void record(svc::SvcResponse r) override { resps_.push_back(std::move(r)); }

  void end_chunk(svc::RoutingService& s, Tally& tally) override {
    (void)s;
    for (std::size_t i = 0; i < resps_.size(); ++i) {
      check_batch(*ch_, items_[i], resps_[i], tally);
    }
  }

 private:
  const SegmentedChannel* ch_;
  std::function<BatchItem()> source_;
  std::vector<BatchItem> items_;
  std::vector<svc::SvcRequest> reqs_;
  std::vector<svc::SvcResponse> resps_;
  std::size_t pos_ = 0;
};

/// Seeded add/remove/move edits that keep the live set within a band,
/// plus a mirror of the live set (id -> span) built from the outcomes.
class EditGen {
 public:
  EditGen(Column width, std::uint64_t seed)
      : width_(width), rng_(stream_seed(seed, 3)) {}

  alg::ChannelEdit propose() {
    const std::size_t n = ids_.size();
    int kind;  // 0 add, 1 remove, 2 move
    if (n < kEditBandLo) {
      kind = 0;
    } else if (n >= kEditBandHi) {
      kind = 1;
    } else {
      const auto r = rng_() % 20;
      kind = r < 5 ? 0 : (r < 10 ? 1 : 2);
    }
    if (kind == 0) {
      const auto [l, r] = span();
      return alg::ChannelEdit::add(l, r);
    }
    const ConnId id = ids_[rng_() % n];
    if (kind == 1) return alg::ChannelEdit::remove(id);
    const auto [l, r] = span();
    return alg::ChannelEdit::move(id, l, r);
  }

  /// Empties the mirror for a new session; the edit stream continues.
  void reset() {
    live_.clear();
    ids_.clear();
  }

  /// Folds a successful outcome into the mirror.
  void commit(const alg::ChannelEdit& e, const alg::RepairOutcome& out) {
    switch (e.kind) {
      case alg::ChannelEdit::Kind::kAdd:
        live_[out.id] = {e.left, e.right};
        ids_.push_back(out.id);
        break;
      case alg::ChannelEdit::Kind::kRemove:
        live_.erase(e.id);
        ids_.erase(std::find(ids_.begin(), ids_.end(), e.id));
        break;
      case alg::ChannelEdit::Kind::kMove:
        live_[e.id] = {e.left, e.right};
        break;
    }
  }

  /// The live set in id order, with `e` applied when given.
  [[nodiscard]] ConnectionSet live_set(const alg::ChannelEdit* e = nullptr) const {
    ConnectionSet cs;
    for (const auto& [id, sp] : live_) {
      if (e != nullptr && e->kind == alg::ChannelEdit::Kind::kMove &&
          e->id == id) {
        cs.add(e->left, e->right);
      } else if (e == nullptr || e->kind != alg::ChannelEdit::Kind::kRemove ||
                 e->id != id) {
        cs.add(sp.first, sp.second);
      }
    }
    if (e != nullptr && e->kind == alg::ChannelEdit::Kind::kAdd) {
      cs.add(e->left, e->right);
    }
    return cs;
  }

 private:
  std::pair<Column, Column> span() {
    std::geometric_distribution<int> extra(1.0 / kEditMeanLength);
    const Column len = std::min<Column>(width_, 1 + extra(rng_));
    const Column l =
        1 + static_cast<Column>(rng_() % static_cast<std::uint64_t>(width_ - len + 1));
    return {l, l + len - 1};
  }

  Column width_;
  std::mt19937_64 rng_;
  std::map<ConnId, std::pair<Column, Column>> live_;
  std::vector<ConnId> ids_;
};

class EditClient final : public Client {
 public:
  EditClient(const Spec& spec, std::uint64_t seed)
      : ch_(&spec.channel), gen_(spec.channel.width(), seed) {}

  void attach(svc::RoutingService& s) override {
    session_ = s.open_session(kTenant, kSessionK);
  }

  void begin_chunk(std::size_t n) override {
    (void)n;
    pending_checks_.clear();
    errors_.clear();
    ops_ = 0;
  }

  svc::SvcRequest next() override {
    svc::SvcRequest rq;
    rq.tenant = kTenant;
    rq.session = session_;
    rq.edit = gen_.propose();
    last_ = rq.edit;
    return rq;
  }

  void record(svc::SvcResponse r) override {
    ++ops_;
    ++session_edits_;
    if (r.admit != svc::Admit::kAccepted) {
      errors_.push_back(std::string("rejected at admission: ") +
                        svc::to_string(r.admit));
    } else if (r.repair.success) {
      gen_.commit(last_, r.repair);
    } else if (r.repair.failure == alg::FailureKind::kInfeasible) {
      // A correct answer if from_scratch agrees; checked untimed.
      pending_checks_.push_back(gen_.live_set(&last_));
    } else {
      errors_.push_back(std::string("edit failed: ") +
                        alg::to_string(r.repair.failure) + " " + r.repair.note);
    }
  }

  void end_chunk(svc::RoutingService& s, Tally& tally) override {
    tally.attempted += ops_;
    for (std::string& e : errors_) tally.fail(std::move(e));
    for (const ConnectionSet& cand : pending_checks_) {
      const alg::CanonicalResult fs =
          alg::from_scratch(*ch_, cand, /*policy_best_fit=*/true, kSessionK);
      if (fs.result.success ||
          fs.result.failure != alg::FailureKind::kInfeasible) {
        tally.fail("edit rejected as infeasible but from_scratch says " +
                   std::string(alg::to_string(fs.result.failure)));
      }
    }
    // Checkpoint: the live session equals routing its set from scratch.
    const auto snap = s.session_snapshot(session_);
    if (!snap) {
      tally.fail("session snapshot missing");
      return;
    }
    if (!same_spans(snap->first, gen_.live_set())) {
      tally.fail("session live set differs from the client's mirror");
    }
    const alg::CanonicalResult fs =
        alg::from_scratch(*ch_, snap->first, /*policy_best_fit=*/true, kSessionK);
    if (!fs.result.success || !(fs.result.routing == snap->second)) {
      tally.fail("session snapshot differs from alg::from_scratch");
    }
    harness::VerifyOptions vo;
    vo.max_segments = kSessionK;
    const harness::VerifyResult v =
        harness::RouteVerifier(*ch_, snap->first).check(snap->second, vo);
    if (!v) {
      tally.fail(std::string("RouteVerifier on session snapshot: ") +
                 harness::to_string(v.error) + " " + v.detail);
    }
    // Sessions have a fixed length: an edit's cost grows with the
    // number of ids its session ever created (see README.md).
    if (session_edits_ >= kEditSessionEdits) {
      if (!s.close_session(session_)) tally.fail("close_session failed");
      session_ = s.open_session(kTenant, kSessionK);
      gen_.reset();
      session_edits_ = 0;
    }
  }

 private:
  const SegmentedChannel* ch_;
  EditGen gen_;
  std::uint64_t session_ = 0;
  alg::ChannelEdit last_;
  std::uint64_t ops_ = 0;
  std::size_t session_edits_ = 0;
  std::vector<ConnectionSet> pending_checks_;
  std::vector<std::string> errors_;
};

std::function<BatchItem()> batch_source(const Spec& spec, std::uint64_t seed) {
  if (spec.kind == WorkloadKind::kHitStream) {
    return HitSource(spec.channel, seed);
  }
  return MissSource(spec.channel, seed);
}

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

}  // namespace

std::optional<WorkloadKind> parse_workload(std::string_view name) {
  for (const WorkloadKind k : {WorkloadKind::kHitStream,
                               WorkloadKind::kMissStream,
                               WorkloadKind::kEditSession}) {
    if (name == workload_name(k)) return k;
  }
  return std::nullopt;
}

const char* workload_name(WorkloadKind k) {
  switch (k) {
    case WorkloadKind::kHitStream:
      return "hit-stream";
    case WorkloadKind::kMissStream:
      return "miss-stream";
    case WorkloadKind::kEditSession:
      return "edit-session";
  }
  return "?";
}

void Tally::fail(std::string why) {
  ++failed;
  if (reasons.size() < 5) reasons.push_back(std::move(why));
}

Spec Spec::make(WorkloadKind kind, std::uint64_t seed) {
  switch (kind) {
    case WorkloadKind::kHitStream:
      return {kind, seed,
              gen::staggered_segmentation(kHitTracks, kHitWidth, kHitSegment),
              kHitPool + kHitWarmupHits};
    case WorkloadKind::kMissStream:
      return {kind, seed,
              gen::staggered_segmentation(kMissTracks, kMissWidth,
                                          kMissSegment),
              kMissWarmup, /*chunk=*/64};
    case WorkloadKind::kEditSession:
      break;
  }
  return {kind, seed,
          gen::staggered_segmentation(kEditTracks, kEditWidth, kEditSegment),
          kEditSessionEdits};
}

std::uint64_t Spec::warmup_seed() const {
  return kind == WorkloadKind::kHitStream ? seed : kWarmupSeed;
}

svc::SvcOptions Spec::svc_options() const {
  svc::SvcOptions o;
  o.threads = 1;
  // Room for the whole hit-stream pool in every shard; miss-stream
  // overflows it and evicts.
  o.engine.cache_capacity = 1024;
  return o;
}

std::unique_ptr<Client> make_client(const Spec& spec, std::uint64_t seed) {
  if (spec.kind == WorkloadKind::kEditSession) {
    return std::make_unique<EditClient>(spec, seed);
  }
  return std::make_unique<BatchClient>(spec.channel, batch_source(spec, seed));
}

std::vector<BatchItem> probe_items(const Spec& spec, std::size_t n) {
  std::vector<BatchItem> out;
  out.reserve(n);
  if (spec.kind == WorkloadKind::kEditSession) {
    // Live sets along the session's own edit stream, every 8th edit.
    alg::OnlineRouter router(spec.channel, alg::OnlineRouter::Policy::BestFit,
                             kSessionK);
    EditGen gen(spec.channel.width(), spec.seed);
    for (std::size_t i = 0; out.size() < n; ++i) {
      const alg::ChannelEdit e = gen.propose();
      const alg::RepairOutcome r = router.apply(e);
      if (r.success) gen.commit(e, r);
      if (i % 8 == 7) {
        BatchItem it;
        it.cs = gen.live_set();
        it.opts.max_segments = kSessionK;
        out.push_back(std::move(it));
      }
    }
    return out;
  }
  const std::function<BatchItem()> src = batch_source(spec, spec.seed);
  for (std::size_t i = 0; i < n; ++i) out.push_back(src());
  return out;
}

EditProbe run_edit_probe(const Spec& spec, std::size_t n,
                         std::size_t scratch_every) {
  EditProbe p;
  alg::OnlineRouter router(spec.channel, alg::OnlineRouter::Policy::BestFit,
                           kSessionK);
  const auto tally_outcome = [&p](const alg::RepairOutcome& r) {
    ++p.edits;
    if (r.success) {
      ++(r.path == alg::RepairOutcome::Path::kRepair ? p.repairs
                                                      : p.dp_fallbacks);
    } else if (r.failure == alg::FailureKind::kInfeasible) {
      ++p.infeasible;
    } else {
      ++p.failed;
    }
  };
  const auto timed_apply = [&](const alg::ChannelEdit& e) {
    const auto t0 = Clock::now();
    const alg::RepairOutcome r = router.apply(e);
    p.apply_us.push_back(us_since(t0));
    tally_outcome(r);
    if (p.edits % scratch_every == 0) {
      const auto [cs, routing] = router.snapshot();
      const auto t1 = Clock::now();
      const alg::CanonicalResult fs =
          alg::from_scratch(spec.channel, cs, true, kSessionK);
      p.from_scratch_us.push_back(us_since(t1));
      if (!fs.result.success || !(fs.result.routing == routing)) ++p.failed;
    }
    return r;
  };

  if (spec.kind == WorkloadKind::kEditSession) {
    EditGen gen(spec.channel.width(), spec.seed);
    while (p.edits < n) {
      const alg::ChannelEdit e = gen.propose();
      const alg::RepairOutcome r = timed_apply(e);
      if (r.success) gen.commit(e, r);
    }
    return p;
  }
  // Batch workloads: build each instance by adds, then remove it again.
  const std::function<BatchItem()> src = batch_source(spec, spec.seed);
  while (p.edits < n) {
    const BatchItem it = src();
    std::vector<ConnId> ids;
    for (const Connection& c : it.cs.all()) {
      if (p.edits >= n) return p;
      const alg::RepairOutcome r =
          timed_apply(alg::ChannelEdit::add(c.left, c.right));
      if (r.success) ids.push_back(r.id);
    }
    for (const ConnId id : ids) {
      if (p.edits >= n) return p;
      timed_apply(alg::ChannelEdit::remove(id));
    }
  }
  return p;
}

}  // namespace svcbench
