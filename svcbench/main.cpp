// svcbench: end-to-end benchmark of svc::RoutingService, with an
// outside-in layer ledger.
//
//   svcbench --workload hit-stream|miss-stream|edit-session --seed N
//            --seconds S --trace 0|1 [--out DIR]
//
// One client thread drives a live service (SvcOptions::threads = 1) in a
// closed loop: it submits a request, waits for its future, records the
// latency and submits the next. Input generation and correctness checks
// run between chunks of requests and are excluded from every timed
// interval. See README.md for the workloads and the metrics.
//
// --trace 0 measures the end-to-end metrics. --trace 1 runs the ledger:
// an untraced live pass, a traced live pass, a traced driver-mode pass
// (submit, tick() and get timed separately), a probe of the two thread
// handoffs a live request adds, and standalone probes of the engine,
// core and alg entry points on the same inputs. It prints the
// per-layer metrics, the request-path ledger and its closure against the
// untraced latency, and writes the ledger and the spans to --out.
//
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// The exit code is 0 when every check passed, 1 when one failed and 2
// on bad arguments.
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alg/dp.h"
#include "alg/registry.h"
#include "core/channel_index.h"
#include "engine/batch.h"
#include "obs/clock.h"
#include "obs/span.h"
#include "stats.h"
#include "svc/service.h"
#include "workload.h"

namespace svcbench {
namespace {

using Clock = std::chrono::steady_clock;

// The end-to-end metrics read the slow-side quartile of a run: the upper
// quartile over blocks of each block's latency percentile, the lower
// quartile of the block rates and the upper quartile of the set-ups. The
// shared host switches between two speeds about 1.45x apart, within
// seconds, and the share of its fast time moved from 1% to 61% between
// 20 s runs. A median then jumps between the two speeds from run to run;
// the slow-side quartile reads the slow one, which every run saw for at
// least a third of its time.
constexpr double kSlowSide = 0.75;
// Set-up repetitions: the set-up of the timed service, then
// kSetupsPerSegment more after each of kTimedSegments equal parts of the
// timed phase, so they sample the host over the whole run.
constexpr int kTimedSegments = 8;
constexpr int kSetupsPerSegment = 2;
constexpr std::size_t kBlockSamples = 1 << 15;
constexpr double kBlockSeconds = 0.1;
constexpr std::size_t kKeptOps = 1 << 16;
constexpr std::size_t kTraceCapacity = 1 << 16;
constexpr std::size_t kTraceFileEvents = 20000;
constexpr double kClosureBar = 0.10;
constexpr int kLedgerRounds = 8;
constexpr std::size_t kPublishCalls = 250;
constexpr std::size_t kHandoffRounds = 2000;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

double ns_to_us(std::uint64_t a, std::uint64_t b) {
  return (static_cast<double>(b) - static_cast<double>(a)) / 1000.0;
}

struct Args {
  WorkloadKind workload = WorkloadKind::kHitStream;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir;
};

bool parse_args(int argc, char** argv, Args& a, std::string& err) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      err = "missing value for " + flag;
      return false;
    }
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      const auto k = parse_workload(v);
      if (!k) {
        err = "unknown workload " + v;
        return false;
      }
      a.workload = *k;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = end != v.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      have_seconds = end != v.c_str() && *end == '\0' && a.seconds > 0.0 &&
                     a.seconds <= 120.0;
    } else if (flag == "--trace") {
      have_trace = v == "0" || v == "1";
      a.trace = v == "1";
    } else if (flag == "--out") {
      a.out_dir = v;
    } else {
      err = "unknown flag " + flag;
      return false;
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    err = "need --workload, --seed, --seconds (0, 120] and --trace 0|1";
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------
// The closed loop.

enum class Mode { kLive, kDriver };

/// obs::now_ns() stamps of one request: before submit(), after submit(),
/// after tick() (driver mode; equal to t1 in live mode), after get().
struct OpRecord {
  std::uint64_t t0, t1, t2, t3;
};

/// What a timed phase keeps: latency (submit() to the return of get(),
/// us) and rate per block of kBlockSeconds timed seconds (or of
/// kBlockSamples requests, if that comes first), in fixed-size storage,
/// and optionally the stamps of the first kKeptOps requests.
struct Recorder {
  explicit Recorder(bool keep_ops) : blocks(kBlockSamples) {
    if (keep_ops) ops.reserve(kKeptOps);
  }
  BlockStats blocks;
  std::vector<OpRecord> ops;
  // The open block, carried from one run_ops() call to the next.
  std::uint64_t block_ops = 0;
  double block_s = 0.0;

  /// Driver mode, when set: the same blocks for each part of a request.
  struct Parts {
    BlockStats submit{kBlockSamples}, tick{kBlockSamples}, get{kBlockSamples};
  };
  std::unique_ptr<Parts> parts;
};

struct PhaseResult {
  std::uint64_t ops = 0;
  double timed_s = 0.0;
};

void close_block(Recorder& rec) {
  rec.blocks.close_block(rec.block_ops, rec.block_s);
  if (rec.parts) {
    rec.parts->submit.close_block(rec.block_ops, rec.block_s);
    rec.parts->tick.close_block(rec.block_ops, rec.block_s);
    rec.parts->get.close_block(rec.block_ops, rec.block_s);
  }
  rec.block_ops = 0;
  rec.block_s = 0.0;
}

/// Runs the client's requests in chunks until `seconds` of timed work
/// (seconds > 0) or `max_ops` requests (max_ops > 0) are done. Only the
/// request loop of each chunk is timed; begin_chunk() and end_chunk()
/// are not.
PhaseResult run_ops(svc::RoutingService& s, Client& c, const Spec& spec,
                    Mode mode, double seconds, std::size_t max_ops,
                    Recorder* rec, Tally& tally) {
  PhaseResult pr;
  while ((max_ops == 0 || pr.ops < max_ops) &&
         (seconds <= 0.0 || pr.timed_s < seconds)) {
    std::size_t n = spec.chunk;
    if (max_ops > 0) n = std::min<std::size_t>(n, max_ops - pr.ops);
    c.begin_chunk(n);
    const auto c0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      svc::SvcRequest rq = c.next();
      const std::uint64_t t0 = obs::now_ns();
      std::future<svc::SvcResponse> fut = s.submit(std::move(rq));
      const std::uint64_t t1 = obs::now_ns();
      if (mode == Mode::kDriver) s.tick();
      const std::uint64_t t2 = obs::now_ns();
      svc::SvcResponse resp = fut.get();
      const std::uint64_t t3 = obs::now_ns();
      if (rec != nullptr) {
        rec->blocks.add(ns_to_us(t0, t3));
        if (rec->parts) {
          rec->parts->submit.add(ns_to_us(t0, t1));
          rec->parts->tick.add(ns_to_us(t1, t2));
          rec->parts->get.add(ns_to_us(t2, t3));
        }
        if (rec->ops.size() < rec->ops.capacity()) {
          rec->ops.push_back({t0, t1, t2, t3});
        }
      }
      c.record(std::move(resp));
    }
    const double chunk_s = seconds_since(c0);
    pr.timed_s += chunk_s;
    pr.ops += n;
    if (rec != nullptr) {
      rec->block_s += chunk_s;
      rec->block_ops += n;
      if (rec->block_s >= kBlockSeconds || rec->blocks.room() < spec.chunk) {
        close_block(*rec);
      }
    }
    c.end_chunk(s, tally);
  }
  // A phase shorter than one block still reports one.
  if (rec != nullptr && rec->blocks.blocks().empty()) close_block(*rec);
  return pr;
}

/// A service with its client attached, past the warm-up pass.
struct Rig {
  std::unique_ptr<Client> client;
  std::unique_ptr<svc::RoutingService> svc;
  double setup_s = 0.0;
};

/// Set-up: constructing the service, starting it and the request loops
/// of the workload's fixed warm-up pass of its own request type. The
/// warm-up's input generation and checks (run_ops' untimed chunk ends)
/// are not counted.
Rig set_up(const Spec& spec, Mode mode, Tally& tally) {
  Rig r;
  r.client = make_client(spec, spec.seed);
  std::unique_ptr<Client> own_warmup;
  if (spec.warmup_seed() != spec.seed) {
    own_warmup = make_client(spec, spec.warmup_seed());
  }
  Client& warm = own_warmup ? *own_warmup : *r.client;
  const auto t0 = Clock::now();
  r.svc = std::make_unique<svc::RoutingService>(spec.channel,
                                                spec.svc_options());
  if (mode == Mode::kLive) r.svc->start();
  warm.attach(*r.svc);
  const double construct_s = seconds_since(t0);
  const PhaseResult w = run_ops(*r.svc, warm, spec, mode, 0.0,
                                spec.warmup_ops, nullptr, tally);
  if (own_warmup) r.client->attach(*r.svc);
  r.setup_s = construct_s + w.timed_s;
  return r;
}

/// Service-level invariants after a phase: every submission resolved as
/// served or rejected, and the cache did what the workload says.
void check_service(const Spec& spec, svc::RoutingService& s,
                   const engine::CacheStats& before, Tally& tally) {
  const svc::SvcStats st = s.stats();
  const std::uint64_t rejected = st.rejected_queue_full +
                                 st.rejected_tenant_limit +
                                 st.rejected_shutdown + st.rejected_invalid;
  if (st.submitted != st.served + rejected) {
    tally.fail("submitted " + std::to_string(st.submitted) + " != served " +
               std::to_string(st.served) + " + rejected " +
               std::to_string(rejected));
  }
  const engine::CacheStats after = s.engine().cache_stats();
  if (spec.kind == WorkloadKind::kHitStream && after.misses != before.misses) {
    tally.fail("hit-stream request missed the memo cache");
  }
  if (spec.kind == WorkloadKind::kMissStream && after.hits != before.hits) {
    tally.fail("miss-stream request hit the memo cache");
  }
}

// ---------------------------------------------------------------------
// Host record and output.

/// VmHWM of this process. Unlike getrusage()'s ru_maxrss, which Linux
/// carries across execve(), it does not include the launcher's memory.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double spin(std::uint64_t iters) {
  const auto t0 = Clock::now();
  std::uint64_t x = 88172645463325252ull;
  for (std::uint64_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  static std::atomic<std::uint64_t> sink{0};
  sink.fetch_add(x, std::memory_order_relaxed);
  return seconds_since(t0);
}

/// Jiffies of one CPU from /proc/stat: busy (user, nice, system, irq,
/// softirq), stolen by the hypervisor, and all eight fields together.
struct CpuTimes {
  double busy = 0, steal = 0, total = 0;
};

CpuTimes cpu_times(int cpu) {
  std::ifstream stat("/proc/stat");
  const std::string want = "cpu" + std::to_string(cpu);
  std::string line;
  CpuTimes t;
  while (std::getline(stat, line)) {
    std::istringstream is(line);
    std::string name;
    is >> name;
    if (name != want) continue;
    double v = 0.0;
    // user nice system idle iowait irq softirq steal
    for (int i = 0; i < 8 && is >> v; ++i) {
      t.total += v;
      if (i == 7) {
        t.steal = v;
      } else if (i != 3 && i != 4) {
        t.busy += v;
      }
    }
    break;
  }
  return t;
}

/// CPU time of this process so far, in the jiffies of /proc/stat.
double own_jiffies() {
  std::ifstream stat("/proc/self/stat");
  std::string all;
  std::getline(stat, all);
  // utime and stime are the 14th and 15th fields of the line, the 12th
  // and 13th after the parenthesised command name.
  std::istringstream is(all.substr(all.rfind(')') + 2));
  std::string field;
  double utime = 0.0, stime = 0.0;
  for (int i = 1; i <= 13 && is >> field; ++i) {
    if (i == 12) utime = std::strtod(field.c_str(), nullptr);
    if (i == 13) stime = std::strtod(field.c_str(), nullptr);
  }
  return utime + stime;
}

/// The CPUs the process was allowed before pin_to_one_cpu().
cpu_set_t g_allowed;
int g_pinned_cpu = -1;
CpuTimes g_pinned_at_start;
double g_own_at_start = 0.0;

/// Pins the process, and so every thread it starts later, to the CPU of
/// its allowed set that was least busy (other processes plus hypervisor
/// steal) over a short sample; on a tie, the CPU it runs on. On a shared
/// VM, waking a thread on another, idle vCPU waits for the hypervisor
/// whenever the host is overcommitted: unpinned, hit-stream throughput
/// swung threefold between runs. On one CPU the client and the
/// dispatcher hand off by a context switch.
void pin_to_one_cpu() {
  CPU_ZERO(&g_allowed);
  if (sched_getaffinity(0, sizeof(g_allowed), &g_allowed) != 0) return;
  std::vector<int> cpus;
  std::vector<CpuTimes> before;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &g_allowed)) continue;
    cpus.push_back(c);
    before.push_back(cpu_times(c));
  }
  if (cpus.empty()) return;
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const int here = sched_getcpu();
  int best = cpus.front();
  double best_busy = std::numeric_limits<double>::max();
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    const CpuTimes now = cpu_times(cpus[i]);
    const double busy =
        (now.busy + now.steal) - (before[i].busy + before[i].steal);
    if (busy < best_busy || (busy == best_busy && cpus[i] == here)) {
      best_busy = busy;
      best = cpus[i];
    }
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(best, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) return;
  g_pinned_cpu = best;
  g_pinned_at_start = cpu_times(best);
  g_own_at_start = own_jiffies();
}

/// Spin probe: the speed-up of hardware_threads spinning threads, free
/// to use every CPU the process was allowed, over one, i.e. how many
/// cores the host really runs at once.
double effective_cores(int hw) {
  std::uint64_t iters = 1 << 20;
  while (spin(iters) < 0.02) iters *= 2;
  const double single = spin(iters);
  const auto t0 = Clock::now();
  std::vector<std::thread> ts;
  for (int i = 0; i < hw; ++i) {
    ts.emplace_back([iters] {
      sched_setaffinity(0, sizeof(g_allowed), &g_allowed);
      spin(iters);
    });
  }
  for (std::thread& t : ts) t.join();
  const double wall = seconds_since(t0);
  return wall > 0.0 ? hw * single / wall : 0.0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string num(double v) {
  std::ostringstream os;
  os << std::setprecision(std::numeric_limits<double>::max_digits10) << v;
  return os.str();
}

/// The host record: hardware threads, the spin probe, the CPU the run
/// was pinned to and, on that CPU while the run lasted, the share of
/// time that other processes kept it busy and that the hypervisor stole.
/// The shares are read before the spin probe, which uses every CPU.
void print_host() {
  const int hw = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  double others = 0.0, steal = 0.0;
  if (g_pinned_cpu >= 0) {
    const CpuTimes now = cpu_times(g_pinned_cpu);
    const double dt = now.total - g_pinned_at_start.total;
    if (dt > 0) {
      const double own = own_jiffies() - g_own_at_start;
      others = std::max(0.0, (now.busy - g_pinned_at_start.busy - own) / dt);
      steal = (now.steal - g_pinned_at_start.steal) / dt;
    }
  }
  std::cout << "host {\"hardware_threads\": " << hw
            << ", \"effective_cores\": " << std::fixed << std::setprecision(2)
            << effective_cores(hw) << ", \"pinned_cpu\": " << g_pinned_cpu
            << ", \"pinned_cpu_others_busy\": " << std::setprecision(3)
            << others << ", \"pinned_cpu_steal\": " << steal << "}\n";
  std::cout.unsetf(std::ios::floatfield);
}

int finish(const Tally& tally, const std::vector<Metric>& metrics) {
  const double error_rate =
      tally.attempted > 0
          ? static_cast<double>(tally.failed) / static_cast<double>(tally.attempted)
          : 1.0;
  for (const std::string& r : tally.reasons) std::cout << "FAILED " << r << "\n";
  std::cout << "error_rate " << num(error_rate) << " ratio (" << tally.failed
            << " of " << tally.attempted << " operations)\n";
  for (const Metric& m : metrics) {
    std::cout << "metric " << m.name << " " << num(m.value) << " " << m.unit
              << "\n";
  }
  print_host();
  const bool correct = tally.failed == 0 && tally.attempted > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << tally.attempted
            << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::cout << (i ? ", " : "") << "\"" << metrics[i].name
              << "\": {\"value\": " << num(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return correct ? 0 : 1;
}

/// The repair-vs-replay record of an edit-session run.
void print_sessions(const svc::SvcStats& st) {
  std::cout << "sessions: " << st.sessions_opened << " opened, "
            << st.session_edits << " edits applied (" << st.session_repairs
            << " repaired, " << st.session_dp_fallbacks << " dp fallbacks), "
            << st.session_edit_failures << " rejected\n";
}

// ---------------------------------------------------------------------
// --trace 0: the end-to-end run.

int run_end_to_end(const Spec& spec, const Args& args) {
  Tally tally;
  Rig rig = set_up(spec, Mode::kLive, tally);
  std::vector<double> setups = {rig.setup_s};
  const engine::CacheStats before = rig.svc->engine().cache_stats();
  Recorder rec(false);
  PhaseResult pr;
  for (int i = 0; i < kTimedSegments; ++i) {
    const PhaseResult part =
        run_ops(*rig.svc, *rig.client, spec, Mode::kLive,
                args.seconds / kTimedSegments, 0, &rec, tally);
    pr.ops += part.ops;
    pr.timed_s += part.timed_s;
    // Throwaway services; the timed one waits idle meanwhile.
    for (int k = 0; k < kSetupsPerSegment; ++k) {
      setups.push_back(set_up(spec, Mode::kLive, tally).setup_s);
    }
  }
  check_service(spec, *rig.svc, before, tally);
  const svc::SvcStats st = rig.svc->stats();
  rig = Rig{};

  const BlockStats& b = rec.blocks;
  std::cout << "workload " << workload_name(spec.kind) << " seed " << spec.seed
            << ": " << pr.ops << " requests in " << num(pr.timed_s)
            << " s timed, " << b.blocks().size() << " blocks; latency p99 "
            << num(b.p99(kSlowSide)) << " us\n";
  std::cout << "set-ups (s):";
  for (const double x : setups) std::cout << " " << num(x);
  std::cout << "\n";
  if (spec.kind == WorkloadKind::kEditSession) print_sessions(st);
  return finish(tally, {
                           {"throughput_rps", b.rate(1.0 - kSlowSide), "1/s"},
                           {"lat_p50_us", b.p50(kSlowSide), "us"},
                           {"lat_p90_us", b.p90(kSlowSide), "us"},
                           {"setup_s", quantile(setups, kSlowSide), "s"},
                           {"peak_rss_mb", peak_rss_mb(), "MB"},
                       });
}

// ---------------------------------------------------------------------
// --trace 1: the ledger.

/// An outside-in span recorded by the benchmark itself.
struct OwnSpan {
  const char* name;
  std::uint64_t start_ns, end_ns;
};

template <class F>
std::vector<double> time_each(std::size_t reps, F&& f) {
  std::vector<double> us;
  us.reserve(reps);
  for (std::size_t i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    f(i);
    us.push_back(us_since(t0));
  }
  return us;
}

struct Row {
  std::string layer;
  double us;
};

struct LivePartition {
  bool valid = false;
  double submit = 0, queue_wait = 0, window = 0, complete = 0;
};

/// Splits each traced live request at the dispatcher's svc.tick span
/// (drained from the program's own instrumentation): submit(), the wait
/// until the dispatcher starts the window, the window itself, and the
/// time from the window's end to the return of get().
LivePartition live_partition(const std::vector<OpRecord>& ops,
                             const std::vector<obs::TraceEvent>& events) {
  std::vector<const obs::TraceEvent*> ticks;
  for (const obs::TraceEvent& e : events) {
    if (!e.instant && std::strcmp(e.name, "svc.tick") == 0) ticks.push_back(&e);
  }
  LivePartition lp;
  if (ticks.empty()) return lp;
  std::vector<double> sub, wait, win, done;
  std::size_t k = 0;
  for (const OpRecord& op : ops) {
    while (k < ticks.size() && ticks[k]->start_ns < op.t0) ++k;
    if (k == ticks.size()) break;
    const obs::TraceEvent& t = *ticks[k];
    if (t.end_ns > op.t3 + 1000000) continue;  // not this request's window
    sub.push_back(ns_to_us(op.t0, op.t1));
    wait.push_back(ns_to_us(op.t1, t.start_ns));
    win.push_back(ns_to_us(t.start_ns, t.end_ns));
    done.push_back(ns_to_us(t.end_ns, op.t3));
  }
  if (sub.empty()) return lp;
  lp.valid = true;
  lp.submit = median(sub);
  lp.queue_wait = median(wait);
  lp.window = median(win);
  lp.complete = median(done);
  return lp;
}

/// The handoff probe: the two thread handoffs of a live request, timed
/// without the service. A client queues a promise under a mutex and
/// notifies a condition variable, as submit() does; a server thread that
/// waits on it, as the dispatcher does, takes the promise and sets it;
/// the client returns from get(). Both threads run on the benchmark's
/// one CPU. The same steps run inline on the client's thread, as in
/// driver mode, alternate with them; the handoff is the difference of the
/// two medians (us).
double handoff_probe(std::size_t rounds) {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::promise<int>> queue;
  bool exit = false;
  std::thread server([&] {
    std::unique_lock<std::mutex> lk(mu);
    while (true) {
      cv.wait(lk, [&] { return exit || !queue.empty(); });
      if (queue.empty()) break;
      std::promise<int> p = std::move(queue.front());
      queue.pop_front();
      lk.unlock();
      p.set_value(1);
      lk.lock();
    }
  });
  std::mutex inline_mu;
  std::condition_variable inline_cv;  // no waiter, as in driver mode
  std::deque<std::promise<int>> inline_queue;
  std::vector<double> threaded, inline_us;
  threaded.reserve(rounds);
  inline_us.reserve(rounds);
  for (std::size_t i = 0; i < rounds; ++i) {
    {
      std::promise<int> p;
      std::future<int> f = p.get_future();
      const auto t0 = Clock::now();
      {
        std::lock_guard<std::mutex> lk(mu);
        queue.push_back(std::move(p));
      }
      cv.notify_one();
      (void)f.get();
      threaded.push_back(us_since(t0));
    }
    {
      std::promise<int> p;
      std::future<int> f = p.get_future();
      const auto t0 = Clock::now();
      {
        std::lock_guard<std::mutex> lk(inline_mu);
        inline_queue.push_back(std::move(p));
      }
      inline_cv.notify_one();
      std::promise<int> q;
      {
        std::lock_guard<std::mutex> lk(inline_mu);
        q = std::move(inline_queue.front());
        inline_queue.pop_front();
      }
      q.set_value(1);
      (void)f.get();
      inline_us.push_back(us_since(t0));
    }
  }
  {
    std::lock_guard<std::mutex> lk(mu);
    exit = true;
  }
  cv.notify_one();
  server.join();
  return median(std::move(threaded)) - median(std::move(inline_us));
}

/// Writes Chrome trace JSON: each list of own spans on a thread id of
/// its own, then the program's spans on theirs.
void write_trace(const std::string& path,
                 const std::vector<std::vector<OwnSpan>>& own,
                 const std::vector<obs::TraceEvent>& lib) {
  std::ofstream os(path);
  if (!os) return;
  std::uint64_t base = std::numeric_limits<std::uint64_t>::max();
  for (const std::vector<OwnSpan>& spans : own) {
    for (const OwnSpan& s : spans) base = std::min(base, s.start_ns);
  }
  for (const obs::TraceEvent& e : lib) base = std::min(base, e.start_ns);
  os << "{\"traceEvents\": [";
  bool first = true;
  const auto emit = [&](const char* name, std::uint64_t s, std::uint64_t e,
                        unsigned tid) {
    os << (first ? "\n" : ",\n") << "{\"name\": \"" << name
       << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << tid
       << ", \"ts\": " << num(static_cast<double>(s - base) / 1000.0)
       << ", \"dur\": " << num(static_cast<double>(e - s) / 1000.0) << "}";
    first = false;
  };
  unsigned tid = 1000;
  for (const std::vector<OwnSpan>& spans : own) {
    for (const OwnSpan& s : spans) emit(s.name, s.start_ns, s.end_ns, tid);
    ++tid;
  }
  for (std::size_t i = 0; i < lib.size() && i < kTraceFileEvents; ++i) {
    if (!lib[i].instant) {
      emit(lib[i].name, lib[i].start_ns, lib[i].end_ns, lib[i].tid);
    }
  }
  os << "\n]}\n";
}

std::vector<OwnSpan> own_spans(const std::vector<OpRecord>& ops,
                               bool driver) {
  std::vector<OwnSpan> out;
  for (std::size_t i = 0; i < ops.size() && out.size() < kTraceFileEvents; ++i) {
    const OpRecord& o = ops[i];
    out.push_back({"client.submit", o.t0, o.t1});
    if (driver) out.push_back({"client.tick", o.t1, o.t2});
    out.push_back({"client.get", o.t2, o.t3});
  }
  return out;
}

int run_ledger(const Spec& spec, const Args& args) {
  Tally tally;

  // Three passes in alternating segments, so drift in the host's speed
  // falls on all of them alike: A, the live service untraced (the
  // reference latency); B, the same service and request stream traced
  // (own stamps plus the program's spans); C, a traced driver-mode
  // service with submit(), tick() and get() stamped apart, the spans
  // inside tick() drained, and publish_metrics() timed on its own;
  // then the handoff probe.
  Rig live = set_up(spec, Mode::kLive, tally);
  Rig driver = set_up(spec, Mode::kDriver, tally);
  const svc::SvcStats st0 = live.svc->stats();
  const engine::CacheStats live_c0 = live.svc->engine().cache_stats();
  const engine::CacheStats driver_c0 = driver.svc->engine().cache_stats();
  Recorder rec_a(false), rec_b(true), rec_c(true);
  rec_c.parts = std::make_unique<Recorder::Parts>();
  PhaseResult sum_a, sum_b;
  std::vector<double> publish, handoff;
  std::vector<double> p_submit, p_wait, p_window, p_done;
  std::vector<OpRecord> trace_live, trace_driver;
  std::vector<obs::TraceEvent> trace_events;
  // Per round, the median duration of each of the program's spans in C.
  std::map<std::string, std::vector<double>> driver_spans;
  const double seg = args.seconds / (3.0 * kLedgerRounds);
  for (int round = 0; round < kLedgerRounds; ++round) {
    const PhaseResult a = run_ops(*live.svc, *live.client, spec, Mode::kLive,
                                  seg, 0, &rec_a, tally);
    sum_a.ops += a.ops;
    sum_a.timed_s += a.timed_s;

    obs::TraceSession ts(kTraceCapacity);
    ts.start();
    const PhaseResult b = run_ops(*live.svc, *live.client, spec, Mode::kLive,
                                  seg, 0, &rec_b, tally);
    ts.stop();
    sum_b.ops += b.ops;
    sum_b.timed_s += b.timed_s;
    const LivePartition lp = live_partition(rec_b.ops, ts.events());
    if (lp.valid) {
      p_submit.push_back(lp.submit);
      p_wait.push_back(lp.queue_wait);
      p_window.push_back(lp.window);
      p_done.push_back(lp.complete);
    }
    if (round == 0) {
      trace_live = rec_b.ops;
      trace_events = ts.events();
    }
    rec_b.ops.clear();

    obs::TraceSession tc(kTraceCapacity);
    tc.start();
    run_ops(*driver.svc, *driver.client, spec, Mode::kDriver, seg, 0, &rec_c,
            tally);
    tc.stop();
    std::map<std::string, std::vector<double>> by_name;
    for (const obs::TraceEvent& e : tc.events()) {
      if (!e.instant) by_name[e.name].push_back(ns_to_us(e.start_ns, e.end_ns));
    }
    for (auto& [name, us] : by_name) driver_spans[name].push_back(median(us));
    if (round == 0) {
      trace_driver = rec_c.ops;
      trace_events.insert(trace_events.end(), tc.events().begin(),
                          tc.events().end());
    }
    rec_c.ops.clear();
    publish.push_back(median(time_each(
        kPublishCalls, [&](std::size_t) { driver.svc->publish_metrics(); })));
    handoff.push_back(handoff_probe(kHandoffRounds));
  }
  check_service(spec, *live.svc, live_c0, tally);
  check_service(spec, *driver.svc, driver_c0, tally);
  const svc::SvcStats st1 = live.svc->stats();
  const engine::CacheStats live_c1 = live.svc->engine().cache_stats();
  live = Rig{};
  driver = Rig{};

  const auto served = static_cast<double>(st1.served - st0.served);
  const auto ticks = static_cast<double>(st1.ticks - st0.ticks);
  const double reqs_per_tick = ticks > 0 ? served / ticks : 0.0;
  const std::uint64_t hits = live_c1.hits - live_c0.hits;
  const std::uint64_t lookups = hits + (live_c1.misses - live_c0.misses);
  const double hit_ratio =
      lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                  : 0.0;
  const std::uint64_t evictions = live_c1.evictions - live_c0.evictions;

  const double lat_untraced = rec_a.blocks.p50(0.5);
  const double lat_traced = rec_b.blocks.p50(0.5);
  const double wall_a = sum_a.timed_s / static_cast<double>(sum_a.ops);
  const double wall_b = sum_b.timed_s / static_cast<double>(sum_b.ops);
  const double submit_us = rec_c.parts->submit.p50(0.5);
  const double tick_us = rec_c.parts->tick.p50(0.5);
  const double get_us = rec_c.parts->get.p50(0.5);
  const double publish_us = median(publish);
  const double handoff_us = median(handoff);
  const auto span_us = [&](const char* name) {
    const auto it = driver_spans.find(name);
    return it == driver_spans.end() ? 0.0 : median(it->second);
  };

  // D. Standalone probes of the layers below svc, on the same inputs.
  std::vector<double> construct_us;  // ctor + start(); stop() untimed
  for (int i = 0; i < 9; ++i) {
    const auto t0 = Clock::now();
    auto s = std::make_unique<svc::RoutingService>(spec.channel,
                                                   spec.svc_options());
    s->start();
    construct_us.push_back(us_since(t0));
  }
  const std::vector<double> index_us = time_each(200, [&](std::size_t) {
    const ChannelIndex idx(spec.channel);
    (void)idx.fingerprint();
  });

  // Engine and alg probes on the workload's first requests (edit-session:
  // its live sets). The cache-off engine call and the bare router call
  // alternate per instance, so their difference is the engine's own cost.
  const std::vector<BatchItem> items = probe_items(
      spec, spec.kind == WorkloadKind::kMissStream ? 512 : 64);
  engine::BatchOptions hit_opts;
  hit_opts.cache_capacity = items.size();
  hit_opts.cache_shards = 1;
  engine::BatchRouter hit_router(spec.channel, hit_opts);
  for (const BatchItem& it : items) hit_router.route(it.cs, it.opts);
  const std::vector<double> route_hit = time_each(
      4 * items.size(), [&](std::size_t i) {
        const BatchItem& it = items[i % items.size()];
        (void)hit_router.route(it.cs, it.opts);
      });
  engine::BatchOptions miss_opts;
  miss_opts.use_cache = false;
  engine::BatchRouter miss_router(spec.channel, miss_opts);
  const ChannelIndex idx(spec.channel);
  alg::DpWorkspace ws;
  std::uint64_t dp_nodes = 0;
  std::size_t dp_max_level = 0;
  std::vector<double> route_miss, alg_route, engine_own;
  for (const BatchItem& it : items) {
    const auto t0 = Clock::now();
    const alg::RouteResult via_engine = miss_router.route(it.cs, it.opts);
    route_miss.push_back(us_since(t0));
    RouteRequest rq;
    rq.channel = &spec.channel;
    rq.connections = &it.cs;
    rq.context.index = &idx;
    rq.dp_workspace = &ws;
    rq.options.max_segments = it.opts.max_segments;
    rq.options.weight = engine::make_weight(it.opts.weight);
    const auto t1 = Clock::now();
    const alg::RouteResult r = alg::route("dp", rq);
    alg_route.push_back(us_since(t1));
    engine_own.push_back(route_miss.back() - alg_route.back());
    dp_nodes += r.stats.total_nodes;
    dp_max_level = std::max(dp_max_level, r.stats.max_level_nodes);
    ++tally.attempted;
    if (!r.success || !(r.routing == via_engine.routing)) {
      tally.fail("alg::route and the engine disagree on a routable instance");
    }
  }
  const EditProbe ep = run_edit_probe(spec, 2000, 8);
  tally.attempted += ep.edits;
  for (std::uint64_t i = 0; i < ep.failed; ++i) {
    tally.fail("edit probe: OnlineRouter::apply outcome or snapshot wrong");
  }

  const double engine_hit_us = median(route_hit);
  const double engine_miss_us = median(route_miss);
  const double alg_route_us = median(alg_route);
  const double apply_us = median(ep.apply_us);
  const std::uint64_t applied = ep.repairs + ep.dp_fallbacks;

  // The request path: driver-mode submit(), tick() and get() from pass
  // C, plus the two thread handoffs a live request adds, from the handoff
  // probe. The tick splits into publish_metrics() (timed on its own) and
  // the program's spans inside it. Every leaf is measured apart from the
  // untraced latency of pass A that the path must close against.
  std::vector<Row> leaves = {{"svc.submit", submit_us}};
  std::vector<Row> tick_leaves = {{"svc.publish_metrics", publish_us}};
  double inner = 0.0;
  switch (spec.kind) {
    case WorkloadKind::kHitStream:
      inner = span_us("engine.route");
      tick_leaves.push_back({"engine.route (hit)", inner});
      break;
    case WorkloadKind::kMissStream:
      inner = span_us("engine.route");
      tick_leaves.push_back(
          {"engine.route self", inner - span_us("alg.route")});
      tick_leaves.push_back({"alg.route (dp)", span_us("alg.route")});
      break;
    case WorkloadKind::kEditSession:
      inner = span_us("svc.edit");
      tick_leaves.push_back({"svc.edit (OnlineRouter::apply)", inner});
      break;
  }
  inner += publish_us;
  leaves.push_back({"svc.tick.self", tick_us - inner});
  leaves.insert(leaves.end(), tick_leaves.begin(), tick_leaves.end());
  leaves.push_back({"svc.get", get_us});
  leaves.push_back({"svc.handoff", handoff_us});
  const double path_sum = submit_us + tick_us + get_us + handoff_us;
  const double closure = (path_sum - lat_untraced) / lat_untraced;
  const Row dominant = *std::max_element(
      leaves.begin(), leaves.end(),
      [](const Row& a, const Row& b) { return a.us < b.us; });
  const double overhead_us = lat_traced - lat_untraced;
  const double wall_overhead = (wall_b - wall_a) / wall_a;
  std::ostringstream led;
  led << std::fixed << std::setprecision(3);
  led << "ledger " << workload_name(spec.kind) << " seed " << spec.seed
      << " (median us per request)\n";
  for (const Row& r : leaves) {
    led << "  " << std::left << std::setw(32) << r.layer << std::right
        << std::setw(10) << r.us << "  " << std::setw(6) << std::setprecision(1)
        << 100.0 * r.us / path_sum << "%\n"
        << std::setprecision(3);
  }
  led << "  request-path sum " << path_sum << " vs untraced lat_p50_us "
      << lat_untraced << ": closure " << std::showpos << 100.0 * closure
      << std::noshowpos << "% (bar " << 100.0 * kClosureBar << "%) "
      << (std::abs(closure) <= kClosureBar ? "CLOSED" : "OPEN") << "\n";
  led << "  dominant layer: " << dominant.layer << " (" << std::setprecision(1)
      << 100.0 * dominant.us / path_sum << "% of the path)\n"
      << std::setprecision(3);
  led << "  tracing overhead: traced live p50 " << lat_traced << " - untraced "
      << lat_untraced << " = " << std::showpos << overhead_us
      << " us; wall time per request " << 100.0 * wall_overhead << "%"
      << std::noshowpos << "\n";
  if (!p_submit.empty()) {
    led << "  live partition at the svc.tick span: submit " << median(p_submit)
        << ", wait for dispatch " << median(p_wait) << ", window "
        << median(p_window) << ", window end to get() " << median(p_done)
        << "\n";
  }
  led << "  edit probe: " << ep.edits << " edits, " << ep.repairs
      << " repaired, " << ep.dp_fallbacks << " dp fallbacks, " << ep.infeasible
      << " infeasible; apply p50 " << apply_us << " us vs from_scratch p50 "
      << median(ep.from_scratch_us) << " us\n";
  std::cout << led.str();

  if (!args.out_dir.empty()) {
    const std::string stem = args.out_dir + "/" + workload_name(spec.kind) +
                             "-seed" + std::to_string(spec.seed);
    std::ofstream(stem + ".ledger.txt") << led.str();
    write_trace(stem + ".trace.json",
                {own_spans(trace_live, false), own_spans(trace_driver, true)},
                trace_events);
  }

  return finish(
      tally,
      {
          {"svc.submit_us", submit_us, "us"},
          {"svc.tick_us", tick_us, "us"},
          {"svc.publish_metrics_us", publish_us, "us"},
          {"svc.handoff_us", handoff_us, "us"},
          {"svc.reqs_per_tick", reqs_per_tick, "req/tick"},
          {"svc.construct_us", median(construct_us), "us"},
          {"core.index_build_us", median(index_us), "us"},
          {"engine.route_hit_us", engine_hit_us, "us"},
          {"engine.route_miss_us", engine_miss_us, "us"},
          {"engine.hit_ratio", hit_ratio, "ratio"},
          {"engine.evictions", static_cast<double>(evictions), "count"},
          {"alg.route_us", alg_route_us, "us"},
          {"alg.dp_nodes", static_cast<double>(dp_nodes), "count"},
          {"alg.dp_max_level_nodes", static_cast<double>(dp_max_level), "count"},
          {"alg.online_apply_us", apply_us, "us"},
          {"alg.from_scratch_us", median(ep.from_scratch_us), "us"},
          {"alg.repair_frac",
           applied > 0 ? static_cast<double>(ep.repairs) / static_cast<double>(applied)
                       : 0.0,
           "ratio"},
          {"alg.dp_fallbacks", static_cast<double>(ep.dp_fallbacks), "count"},
          {"alg.edits_infeasible", static_cast<double>(ep.infeasible), "count"},
      });
}

}  // namespace
}  // namespace svcbench

int main(int argc, char** argv) {
  using namespace svcbench;
  Args args;
  std::string err;
  if (!parse_args(argc, argv, args, err)) {
    std::cerr << "svcbench: " << err << "\n";
    return 2;
  }
  pin_to_one_cpu();
  const Spec spec = Spec::make(args.workload, args.seed);
  return args.trace ? run_ledger(spec, args) : run_end_to_end(spec, args);
}
