// mmbench: the measuring half of the repository benchmark (run.py is the
// harness that builds it, validates its report and prints the result).
//
//   mmbench --workload NAME --seed N --seconds S --trace 0|1
//           [--trace-out PATH] [--break-check CHECK]
//
// Every workload is driven only through the library's public calls. The
// untraced mode (--trace 0) runs the whole workload once for the simulated
// metrics, and repeats set-up and a prefix of the workload for about S
// seconds for the host metrics. The traced mode (--trace 1) spends half of
// S on untraced repetitions of the prefix and half on traced ones that
// call each layer separately and record host wall-clock spans around the
// calls; the per-layer metrics come from those spans, and the difference
// between the two halves is the tracing overhead. "sim" numbers are
// virtual disk time and repeat exactly for a seed; "host" numbers are the
// simulator's own time: CPU time summed over its threads for host_qps and
// setup_s, wall-clock time for the per-layer spans.
//
// The last stdout line is one JSON object: workload, attempted, failed,
// checks (each output check and whether it held) and metrics (name, value,
// unit, and the sample count behind each percentile). --break-check
// deliberately breaks the named output check's invariant, so the harness
// can show that the check catches it.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "bench/emit_json.h"
#include "cache/buffer_pool.h"
#include "core/multimap.h"
#include "disk/disk.h"
#include "disk/fault.h"
#include "disk/spec.h"
#include "lvm/cluster.h"
#include "lvm/volume.h"
#include "mapping/naive.h"
#include "model/analytical.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "query/cluster_session.h"
#include "query/executor.h"
#include "query/query.h"
#include "query/session.h"
#include "util/rng.h"

namespace mm::perfbench {
namespace {

double HostNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// CPU seconds used so far by every thread of the process, finished ones
// included. Unlike wall time it does not grow while other tenants hold the
// cores.
double CpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double Min(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "mmbench: %s\n", what.c_str());
  std::exit(2);
}

template <typename T>
T Must(Result<T> r, const char* what) {
  if (!r.ok()) Die(std::string(what) + ": " + r.status().ToString());
  return std::move(r).value();
}

// ---------------------------------------------------------------------------
// Workloads

enum class Kind { kRangeClosed, kBeamOpen, kClusterFanout, kSkewedCached };

struct WorkloadSpec {
  Kind kind;
  const char* name;
  size_t queries;         // the simulated run behind the sim metrics
  size_t host_queries;    // timed repetitions: a prefix of the same inputs
  size_t warm_queries;    // set-up warm-up pass
  size_t ladder_queries;  // per capacity-ladder rung (open loop only)
  double rate_qps;        // open-loop base rate; 0 = calibrated per seed
  double p99_limit_ms;    // capacity-ladder latency limit
};

// Host timings repeat a prefix of the inputs rather than the whole run: the
// session's memory grows with the run, and runs of hundreds of megabytes
// are at the mercy of other tenants' memory traffic (repetitions of the
// full range_closed run varied by 1.6x between processes, those of a
// quarter of it by a few percent). Prefixes of a tenth of a second or so
// also give the fastest-attempt estimate many attempts per run.
//
// Ladder rungs as multiples of the workload's base rate, walked upward
// until the first rung that misses the p99 limit or builds a backlog.
constexpr double kLadder[] = {1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0};

const WorkloadSpec kWorkloads[] = {
    {Kind::kRangeClosed, "range_closed", 1200, 300, 30, 0, 0, 0},
    {Kind::kBeamOpen, "beam_open", 20000, 1500, 300, 10000, 2.0, 2000.0},
    {Kind::kClusterFanout, "cluster_fanout", 40000, 2500, 500, 10000, 8.0,
     2000.0},
    {Kind::kSkewedCached, "skewed_cached", 400000, 100000, 4000, 40000, 0,
     100.0},
};

const map::GridShape kPaperGrid{259, 259, 259};
const map::GridShape kClusterGrid{256, 256, 64};
const map::GridShape kSkewGrid{16, 16, 16};
constexpr uint32_t kClusterShards = 8;
constexpr uint32_t kClusterCellSectors = 8;
constexpr uint64_t kSkewPoolCells = 16 * 16 * 4;  // the hot band
constexpr size_t kSkewProbeQueries = 400;

// Generated inputs: a pure function of (workload, seed). Excluded from
// set-up time.
struct Inputs {
  std::vector<map::Box> boxes;
  // Poisson arrival instants at 1 qps; a rate r scales them by 1/r.
  std::vector<double> unit_arrivals_ms;
  std::vector<map::Box> warm_boxes;  // skewed_cached pool warm-up
  std::vector<double> warm_unit_arrivals_ms;
  double rate_qps = 0;
};

std::vector<double> UnitPoisson(size_t n, Rng& rng) {
  std::vector<double> at(n);
  double t = 0;
  for (size_t i = 0; i < n; ++i) {
    t += -1000.0 * std::log(1.0 - rng.NextDouble());
    at[i] = t;
  }
  return at;
}

std::vector<double> Scaled(const std::vector<double>& unit, double rate) {
  std::vector<double> at(unit.size());
  for (size_t i = 0; i < unit.size(); ++i) at[i] = unit[i] / rate;
  return at;
}

// ---------------------------------------------------------------------------
// Host wall-clock spans recorded by this file around library calls.

struct HostSpan {
  const char* name;
  double start_s;
  double end_s;
  int parent;  // index into the span list, -1 for a root
};

class SpanLog {
 public:
  int Begin(const char* name, int parent) {
    spans_.push_back({name, HostNow(), 0, parent});
    return static_cast<int>(spans_.size() - 1);
  }
  double End(int id) {
    spans_[static_cast<size_t>(id)].end_s = HostNow();
    return Seconds(id);
  }
  double Seconds(int id) const {
    const HostSpan& s = spans_[static_cast<size_t>(id)];
    return s.end_s - s.start_s;
  }
  // Chrome trace-event JSON (Perfetto-loadable): complete events in host
  // microseconds since the first span, with the parent span named in args.
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const double t0 = spans_.empty() ? 0 : spans_.front().start_s;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const HostSpan& s = spans_[i];
      const char* parent =
          s.parent < 0 ? "" : spans_[static_cast<size_t>(s.parent)].name;
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 0, "
                   "\"tid\": 0, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %zu, \"parent\": %d, \"parent_name\": \"%s\"}}",
                   i == 0 ? "" : ",\n", s.name, (s.start_s - t0) * 1e6,
                   (s.end_s - s.start_s) * 1e6, i, s.parent, parent);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::vector<HostSpan> spans_;
};

// ---------------------------------------------------------------------------
// Report: metrics and output checks, serialized as the last stdout line.

struct Metric {
  std::string name;
  double value;
  std::string unit;
  uint64_t n;  // samples behind a percentile; 0 otherwise
};

struct Check {
  std::string name;
  bool ok;
  std::string detail;
};

class Report {
 public:
  explicit Report(std::string break_check)
      : break_check_(std::move(break_check)) {}

  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t n = 0) {
    metrics_.push_back({name, value, unit, n});
  }

  // Records an output check. Breaks(NAME) is true when --break-check NAME
  // asks for that check's input to be perturbed, so the harness can show
  // that the check fails when its invariant does.
  bool Breaks(const char* name) const { return break_check_ == name; }
  void Expect(const char* name, bool ok, const std::string& detail) {
    checks_.push_back({name, ok, detail});
    if (!ok) std::fprintf(stderr, "mmbench: check %s FAILED: %s\n", name,
                          detail.c_str());
  }

  void Print(const char* workload, uint64_t attempted,
             uint64_t failed) const {
    std::string out = "{\"workload\": \"" + bench::JsonEscape(workload) +
                      "\", \"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) +
                      ", \"checks\": [";
    for (size_t i = 0; i < checks_.size(); ++i) {
      const Check& c = checks_[i];
      out += (i ? ", " : "") + std::string("{\"name\": \"") +
             bench::JsonEscape(c.name) + "\", \"ok\": " +
             (c.ok ? "true" : "false") + ", \"detail\": \"" +
             bench::JsonEscape(c.detail) + "\"}";
    }
    out += "], \"metrics\": [";
    char num[64];
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      if (std::isfinite(m.value)) {
        std::snprintf(num, sizeof(num), "%.17g", m.value);
      } else {
        std::snprintf(num, sizeof(num), "null");
      }
      out += (i ? ", " : "") + std::string("{\"name\": \"") +
             bench::JsonEscape(m.name) + "\", \"value\": " + num +
             ", \"unit\": \"" + bench::JsonEscape(m.unit) +
             "\", \"n\": " + std::to_string(m.n) + "}";
    }
    out += "]}";
    std::printf("%s\n", out.c_str());
  }

 private:
  std::string break_check_;
  std::vector<Metric> metrics_;
  std::vector<Check> checks_;
};

// FNV-1a over every field of every completion record, in completion
// order: equal digests mean bit-identical simulated results.
uint64_t Digest(const std::vector<query::QueryCompletion>& completions) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  };
  for (const query::QueryCompletion& c : completions) {
    mix(&c.query, sizeof c.query);
    mix(&c.arrival_ms, sizeof c.arrival_ms);
    mix(&c.start_ms, sizeof c.start_ms);
    mix(&c.finish_ms, sizeof c.finish_ms);
    mix(&c.retries, sizeof c.retries);
    mix(&c.redirects, sizeof c.redirects);
    const uint8_t failed = c.failed ? 1 : 0;
    mix(&failed, 1);
    mix(&c.resident_sectors, sizeof c.resident_sectors);
    mix(&c.submitted_sectors, sizeof c.submitted_sectors);
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------------
// The system under test, built by Setup().

struct Rig {
  // Single-volume workloads.
  std::unique_ptr<lvm::Volume> volume;
  // cluster_fanout.
  std::unique_ptr<lvm::ClusterVolume> cluster;
  std::unique_ptr<map::Mapping> mapping;
  const core::MultiMapMapping* multimap = nullptr;
  std::unique_ptr<query::Executor> executor;
  std::unique_ptr<cache::BufferPool> pool;
  double create_s = 0;  // mapping construction alone
  uint32_t threads = 1;
};

// One repetition's outcome. Host times are this file's spans around the
// library calls; everything else is simulated.
struct RunOut {
  double wall_s = 0;      // the whole repetition
  double cpu_s = 0;       // the whole repetition's CPU time, all threads
  double parallel_s = 0;  // ClusterSession::wall_seconds(); else the run
  double session_s = 0;   // traced: the Session / ClusterSession call
  double plan_s = 0;      // traced open loop: Executor::PlanBatch
  double export_s = 0;    // traced: obs::ToChromeTraceJson
  uint64_t events = 0;
  uint64_t digest = 0;
  query::LatencyStats stats;
  std::vector<query::QueryCompletion> completions;
  cache::BufferPoolStats pool_delta;
  lvm::RebuildStats rebuild;
  std::vector<uint64_t> shard_parts;  // cluster: parts simulated per shard
  disk::DiskStats disk;  // summed over every member disk
  uint32_t disks = 0;
  size_t trace_events = 0;
  uint64_t trace_dropped = 0;
};

// The planner's view of the workload: one PlanBatch over every box.
struct PlanProbe {
  double host_s = 0;
  query::BatchPlan batch;
  uint64_t requests = 0;
  uint64_t sectors = 0;
  uint64_t cells = 0;
  uint64_t template_hits = 0;
};

// Repetitions of one workload: the first in full, the rest reduced to
// what the checks and medians need, so memory stays that of one run.
struct Reps {
  RunOut first;
  std::vector<double> wall_s, cpu_s, parallel_s, session_s, export_s,
      remainder;
  std::vector<uint64_t> digests;
  uint64_t failed = 0;

  size_t size() const { return digests.size(); }
  void Add(RunOut r) {
    wall_s.push_back(r.wall_s);
    cpu_s.push_back(r.cpu_s);
    parallel_s.push_back(r.parallel_s);
    session_s.push_back(r.session_s);
    export_s.push_back(r.export_s);
    // Wall time of a traced repetition not covered by its layer spans.
    remainder.push_back(
        Ratio(r.wall_s - r.plan_s - r.session_s - r.export_s, r.wall_s));
    digests.push_back(r.digest);
    failed += r.stats.failed;
    if (digests.size() == 1) first = std::move(r);
  }
};

class Bench {
 public:
  Bench(const WorkloadSpec& spec, uint64_t seed) : spec_(spec), seed_(seed) {}

  const WorkloadSpec& spec() const { return spec_; }
  // Queries per timed repetition; the full run has in_.boxes.size().
  size_t n() const { return spec_.host_queries; }
  size_t full_n() const { return in_.boxes.size(); }
  const Rig& rig() const { return rig_; }
  bool closed_loop() const { return spec_.kind == Kind::kRangeClosed; }
  bool cluster() const { return spec_.kind == Kind::kClusterFanout; }

  void Generate();
  // Builds the system under test; Teardown() destroys it, outside the
  // caller's set-up timing.
  void Setup();
  void Teardown() { rig_ = Rig(); }

  // One untraced repetition of the first n() queries at the workload's own
  // rate.
  RunOut Run() { return RunAt(in_.rate_qps, boxes(), unit_arrivals(), nullptr); }
  // The whole workload, once: the run the sim metrics and peak memory
  // describe. A cluster runs it with one worker: results are the same at
  // any worker count (the thread_digest check), and with four, which
  // thread got which of glibc's per-thread heaps moved the peak by 12%
  // between runs of one seed.
  RunOut RunFull() {
    const uint32_t threads = std::exchange(rig_.threads, 1);
    RunOut out =
        RunAt(in_.rate_qps, in_.boxes, in_.unit_arrivals_ms, nullptr);
    rig_.threads = threads;
    return out;
  }

  // One repetition with a library trace sink attached, decomposed into its
  // layer calls with a host span around each, under a "rep" span.
  RunOut RunTraced(SpanLog* log);

  // As Run() with the cluster's worker count forced to 1.
  RunOut RunOneThread() {
    const uint32_t threads = rig_.threads;
    rig_.threads = 1;
    RunOut out = Run();
    rig_.threads = threads;
    return out;
  }

  // Open loop: the highest Poisson rate whose simulated p99 stays within
  // the limit without a growing backlog, interpolated between the last
  // ladder rung that meets the limit and the first that does not. Closed
  // loop: queries completed per simulated second by the one client in
  // `full`, the whole-workload run.
  double CapacityQps(const RunOut& full);

  PlanProbe Plan();
  // lvm::ClusterVolume::Route over every planned request. Returns host
  // seconds; *pieces counts the shard-local requests produced.
  double Route(const query::BatchPlan& batch, uint64_t* pieces);
  // Replays the workload's planned request stream for one member disk
  // through disk::Disk::Submit / ServiceNextQueued on a fresh drive.
  // Returns host seconds; *requests counts the requests serviced.
  double DiskReplay(const query::BatchPlan& batch, uint64_t* requests);
  // model::CostModel's predicted service time against the simulated one,
  // summed over the first queries, as |pred - sim| / sim in percent.
  // Returns -1 for workloads the model does not cover.
  double ModelResidualPct(const RunOut& measured);

 private:
  std::span<const map::Box> boxes() const { return {in_.boxes.data(), n()}; }
  std::span<const double> unit_arrivals() const {
    return {in_.unit_arrivals_ms.data(), n()};
  }
  std::vector<map::Box> Draw(size_t count, uint64_t stream) const;
  double CalibrateSkewRate();
  void WarmUp();
  query::ClusterConfig Config(const std::vector<double>& arrivals_ms,
                              obs::TraceSink* sink);
  RunOut RunAt(double rate, std::span<const map::Box> boxes,
               std::span<const double> unit_arrivals, obs::TraceSink* sink);
  void Collect(const query::ClusterSession& session, RunOut* out) const;
  void CollectDisks(RunOut* out) const;

  WorkloadSpec spec_;
  uint64_t seed_;
  Inputs in_;
  Rig rig_;
};

std::vector<map::Box> Bench::Draw(size_t count, uint64_t stream) const {
  Rng rng(bench::SweepSeed(seed_, stream));
  std::vector<map::Box> boxes;
  boxes.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    switch (spec_.kind) {
      case Kind::kRangeClosed: {
        // Fig. 6b method: random cubic ranges, selectivity cycling 0.01 /
        // 0.1 / 1 percent.
        const double pct[] = {0.01, 0.1, 1.0};
        boxes.push_back(query::RandomRange(kPaperGrid, pct[i % 3], rng));
        break;
      }
      case Kind::kBeamOpen:
        boxes.push_back(
            query::RandomBeam(kPaperGrid, static_cast<uint32_t>(i % 3), rng)
                .ToBox(kPaperGrid));
        break;
      case Kind::kClusterFanout:
        boxes.push_back(query::RandomRange(kClusterGrid, 0.05, rng));
        break;
      case Kind::kSkewedCached:
        return bench::SkewedPoints(kSkewGrid, count, rng.Next());
    }
  }
  return boxes;
}

void Bench::Generate() {
  in_.boxes = Draw(spec_.queries, 1);
  in_.warm_boxes = Draw(spec_.warm_queries, 2);
  Rng rng(bench::SweepSeed(seed_, 3));
  in_.unit_arrivals_ms = UnitPoisson(in_.boxes.size(), rng);
  in_.warm_unit_arrivals_ms = UnitPoisson(in_.warm_boxes.size(), rng);
  in_.rate_qps = spec_.kind == Kind::kSkewedCached ? CalibrateSkewRate()
                                                   : spec_.rate_qps;
}

// 60% of the uncached closed-loop capacity, as bench/cache_tier does: the
// misses queue visibly without tipping the drive into overload.
double Bench::CalibrateSkewRate() {
  lvm::Volume vol(disk::MakeNearline7k2());
  map::NaiveMapping mapping(kSkewGrid, 0);
  query::Executor ex(&vol, &mapping);
  query::Session s(&vol, &ex);
  const auto probe = bench::SkewedPoints(kSkewGrid, kSkewProbeQueries,
                                         bench::SweepSeed(seed_, 5));
  const auto r = Must(s.Run(probe, query::ArrivalProcess::Closed(1)),
                      "skew calibration");
  return 0.6 * r.ThroughputQps();
}

// Builds volume, mapping, executor and pool, then runs the warm-up pass:
// what the caller times as set-up.
void Bench::Setup() {
  switch (spec_.kind) {
    case Kind::kRangeClosed:
    case Kind::kBeamOpen: {
      rig_.volume = std::make_unique<lvm::Volume>(disk::MakeAtlas10k3());
      const double t0 = HostNow();
      auto mm = Must(core::MultiMapMapping::Create(*rig_.volume, kPaperGrid),
                     "MultiMapMapping::Create");
      rig_.create_s = HostNow() - t0;
      rig_.multimap = mm.get();
      rig_.mapping = std::move(mm);
      rig_.executor = std::make_unique<query::Executor>(rig_.volume.get(),
                                                        rig_.mapping.get());
      break;
    }
    case Kind::kClusterFanout: {
      lvm::ClusterTopology topo;
      topo.shards = kClusterShards;
      topo.shard_disks = {disk::MakeAtlas10k3(), disk::MakeAtlas10k3()};
      topo.chunk_sectors = 1024;
      topo.replication.replicas = 2;
      rig_.cluster =
          Must(lvm::ClusterVolume::Create(topo), "ClusterVolume::Create");
      const double t0 = HostNow();
      rig_.mapping = std::make_unique<map::NaiveMapping>(kClusterGrid, 0,
                                                         kClusterCellSectors);
      rig_.create_s = HostNow() - t0;
      if (rig_.mapping->footprint_sectors() > rig_.cluster->data_sectors()) {
        Die("cluster grid does not fit the cluster");
      }
      rig_.executor = std::make_unique<query::Executor>(
          &rig_.cluster->logical(), rig_.mapping.get());
      rig_.threads =
          std::clamp<uint32_t>(std::thread::hardware_concurrency(), 1, 4);
      break;
    }
    case Kind::kSkewedCached: {
      rig_.volume = std::make_unique<lvm::Volume>(disk::MakeNearline7k2());
      const double t0 = HostNow();
      rig_.mapping = std::make_unique<map::NaiveMapping>(kSkewGrid, 0);
      rig_.create_s = HostNow() - t0;
      rig_.executor = std::make_unique<query::Executor>(rig_.volume.get(),
                                                        rig_.mapping.get());
      rig_.pool = std::make_unique<cache::BufferPool>(
          *rig_.mapping,
          cache::BufferPoolOptions{.capacity_cells = kSkewPoolCells,
                                   .policy = cache::PolicyKind::kLru});
      break;
    }
  }
  WarmUp();
}

// The warm-up pass: a short run of separate warm-up queries, so state the
// library builds lazily exists before anything is timed. On skewed_cached it
// fills the pool from empty, and is repeated before every repetition so each
// starts from the same residency.
void Bench::WarmUp() {
  if (rig_.pool != nullptr) rig_.pool->Clear();
  query::ClusterConfig c;
  c.seed = bench::SweepSeed(seed_, 6);
  c.cache = rig_.pool.get();
  // One worker: the shards' state is the same at any thread count, and
  // thread start-up would only add noise to the set-up time.
  c.threads = 1;
  c.arrivals = closed_loop() ? query::ArrivalProcess::Closed(1)
                             : query::ArrivalProcess::OpenTrace(Scaled(
                                   in_.warm_unit_arrivals_ms, in_.rate_qps));
  if (cluster()) {
    query::ClusterSession s(rig_.cluster.get(), rig_.executor.get(), c);
    Must(s.Run(in_.warm_boxes), "warm-up");
  } else {
    query::Session s(rig_.volume.get(), rig_.executor.get(), c);
    Must(s.Run(in_.warm_boxes, c.arrivals), "warm-up");
  }
}

query::ClusterConfig Bench::Config(const std::vector<double>& arrivals_ms,
                                   obs::TraceSink* sink) {
  query::ClusterConfig c;
  c.seed = bench::SweepSeed(seed_, 4);
  c.trace = sink;
  c.arrivals = closed_loop() ? query::ArrivalProcess::Closed(1)
                             : query::ArrivalProcess::OpenTrace(arrivals_ms);
  if (rig_.pool != nullptr) c.cache = rig_.pool.get();
  if (cluster()) {
    c.threads = rig_.threads;
    c.retry.max_attempts = 3;
    c.rebuild.enabled = true;
    // Shard 0's first member, which holds the shard's primary copies,
    // dies once half the queries have arrived.
    disk::FaultModel fm;
    fm.fail_at_ms = arrivals_ms[arrivals_ms.size() / 2];
    rig_.cluster->shard(0).disk(0).SetFaultModel(fm);
  }
  return c;
}

void Bench::Collect(const query::ClusterSession& session, RunOut* out) const {
  out->parallel_s = session.wall_seconds();
  out->events = session.events();
  out->completions = session.Completions();
  for (uint32_t s = 0; s < session.shard_count(); ++s) {
    const lvm::RebuildStats& rs = session.shard_rebuild_stats(s);
    out->rebuild.chunks_done += rs.chunks_done;
    out->rebuild.chunks_total += rs.chunks_total;
    if (rs.Started() && (!out->rebuild.Started() ||
                         rs.started_ms < out->rebuild.started_ms)) {
      out->rebuild.started_ms = rs.started_ms;
    }
    out->rebuild.finished_ms =
        std::max(out->rebuild.finished_ms, rs.finished_ms);
    out->shard_parts.push_back(session.shard_stats(s).count());
  }
}

void Bench::CollectDisks(RunOut* out) const {
  auto add = [out](const disk::DiskStats& s) {
    out->disk.requests += s.requests;
    out->disk.phases += s.phases;
    out->disk.buffer_hits += s.buffer_hits;
    out->disk.order_holds += s.order_holds;
    out->disk.max_queue_ms = std::max(out->disk.max_queue_ms, s.max_queue_ms);
    ++out->disks;
  };
  if (cluster()) {
    for (uint32_t s = 0; s < rig_.cluster->shard_count(); ++s) {
      const lvm::Volume& v = rig_.cluster->shard(s);
      for (uint32_t k = 0; k < v.disk_count(); ++k) add(v.disk(k).stats());
    }
  } else {
    for (uint32_t k = 0; k < rig_.volume->disk_count(); ++k) {
      add(rig_.volume->disk(k).stats());
    }
  }
}

RunOut Bench::RunAt(double rate, std::span<const map::Box> boxes,
                    std::span<const double> unit_arrivals,
                    obs::TraceSink* sink) {
  RunOut out;
  std::vector<double> arrivals(unit_arrivals.size());
  for (size_t i = 0; i < arrivals.size(); ++i) {
    arrivals[i] = unit_arrivals[i] / rate;
  }
  const query::ClusterConfig config = Config(arrivals, sink);
  if (cluster()) {
    query::ClusterSession session(rig_.cluster.get(), rig_.executor.get(),
                                  config);
    const double c0 = CpuNow();
    const double t0 = HostNow();
    auto r = session.Run(boxes);
    out.wall_s = HostNow() - t0;
    out.cpu_s = CpuNow() - c0;
    out.stats = Must(std::move(r), "ClusterSession::Run");
    Collect(session, &out);
  } else {
    if (rig_.pool != nullptr) WarmUp();
    const cache::BufferPoolStats before =
        rig_.pool != nullptr ? rig_.pool->stats() : cache::BufferPoolStats{};
    query::Session session(rig_.volume.get(), rig_.executor.get(), config);
    const double c0 = CpuNow();
    const double t0 = HostNow();
    auto r = session.Run(boxes, config.arrivals);
    out.wall_s = HostNow() - t0;
    out.cpu_s = CpuNow() - c0;
    out.stats = Must(std::move(r), "Session::Run");
    out.parallel_s = out.wall_s;
    out.events = session.last_events();
    out.completions = session.Completions();
    out.rebuild = session.rebuild_stats();
    if (rig_.pool != nullptr) {
      const cache::BufferPoolStats& a = rig_.pool->stats();
      out.pool_delta.hits = a.hits - before.hits;
      out.pool_delta.misses = a.misses - before.misses;
      out.pool_delta.evictions = a.evictions - before.evictions;
    }
  }
  CollectDisks(&out);
  out.digest = Digest(out.completions);
  return out;
}

RunOut Bench::RunTraced(SpanLog* log) {
  RunOut out;
  // Sample every 16th query: the sink stays bounded on the longest
  // workloads while every layer still records events.
  obs::TraceSink sink(obs::TraceOptions{.capacity = size_t{1} << 18,
                                        .sample_period = 16});
  std::vector<double> arrivals(n());
  for (size_t q = 0; q < n(); ++q) {
    arrivals[q] = in_.unit_arrivals_ms[q] / in_.rate_qps;
  }
  const query::ClusterConfig config = Config(arrivals, &sink);
  if (rig_.pool != nullptr) WarmUp();
  const cache::BufferPoolStats before =
      rig_.pool != nullptr ? rig_.pool->stats() : cache::BufferPoolStats{};
  std::vector<query::PlannedQuery> planned;

  const int rep = log->Begin("rep", -1);
  if (cluster()) {
    query::ClusterSession session(rig_.cluster.get(), rig_.executor.get(),
                                  config);
    const int s = log->Begin("cluster_session.run", rep);
    out.stats = Must(session.Run(boxes()), "ClusterSession::Run");
    out.session_s = log->End(s);
    Collect(session, &out);
  } else {
    query::Session session(rig_.volume.get(), rig_.executor.get(), config);
    if (closed_loop()) {
      // Closed-loop arrivals depend on completions, so the session plans
      // each query itself at its arrival.
      const int s = log->Begin("session.run", rep);
      out.stats = Must(session.Run(boxes(), config.arrivals),
                       "Session::Run");
      out.session_s = log->End(s);
    } else {
      const int p = log->Begin("executor.plan_batch", rep);
      query::BatchPlan batch;
      rig_.executor->PlanBatch(boxes(), &batch);
      out.plan_s = log->End(p);
      planned.resize(n());
      for (size_t q = 0; q < n(); ++q) {
        planned[q].id = q;
        planned[q].arrival_ms = arrivals[q];
        planned[q].requests.assign(
            batch.requests.begin() + static_cast<ptrdiff_t>(batch.offsets[q]),
            batch.requests.begin() +
                static_cast<ptrdiff_t>(batch.offsets[q + 1]));
      }
      const int s = log->Begin("session.run_planned", rep);
      out.stats = Must(session.RunPlanned(planned), "Session::RunPlanned");
      out.session_s = log->End(s);
    }
    out.parallel_s = out.session_s;
    out.events = session.last_events();
    out.completions = session.Completions();
    out.rebuild = session.rebuild_stats();
  }
  const int e = log->Begin("obs.export", rep);
  const std::string json = obs::ToChromeTraceJson(sink);
  out.export_s = log->End(e);
  out.wall_s = log->End(rep);
  if (json.empty()) Die("empty trace export");
  out.trace_events = sink.size();
  out.trace_dropped = sink.dropped();
  if (rig_.pool != nullptr) {
    const cache::BufferPoolStats& a = rig_.pool->stats();
    out.pool_delta.hits = a.hits - before.hits;
    out.pool_delta.misses = a.misses - before.misses;
    out.pool_delta.evictions = a.evictions - before.evictions;
  }
  CollectDisks(&out);
  out.digest = Digest(out.completions);
  return out;
}

double Bench::CapacityQps(const RunOut& full) {
  if (closed_loop()) return full.stats.ThroughputQps();
  const size_t m = std::min(spec_.ladder_queries, full_n());
  const std::span<const map::Box> boxes(in_.boxes.data(), m);
  const std::span<const double> unit(in_.unit_arrivals_ms.data(), m);
  double pass_rate = 0, pass_p99 = 0;
  for (double mult : kLadder) {
    const double rate = in_.rate_qps * mult;
    const RunOut r = RunAt(rate, boxes, unit, nullptr);
    // Backlog: the latest tenth of arrivals waits longer, on average, than
    // the limit the p99 must meet.
    std::vector<double> latency(m, -1);
    for (const query::QueryCompletion& c : r.completions) {
      if (!c.failed) latency[c.query] = c.LatencyMs();
    }
    double tail_sum = 0;
    size_t tail_n = 0;
    for (size_t q = m - m / 10; q < m; ++q) {
      if (latency[q] >= 0) {
        tail_sum += latency[q];
        ++tail_n;
      }
    }
    const double p99 = r.stats.miss.Percentile(99);
    const bool ok = r.stats.failed == 0 && p99 <= spec_.p99_limit_ms &&
                    Ratio(tail_sum, static_cast<double>(tail_n)) <=
                        spec_.p99_limit_ms;
    std::fprintf(stderr, "mmbench: ladder %.3f qps: p99 %.2f ms, %s\n", rate,
                 p99, ok ? "within limit" : "over limit");
    if (!ok) {
      // The limit lies between the last passing rung and this one:
      // interpolate the p99-vs-rate curve linearly to where it meets it.
      if (pass_rate == 0 || p99 <= pass_p99 || p99 <= spec_.p99_limit_ms) {
        return pass_rate;
      }
      return pass_rate + (rate - pass_rate) *
                             (spec_.p99_limit_ms - pass_p99) /
                             (p99 - pass_p99);
    }
    pass_rate = rate;
    pass_p99 = p99;
  }
  return pass_rate;
}

PlanProbe Bench::Plan() {
  PlanProbe p;
  const uint64_t hits0 = rig_.executor->plan_cache_stats().hits;
  const double t0 = HostNow();
  rig_.executor->PlanBatch(boxes(), &p.batch);
  p.host_s = HostNow() - t0;
  p.template_hits = rig_.executor->plan_cache_stats().hits - hits0;
  p.requests = p.batch.requests.size();
  for (const disk::IoRequest& r : p.batch.requests) p.sectors += r.sectors;
  for (uint64_t c : p.batch.cells) p.cells += c;
  return p;
}

double Bench::Route(const query::BatchPlan& batch, uint64_t* pieces) {
  std::vector<lvm::ShardRequest> out;
  out.reserve(64);
  *pieces = 0;
  const double t0 = HostNow();
  for (const disk::IoRequest& r : batch.requests) {
    out.clear();
    const Status st = rig_.cluster->Route(r, &out);
    if (!st.ok()) Die("ClusterVolume::Route: " + st.ToString());
    *pieces += out.size();
  }
  return HostNow() - t0;
}

double Bench::DiskReplay(const query::BatchPlan& batch, uint64_t* requests) {
  // Per query, the requests that land on member disk 0 (of shard 0 for the
  // cluster), in disk-local LBNs, with the session's per-query order group.
  std::vector<std::vector<disk::IoRequest>> stream(n());
  const disk::DiskSpec spec =
      cluster() ? rig_.cluster->shard(0).disk(0).spec()
                : rig_.volume->disk(0).spec();
  std::vector<lvm::ShardRequest> pieces;
  for (size_t q = 0; q < n(); ++q) {
    for (size_t i = batch.offsets[q]; i < batch.offsets[q + 1]; ++i) {
      disk::IoRequest r = batch.requests[i];
      r.order_group = q + 1;
      pieces.clear();
      if (cluster()) {
        if (!rig_.cluster->Route(r, &pieces).ok()) Die("Route");
      } else {
        pieces.push_back({0, r});
      }
      for (const lvm::ShardRequest& piece : pieces) {
        if (piece.shard != 0) continue;
        const lvm::Volume& vol =
            cluster() ? rig_.cluster->shard(0) : *rig_.volume;
        const auto loc = Must(vol.Resolve(piece.req.lbn), "Volume::Resolve");
        if (loc.disk != 0) continue;
        disk::IoRequest local = piece.req;
        local.lbn = loc.lbn;
        stream[q].push_back(local);
      }
    }
  }
  disk::Disk d(spec);
  d.ConfigureQueue(disk::BatchOptions{disk::SchedulerKind::kElevator, 4, true});
  const std::vector<double> arrivals =
      Scaled(in_.unit_arrivals_ms, closed_loop() ? 1.0 : in_.rate_qps);
  *requests = 0;
  const double t0 = HostNow();
  for (size_t q = 0; q < n(); ++q) {
    double at = 0;
    if (closed_loop()) {
      while (!d.QueueIdle()) Must(d.ServiceNextQueued(), "ServiceNextQueued");
      at = d.now_ms();
    } else {
      at = arrivals[q];
      while (!d.QueueIdle() && d.NextServiceTime() < at) {
        Must(d.ServiceNextQueued(), "ServiceNextQueued");
      }
    }
    for (const disk::IoRequest& r : stream[q]) d.Submit(r, at);
    *requests += stream[q].size();
  }
  while (!d.QueueIdle()) Must(d.ServiceNextQueued(), "ServiceNextQueued");
  return HostNow() - t0;
}

double Bench::ModelResidualPct(const RunOut& measured) {
  if (rig_.multimap == nullptr) return -1;
  const model::CostModel model(rig_.volume->disk(0).spec());
  const size_t m = std::min<size_t>(n(), 300);
  std::vector<double> service(n(), -1);
  for (const query::QueryCompletion& c : measured.completions) {
    if (!c.failed) service[c.query] = c.ServiceMs();
  }
  double pred = 0, sim = 0;
  for (size_t q = 0; q < m; ++q) {
    if (service[q] < 0) continue;
    const map::Box& b = in_.boxes[q];
    const core::BasicCube& cube = rig_.multimap->cube();
    if (closed_loop()) {
      pred += model.MultiMapRangeTotalMs(kPaperGrid, cube, b);
    } else {
      const uint32_t dim = static_cast<uint32_t>(q % 3);
      pred += model.MultiMapBeamPerCellMs(kPaperGrid, cube, dim) *
              (b.hi[dim] - b.lo[dim]);
    }
    sim += service[q];
  }
  return std::fabs(pred - sim) / sim * 100.0;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// The two modes.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::string break_check;
};

// True when another repetition, as long as the last one, ends by t_end:
// the run then measures for about its stated time, without overshooting by
// up to a whole repetition.
bool Fits(const Reps& reps, double t_end) {
  return HostNow() + reps.wall_s.back() <= t_end;
}

// Every query of `run` either completes or is counted as failed, once.
void CheckAccounting(const RunOut& run, size_t n, Report* report) {
  std::vector<uint8_t> seen(n, 0);
  bool ids_ok = true;
  for (const query::QueryCompletion& c : run.completions) {
    if (c.query >= n || seen[c.query]++ != 0) ids_ok = false;
  }
  uint64_t accounted = run.stats.count() + run.stats.failed;
  if (report->Breaks("accounting")) --accounted;
  report->Expect("accounting",
                 ids_ok && run.completions.size() == n && accounted == n,
                 std::to_string(accounted) + " completed+failed of " +
                     std::to_string(n) + " queries");
}

// Repetitions of the same inputs all produce the same simulated results.
void CheckRepeats(const Reps& reps, Report* report) {
  bool same = true;
  for (size_t i = 1; i < reps.size(); ++i) {
    uint64_t d = reps.digests[i];
    if (report->Breaks("repeat_digest")) d ^= 1;
    same = same && d == reps.first.digest;
  }
  report->Expect("repeat_digest", same,
                 std::to_string(reps.size()) + " repetitions, digest " +
                     Hex(reps.first.digest));
}

// A fixed amount of CPU work that does not touch the library: a walk
// through a 256 KB random cycle and a sort of 16384 doubles, both in the
// core's own caches. On a shared machine the simulator's CPU time per
// query swings by up to 2x over periods of about a minute, when other
// tenants slow the core itself. This work's CPU time follows those swings
// (over 28 beam_open runs, the walk's and the sort's log-log correlations
// with the repetitions' were 0.84 and 0.95), so host timings are divided
// by how much slower than kReferenceSeconds it currently runs: that cut the
// spread of host_qps over 10 seeds from 11-26% to 3-8%.
class Reference {
 public:
  Reference() : cycle_(kSlots), keys_(kKeys) {
    for (uint32_t i = 0; i < kSlots; ++i) cycle_[i] = i;
    Rng rng(kSeed);
    // Sattolo's shuffle: a single cycle through every slot.
    for (uint32_t i = kSlots - 1; i > 0; --i) {
      std::swap(cycle_[i], cycle_[rng.Uniform(i)]);
    }
  }

  // Does the work once; returns its CPU seconds.
  double Time() {
    const double c0 = CpuNow();
    uint32_t at = 0;
    for (uint32_t i = 0; i < kSteps; ++i) at = cycle_[at];
    Rng rng(kSeed + at);
    for (double& k : keys_) k = rng.NextDouble();
    std::sort(keys_.begin(), keys_.end());
    const double t = CpuNow() - c0;
    // Keeps the work observable, so the compiler cannot drop it.
    checksum_ += at + keys_[kKeys / 2];
    return t;
  }
  double checksum() const { return checksum_; }

 private:
  static constexpr uint32_t kSlots = 1u << 16;
  static constexpr uint32_t kSteps = 1u << 17;
  static constexpr size_t kKeys = 1u << 14;
  static constexpr uint64_t kSeed = 0x5eed;
  std::vector<uint32_t> cycle_;
  std::vector<double> keys_;
  double checksum_ = 0;
};

// About the reference work's fastest CPU time on the shared 4-core VM
// (Intel Xeon, 2.1 GHz) the benchmark was tuned on: host timings are
// reported as if taken on that machine in its fast periods.
constexpr double kReferenceSeconds = 0.0018;

// Keeps freed memory in the heap instead of returning it to the kernel:
// otherwise every repetition faults its memory in afresh, and the kernel's
// page zeroing, slowed by other tenants' memory traffic, becomes a fifth of
// the timed work.
void KeepFreedMemory() {
  mallopt(M_MMAP_THRESHOLD, 1 << 30);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
}

int RunUntraced(Bench& b, const Args& args, Report* report) {
  // Repetitions of the workload, each preceded by fresh set-ups for about
  // a tenth of its time, so set-up and run are sampled in the same
  // machine conditions. Host timings are CPU time, summed over threads,
  // and report the fastest attempt: on a shared machine other tenants only
  // ever add time, by taking the cores (which CPU time does not count) or
  // their caches (which it does, in slow periods lasting seconds), so the
  // minimum over many short attempts is the steadiest estimate of the work.
  // The reference work runs before each repetition, and the fastest
  // attempts are scaled by its fastest one (see Reference).
  //
  // The whole workload runs first, with the allocator's default settings,
  // and peak memory is read right after it: the peak is then the
  // library's, not that of the heap the repetitions keep.
  b.Setup();
  const RunOut full = b.RunFull();
  const double peak_rss_mb = PeakRssMb();
  CheckAccounting(full, b.full_n(), report);
  KeepFreedMemory();

  std::vector<double> setup, create, ref;
  Reference reference;
  Reps reps;
  const double t_end = HostNow() + args.seconds;
  while (reps.size() < 3 || Fits(reps, t_end)) {
    const double setup_end =
        HostNow() + 0.1 * (reps.size() > 0 ? reps.wall_s.back() : 0.0);
    do {
      b.Teardown();
      const double c0 = CpuNow();
      b.Setup();
      setup.push_back(CpuNow() - c0);
      create.push_back(b.rig().create_s);
    } while (HostNow() < setup_end);
    ref.push_back(reference.Time());
    reps.Add(b.Run());
  }
  CheckRepeats(reps, report);
  const RunOut& first = reps.first;

  if (b.cluster()) {
    uint64_t d = b.RunOneThread().digest;
    if (report->Breaks("thread_digest")) d ^= 1;
    report->Expect("thread_digest", d == first.digest,
                   "1-thread digest " + Hex(d) + " vs " +
                       std::to_string(b.rig().threads) + "-thread " +
                       Hex(first.digest));
  }
  if (b.spec().kind == Kind::kSkewedCached) {
    uint64_t planned = b.Plan().sectors;
    if (report->Breaks("sector_conservation")) ++planned;
    const uint64_t served =
        first.stats.resident_sectors + first.stats.submitted_sectors;
    report->Expect("sector_conservation", served == planned,
                   std::to_string(first.stats.resident_sectors) +
                       " resident + " +
                       std::to_string(first.stats.submitted_sectors) +
                       " submitted vs " + std::to_string(planned) +
                       " planned sectors");
  }

  const query::LatencyStats& st = full.stats;
  // Latency of the queries that reached the volume: on skewed_cached most
  // queries complete at arrival from the pool with zero latency.
  const uint64_t n_miss = st.miss.count();
  report->Add("sim_p50_ms", st.miss.Percentile(50), "ms", n_miss);
  report->Add("sim_p99_ms", st.miss.Percentile(99), "ms", n_miss);
  report->Add("sim_capacity_qps", b.CapacityQps(full), "qps");
  // How much slower than on the reference machine this one runs now.
  const double slowdown = Min(ref) / kReferenceSeconds;
  report->Add("host_qps",
              static_cast<double>(b.n()) * slowdown / Min(reps.cpu_s), "qps");
  report->Add("setup_s", Min(setup) / slowdown, "s");
  report->Add("peak_rss_mb", peak_rss_mb, "MB");
  report->Add("completed_ratio",
              Ratio(static_cast<double>(st.count()),
                    static_cast<double>(b.full_n())),
              "ratio");
  const map::Mapping& mapping = *b.rig().mapping;
  report->Add("space_amp",
              Ratio(static_cast<double>(mapping.footprint_sectors()),
                    static_cast<double>(mapping.shape().CellCount() *
                                        mapping.cell_sectors())),
              "ratio");
  std::fprintf(stderr,
               "mmbench: %s seed %llu: %zu reps of %zu queries, host "
               "wall s min %.4f median %.4f, cpu s min %.4f median %.4f; %zu "
               "set-ups, cpu s min %.6f median %.6f (mapping %.6f); "
               "reference cpu s min %.6f median %.6f (checksum %g)\n",
               b.spec().name, static_cast<unsigned long long>(args.seed),
               reps.size(), b.n(), Min(reps.wall_s), Median(reps.wall_s),
               Min(reps.cpu_s), Median(reps.cpu_s), setup.size(), Min(setup),
               Median(setup), Median(create), Min(ref), Median(ref),
               reference.checksum());
  report->Print(b.spec().name, b.n() * reps.size() + b.full_n(),
                reps.failed + full.stats.failed);
  return 0;
}

int RunTracedMode(Bench& b, const Args& args, Report* report) {
  KeepFreedMemory();
  std::vector<double> create;
  for (int i = 0; i < 3; ++i) {
    b.Teardown();
    b.Setup();
    create.push_back(b.rig().create_s);
  }
  // First half: untraced repetitions, the overhead baseline.
  Reps plain;
  const double half = args.seconds / 2;
  double t_end = HostNow() + half;
  while (plain.size() < 2 || Fits(plain, t_end)) plain.Add(b.Run());
  // Second half: traced repetitions, each decomposed into layer spans.
  SpanLog log;
  Reps traced;
  t_end = HostNow() + half;
  while (traced.size() < 2 || Fits(traced, t_end)) {
    traced.Add(b.RunTraced(&log));
  }
  CheckAccounting(plain.first, b.n(), report);
  CheckRepeats(plain, report);
  uint64_t td = traced.first.digest;
  if (report->Breaks("trace_digest")) td ^= 1;
  report->Expect("trace_digest", td == plain.first.digest,
                 "traced digest " + Hex(td) + " vs untraced " +
                     Hex(plain.first.digest));

  // Layer probes: each calls one layer on the whole workload.
  const int probes = log.Begin("probes", -1);
  std::vector<double> plan_s;
  PlanProbe plan;
  for (int i = 0; i < 3; ++i) {
    const int s = log.Begin("executor.plan_batch", probes);
    plan = b.Plan();
    log.End(s);
    plan_s.push_back(plan.host_s);
  }
  uint64_t pieces = 0;
  double route_s = 0;
  if (b.cluster()) {
    const int s = log.Begin("cluster_volume.route", probes);
    route_s = b.Route(plan.batch, &pieces);
    log.End(s);
  }
  uint64_t replayed = 0;
  const int d = log.Begin("disk.replay", probes);
  const double replay_s = b.DiskReplay(plan.batch, &replayed);
  log.End(d);
  const int m = log.Begin("model.cost_model", probes);
  const double residual = b.ModelResidualPct(plain.first);
  log.End(m);
  log.End(probes);

  const double nq = static_cast<double>(b.n());
  const RunOut& first = plain.first;
  const query::LatencyStats& st = first.stats;
  const disk::DiskStats& ds = first.disk;
  const double disks = first.disks;
  const double plain_wall = Median(plain.wall_s);
  const double plain_parallel = Median(plain.parallel_s);
  const double traced_wall = Median(traced.wall_s);

  const map::Mapping& mapping = *b.rig().mapping;
  const double disk_ns = Ratio(replay_s * 1e9, static_cast<double>(replayed));
  // Host seconds of the simulation call itself: the session or the
  // cluster's worker section. Session::Run plans inline on the closed
  // loop, so that workload's planning time is taken out.
  const double session_s =
      b.cluster() ? plain_parallel
                  : (b.closed_loop()
                         ? Median(traced.session_s) - Median(plan_s)
                         : Median(traced.session_s));
  const double threads = static_cast<double>(b.rig().threads);
  const double events = static_cast<double>(first.events);

  report->Add("core.create_s", Median(create), "s");
  report->Add("mapping.footprint_sectors",
              static_cast<double>(mapping.footprint_sectors()), "sectors");
  report->Add("plan.host_s", Median(plan_s), "s");
  report->Add("plan.ns_per_query", Median(plan_s) * 1e9 / nq, "ns");
  report->Add("plan.requests_per_query",
              static_cast<double>(plan.requests) / nq, "count");
  report->Add("plan.useful_sector_ratio",
              Ratio(static_cast<double>(plan.cells * mapping.cell_sectors()),
                    static_cast<double>(plan.sectors)),
              "ratio");
  report->Add("plan.template_hit_ratio",
              static_cast<double>(plan.template_hits) / nq, "ratio");
  report->Add("route.host_s", route_s, "s");
  report->Add("route.pieces_per_request",
              Ratio(static_cast<double>(pieces),
                    static_cast<double>(plan.requests)),
              "count");
  report->Add("session.host_s", session_s, "s");
  report->Add("session.events", events, "count");
  report->Add("session.events_per_query", events / nq, "count");
  report->Add("session.ns_per_event", Ratio(session_s * 1e9, events), "ns");
  report->Add("session.bookkeeping_host_s",
              session_s - disk_ns * 1e-9 *
                              static_cast<double>(ds.requests) / threads,
              "s");
  report->Add("disk.host_ns_per_request", disk_ns, "ns");
  report->Add("disk.requests", static_cast<double>(ds.requests) / nq,
              "count");
  report->Add("disk.seek_ms", ds.phases.seek_ms / nq, "ms");
  report->Add("disk.rot_ms", ds.phases.rot_ms / nq, "ms");
  report->Add("disk.xfer_ms", ds.phases.xfer_ms / nq, "ms");
  report->Add("disk.overhead_ms", ds.phases.overhead_ms / nq, "ms");
  report->Add("disk.buffer_hit_ratio",
              Ratio(static_cast<double>(ds.buffer_hits),
                    static_cast<double>(ds.requests)),
              "ratio");
  report->Add("disk.utilization",
              Ratio(ds.phases.Total(), disks * st.makespan_ms), "ratio");
  report->Add("disk.max_queue_ms", ds.max_queue_ms, "ms");
  report->Add("disk.order_holds", static_cast<double>(ds.order_holds),
              "count");
  report->Add("query.queue_ms_mean", st.queueing.Mean(), "ms");
  report->Add("query.service_ms_mean", st.service.Mean(), "ms");

  const double serial_s = b.cluster() ? plain_wall - plain_parallel : 0.0;
  report->Add("cluster.serial_s", serial_s, "s");
  report->Add("cluster.parallel_s", b.cluster() ? plain_parallel : 0.0, "s");
  report->Add("cluster.serial_fraction", Ratio(serial_s, plain_wall),
              "ratio");
  uint64_t parts = 0, max_parts = 0;
  for (uint64_t p : first.shard_parts) {
    parts += p;
    max_parts = std::max(max_parts, p);
  }
  report->Add("cluster.parts_per_query",
              b.cluster() ? static_cast<double>(parts) / nq : 1.0, "count");
  report->Add("cluster.shard_part_imbalance",
              b.cluster()
                  ? Ratio(static_cast<double>(max_parts) *
                              static_cast<double>(first.shard_parts.size()),
                          static_cast<double>(parts))
                  : 1.0,
              "ratio");

  report->Add("fault.degraded_ratio",
              static_cast<double>(st.degraded.count()) / nq, "ratio");
  report->Add("fault.redirects_per_query",
              static_cast<double>(st.redirects) / nq, "count");
  report->Add("fault.retries_per_query", static_cast<double>(st.retries) / nq,
              "count");
  report->Add("rebuild.chunks",
              static_cast<double>(first.rebuild.chunks_done), "count");
  report->Add("rebuild.duration_ms",
              first.rebuild.Finished() && first.rebuild.Started()
                  ? first.rebuild.finished_ms - first.rebuild.started_ms
                  : 0.0,
              "ms");

  const cache::BufferPoolStats& pd = first.pool_delta;
  report->Add("cache.hit_ratio",
              Ratio(static_cast<double>(pd.hits),
                    static_cast<double>(pd.hits + pd.misses)),
              "ratio");
  report->Add("cache.hit_query_ratio",
              static_cast<double>(st.hit.count()) / nq, "ratio");
  report->Add("cache.evictions_per_query",
              static_cast<double>(pd.evictions) / nq, "count");
  report->Add("cache.resident_sector_ratio",
              Ratio(static_cast<double>(st.resident_sectors),
                    static_cast<double>(st.resident_sectors +
                                        st.submitted_sectors)),
              "ratio");

  report->Add("obs.trace_overhead_ratio", traced_wall / plain_wall - 1.0,
              "ratio");
  report->Add("obs.export_s", Median(traced.export_s), "s");
  report->Add("obs.trace_events",
              static_cast<double>(traced.first.trace_events), "count");
  report->Add("obs.trace_dropped",
              static_cast<double>(traced.first.trace_dropped), "count");
  report->Add("model.residual_pct", residual < 0 ? 0.0 : residual, "%");
  report->Add("layers.remainder_ratio", Median(traced.remainder), "ratio");

  if (!args.trace_out.empty() && !log.Write(args.trace_out)) {
    Die("cannot write " + args.trace_out);
  }
  std::fprintf(stderr,
               "mmbench: %s seed %llu: %zu untraced + %zu traced reps, "
               "host wall %.4f s untraced vs %.4f s traced\n",
               b.spec().name, static_cast<unsigned long long>(args.seed),
               plain.size(), traced.size(), plain_wall, traced_wall);
  report->Print(b.spec().name, b.n() * plain.size(), plain.failed);
  return 0;
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) Die("missing value for " + key);
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0') Die("bad --seed " + val);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0)) Die("bad --seconds " + val);
    } else if (key == "--trace") {
      if (val != "0" && val != "1") Die("bad --trace " + val);
      a.trace = val == "1";
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else if (key == "--break-check") {
      a.break_check = val;
    } else {
      Die("unknown argument " + key);
    }
  }
  return a;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) spec = &w;
  }
  if (spec == nullptr) Die("unknown --workload " + args.workload);
  Bench b(*spec, args.seed);
  b.Generate();
  Report report(args.break_check);
  return args.trace ? RunTracedMode(b, args, &report)
                    : RunUntraced(b, args, &report);
}

}  // namespace
}  // namespace mm::perfbench

int main(int argc, char** argv) { return mm::perfbench::Main(argc, argv); }
