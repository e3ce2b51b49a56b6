// The HGS benchmark. One process runs one seeded workload against an index
// built in-process over the simulated cluster, checks every answer against
// the replay oracle outside the timed region, and prints one JSON result as
// the last line of standard output. See ../README.md for the workloads, the
// metrics and how they map onto the layers.
//
//   hgs_bench --workload <snapshot_warm|history_cold|live_append> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "check.h"
#include "common/compression.h"
#include "delta/delta.h"
#include "delta/eventlist.h"
#include "graph/algorithms.h"
#include "kvstore/cluster.h"
#include "oracle.h"
#include "stream.h"
#include "taf/context.h"
#include "tgi/layout.h"
#include "tgi/tgi.h"
#include "trace.h"

namespace hgsb {
namespace {

using Clock = std::chrono::steady_clock;

// Taken during static initialization, before main: set-up time counts from
// the start of the process.
const Clock::time_point kProcessStart = Clock::now();

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// -- Fixed configuration ------------------------------------------------------

// Threads: 2 storage nodes x 2 server threads, 2 fetch clients, 2 ingest
// workers, 2 TAF workers and at most 2 client threads. Server threads spend
// most of their time in the simulated wait, so busy threads stay near 4.
constexpr size_t kStorageNodes = 2;
constexpr size_t kServerThreadsPerNode = 2;
constexpr size_t kFetchParallelism = 2;
constexpr size_t kIngestThreads = 2;
constexpr size_t kTafWorkers = 2;

/// The one latency model of every workload: the paper's I/O-bound regime
/// (600 us per request, 8 us per key, 60 MB/s), writes charged like reads,
/// sleep-only waits.
hgs::LatencyModel LatencyModel() {
  hgs::LatencyModel m;
  m.enabled = true;
  m.seek_micros = 600;
  m.per_key_micros = 8;
  m.bytes_per_micro = 60.0;
  m.charge_writes = true;
  m.precise_wait = false;
  return m;
}

struct WorkloadSpec {
  StreamSpec stream;
  size_t read_cache_bytes;
  size_t decoded_cache_bytes;
};

// snapshot_warm: both tiers hold the whole working set.
constexpr WorkloadSpec kSnapshotWarm{{16'000, 8'000}, 256u << 20, 256u << 20};
constexpr size_t kSnapshotPoints = 8;
constexpr size_t kEvolutionMembers = 400;
constexpr size_t kEvolutionPoints = 8;

// history_cold: budgets far below the stored bytes, so re-use is rare.
constexpr WorkloadSpec kHistoryCold{{40'000, 20'000}, 192u << 10, 192u << 10};
constexpr size_t kHistoryBatch = 16;
constexpr size_t kTafBatch = 16;
constexpr int kKhopDepth = 2;
constexpr int64_t kHistoryWindowDiv = 6;  // window = history span / 6
constexpr int64_t kRangeWindowDiv = 60;   // window = history span / 60

// live_append: each cycle builds the prefix afresh and the writer appends
// the same tail, so every cycle does the same work; cycles repeat until
// --seconds of appends have been measured.
constexpr WorkloadSpec kLiveAppend{{26'666, 13'334}, 64u << 20, 64u << 20};
constexpr uint64_t kLivePrefixEvents = 16'000;
constexpr size_t kLiveBatchEvents = 400;
constexpr size_t kLivePoints = 4;
constexpr size_t kLiveHistoryBatch = 8;

hgs::TGIOptions IndexOptions(const WorkloadSpec& w) {
  hgs::TGIOptions o;
  o.events_per_timespan = 8'000;
  o.eventlist_size = 250;
  o.micro_delta_size = 500;
  o.num_horizontal_partitions = 4;
  o.read_cache_bytes = w.read_cache_bytes;
  o.decoded_cache_bytes = w.decoded_cache_bytes;
  o.ingest_threads = kIngestThreads;
  o.row_compression = hgs::CompressionKind::kColumnar;
  o.eventlist_compression = hgs::CompressionKind::kColumnar;
  o.versions_compression = hgs::CompressionKind::kColumnar;
  return o;
}

hgs::ClusterOptions ClusterOptions() {
  hgs::ClusterOptions o;
  o.num_nodes = kStorageNodes;
  o.replication = 1;
  o.server_threads_per_node = kServerThreadsPerNode;
  o.latency = LatencyModel();
  return o;
}

// -- Operations ---------------------------------------------------------------

enum Kind : int {
  kSnapshot,
  kMultipoint,
  kEvolution,
  kHistory,
  kKhop,
  kRangeScan,
  kTafFetch,
  kAppend,
  kNumKinds
};
constexpr const char* kKindNames[kNumKinds] = {
    "snapshot", "multipoint", "evolution", "history",
    "khop",     "range_scan", "taf_fetch", "append"};
constexpr const char* kRootSpan[kNumKinds] = {
    "op.snapshot", "op.multipoint", "op.evolution", "op.history",
    "op.khop",     "op.range_scan", "op.taf_fetch", "op.append"};

struct KindStats {
  std::vector<double> ms;
  hgs::FetchStats fetch;
};

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out_dir;
};

class Bench {
 public:
  explicit Bench(Args args) : args_(std::move(args)), tracer_(args_.trace) {}

  int Run();

 private:
  // Set-up shared by every workload: the stream, the index over its first
  // `indexed` events, the query manager.
  bool BuildIndex(const WorkloadSpec& w, size_t indexed);
  /// Brackets a measured phase; the layer counters of each phase are summed.
  void BeginMeasure();
  void EndMeasure();

  void RunSnapshotWarm();
  void RunHistoryCold();
  void RunLiveAppend();

  // One timed operation each; the check follows the timed region.
  void SnapshotOp(int64_t t, const CanonGraph& want);
  void MultipointOp(const std::vector<int64_t>& times,
                    const std::vector<const CanonGraph*>& want);
  void EvolutionOp(const hgs::taf::SoN& son,
                   const std::vector<uint64_t>& members);
  void HistoryOp(const std::vector<uint64_t>& nodes, int64_t from,
                 int64_t to);
  void KhopOp(uint64_t node, int64_t t);
  void RangeScanOp(int64_t from, int64_t to);
  void TafOp(const hgs::taf::TAFContext& ctx,
             const std::vector<uint64_t>& nodes, int64_t from, int64_t to);
  /// Returns whether the batch was appended.
  bool AppendOp(size_t begin, size_t end);

  void Record(Kind kind, double ms, const hgs::FetchStats& fs);
  void Failed(Kind kind, const hgs::Status& status);
  void Verify(const std::string& diff, const char* what);
  /// Closes a client round that began when the read totals were (ms0, ops0).
  void EndRound(double ms0, uint64_t ops0);
  /// Numbers an operation; the count of numbers drawn is `attempted`.
  uint64_t NextOp() { return next_op_.fetch_add(1); }

  /// Traced runs: codec speed and ratio over the index's stored rows.
  void MeasureCodec();
  void Report();

  Args args_;
  Tracer tracer_;
  std::vector<Ev> stream_;
  std::unique_ptr<Oracle> oracle_;
  std::unique_ptr<hgs::Cluster> cluster_;
  std::unique_ptr<hgs::TGI> tgi_;
  std::unique_ptr<hgs::TGIQueryManager> qm_;

  double setup_s_ = 0;
  double measured_s_ = 0;
  KindStats stats_[kNumKinds];
  // Read-op totals and per-round throughput; written by the one read client.
  double read_ms_total_ = 0;
  uint64_t read_ops_total_ = 0;
  std::vector<double> round_qps_;
  std::atomic<uint64_t> next_op_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<bool> correct_{true};
  std::mutex log_mu_;
  int logged_ = 0;

  // Layer counters over the measured phases.
  struct LayerTotals {
    uint64_t byte_hits = 0, byte_misses = 0, byte_evictions = 0;
    uint64_t decoded_hits = 0, decoded_misses = 0, decoded_evictions = 0;
    uint64_t retained = 0, invalidated = 0;
    uint64_t read_requests = 0, bytes_read = 0;
    uint64_t put_batches = 0, rows_put = 0, bytes_put = 0;
  };
  LayerTotals layer_;
  hgs::LruCacheCounters byte_cache0_, decoded_cache0_;
  uint64_t retained0_ = 0, invalidated0_ = 0;
  uint64_t publishes_ = 0;
  uint64_t appended_events_ = 0;
  double encode_mbps_ = 0, decode_mbps_ = 0, codec_ratio_ = 0;
};

void Bench::Record(Kind kind, double ms, const hgs::FetchStats& fs) {
  KindStats& s = stats_[kind];
  s.ms.push_back(ms);
  s.fetch.Merge(fs);
  if (kind != kAppend) {
    read_ms_total_ += ms;
    ++read_ops_total_;
  }
}

void Bench::EndRound(double ms0, uint64_t ops0) {
  const double ms = read_ms_total_ - ms0;
  if (ms > 0) {
    round_qps_.push_back(static_cast<double>(read_ops_total_ - ops0) / ms *
                         1e3);
  }
}

void Bench::Failed(Kind kind, const hgs::Status& status) {
  failed_.fetch_add(1);
  std::lock_guard<std::mutex> lock(log_mu_);
  if (logged_++ < 10) {
    std::fprintf(stderr, "hgsbench: %s failed: %s\n", kKindNames[kind],
                 status.ToString().c_str());
  }
}

void Bench::Verify(const std::string& diff, const char* what) {
  if (diff.empty()) return;
  correct_.store(false);
  std::lock_guard<std::mutex> lock(log_mu_);
  if (logged_++ < 10) {
    std::fprintf(stderr, "hgsbench: wrong %s: %s\n", what, diff.c_str());
  }
}

bool Bench::BuildIndex(const WorkloadSpec& w, size_t indexed) {
  qm_.reset();
  tgi_.reset();
  cluster_.reset();
  cluster_ = std::make_unique<hgs::Cluster>(ClusterOptions());
  tgi_ = std::make_unique<hgs::TGI>(cluster_.get(), IndexOptions(w));
  hgs::Status st = tgi_->BuildFrom(ToHgs(stream_, 0, indexed));
  if (!st.ok()) {
    std::fprintf(stderr, "hgsbench: build failed: %s\n",
                 st.ToString().c_str());
    return false;
  }
  auto qm = tgi_->OpenQueryManager(kFetchParallelism);
  if (!qm.ok()) {
    std::fprintf(stderr, "hgsbench: open failed: %s\n",
                 qm.status().ToString().c_str());
    return false;
  }
  qm_ = std::move(*qm);
  return true;
}

void Bench::BeginMeasure() {
  byte_cache0_ = qm_->ReadCacheCounters();
  decoded_cache0_ = qm_->DecodedCacheCounters();
  retained0_ = qm_->CacheEntriesRetained();
  invalidated0_ = qm_->CacheEntriesInvalidated();
  cluster_->ResetStats();
}

void Bench::EndMeasure() {
  const hgs::LruCacheCounters bc = qm_->ReadCacheCounters();
  const hgs::LruCacheCounters dc = qm_->DecodedCacheCounters();
  layer_.byte_hits += bc.hits - byte_cache0_.hits;
  layer_.byte_misses += bc.misses - byte_cache0_.misses;
  layer_.byte_evictions += bc.evictions - byte_cache0_.evictions;
  layer_.decoded_hits += dc.hits - decoded_cache0_.hits;
  layer_.decoded_misses += dc.misses - decoded_cache0_.misses;
  layer_.decoded_evictions += dc.evictions - decoded_cache0_.evictions;
  layer_.retained += qm_->CacheEntriesRetained() - retained0_;
  layer_.invalidated += qm_->CacheEntriesInvalidated() - invalidated0_;
  layer_.read_requests += cluster_->TotalReadRequests();
  layer_.bytes_read += cluster_->TotalBytesRead();
  layer_.put_batches += cluster_->TotalPutBatches();
  layer_.rows_put += cluster_->TotalRowsPut();
  layer_.bytes_put += cluster_->TotalBytesPut();
}

// -- Operations ---------------------------------------------------------------

void Bench::SnapshotOp(int64_t t, const CanonGraph& want) {
  const uint64_t op = NextOp();
  hgs::FetchStats fs;
  hgs::Status status;
  std::optional<hgs::Graph> got;
  const auto t0 = Clock::now();
  if (!tracer_.enabled()) {
    auto r = qm_->GetSnapshot(t, &fs);
    if (r.ok()) {
      got = std::move(*r);
    } else {
      status = r.status();
    }
  } else {
    // GetSnapshot is exactly GetSnapshotDelta then Delta::ToGraph; the
    // traced run makes the two calls itself to time them apart.
    ScopedSpan root(tracer_, kRootSpan[kSnapshot], op);
    std::optional<hgs::Delta> delta;
    {
      ScopedSpan span(tracer_, "tgi.snapshot_delta", op, root.id());
      auto r = qm_->GetSnapshotDelta(t, &fs);
      if (r.ok()) {
        delta = std::move(*r);
      } else {
        status = r.status();
      }
    }
    if (delta.has_value()) {
      ScopedSpan span(tracer_, "delta.to_graph", op, root.id());
      got = delta->ToGraph();
    }
  }
  const double ms = MsSince(t0);
  if (!got.has_value()) return Failed(kSnapshot, status);
  Record(kSnapshot, ms, fs);
  Verify(CheckGraph(*got, want), "snapshot");
}

void Bench::MultipointOp(const std::vector<int64_t>& times,
                         const std::vector<const CanonGraph*>& want) {
  const uint64_t op = NextOp();
  hgs::FetchStats fs;
  const auto t0 = Clock::now();
  auto r = [&] {
    ScopedSpan root(tracer_, kRootSpan[kMultipoint], op);
    ScopedSpan span(tracer_, "tgi.multipoint", op, root.id());
    return qm_->GetMultipointSnapshots(times, &fs);
  }();
  const double ms = MsSince(t0);
  if (!r.ok()) return Failed(kMultipoint, r.status());
  Record(kMultipoint, ms, fs);
  if (r->size() != times.size()) {
    return Verify("multipoint returned a wrong number of graphs",
                  "multipoint");
  }
  for (size_t i = 0; i < times.size(); ++i) {
    Verify(CheckGraph((*r)[i], *want[i]), "multipoint");
  }
}

void Bench::EvolutionOp(const hgs::taf::SoN& son,
                        const std::vector<uint64_t>& members) {
  const uint64_t op = NextOp();
  hgs::taf::Series series;
  const auto t0 = Clock::now();
  {
    ScopedSpan root(tracer_, kRootSpan[kEvolution], op);
    ScopedSpan span(tracer_, "taf.evolution", op, root.id());
    const int64_t parent = span.id();
    series = son.Evolution(
        [&](const hgs::Graph& g) {
          ScopedSpan algo(tracer_, "graph.algo", op, parent);
          return hgs::algo::Density(g);
        },
        kEvolutionPoints);
  }
  const double ms = MsSince(t0);
  Record(kEvolution, ms, {});
  if (series.size() != kEvolutionPoints) {
    return Verify("evolution returned a wrong number of points", "evolution");
  }
  for (const auto& [t, density] : series) {
    Verify(CheckDensity(density, oracle_->InducedDensity(members, t)),
           "evolution");
  }
}

void Bench::HistoryOp(const std::vector<uint64_t>& nodes, int64_t from,
                      int64_t to) {
  const uint64_t op = NextOp();
  hgs::FetchStats fs;
  const std::vector<hgs::NodeId> ids(nodes.begin(), nodes.end());
  const auto t0 = Clock::now();
  auto r = [&] {
    ScopedSpan root(tracer_, kRootSpan[kHistory], op);
    ScopedSpan span(tracer_, "tgi.histories", op, root.id());
    return qm_->GetNodeHistories(ids, from, to, &fs);
  }();
  const double ms = MsSince(t0);
  if (!r.ok()) return Failed(kHistory, r.status());
  Record(kHistory, ms, fs);
  if (r->size() != nodes.size()) {
    return Verify("wrong number of histories", "history");
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    Verify(CheckHistory((*r)[i], *oracle_, nodes[i], from, to), "history");
  }
}

void Bench::KhopOp(uint64_t node, int64_t t) {
  const uint64_t op = NextOp();
  hgs::FetchStats fs;
  const auto t0 = Clock::now();
  auto r = [&] {
    ScopedSpan root(tracer_, kRootSpan[kKhop], op);
    ScopedSpan span(tracer_, "tgi.khop", op, root.id());
    return qm_->GetKHopNeighborhood(node, t, kKhopDepth, &fs);
  }();
  const double ms = MsSince(t0);
  if (!r.ok()) return Failed(kKhop, r.status());
  Record(kKhop, ms, fs);
  Verify(CheckNodeSet(*r, oracle_->KHop(node, t, kKhopDepth)), "k-hop");
}

void Bench::RangeScanOp(int64_t from, int64_t to) {
  const uint64_t op = NextOp();
  hgs::FetchStats fs;
  const auto t0 = Clock::now();
  auto r = [&] {
    ScopedSpan root(tracer_, kRootSpan[kRangeScan], op);
    ScopedSpan span(tracer_, "tgi.range_scan", op, root.id());
    return qm_->GetEventsInRange(from, to, &fs);
  }();
  const double ms = MsSince(t0);
  if (!r.ok()) return Failed(kRangeScan, r.status());
  Record(kRangeScan, ms, fs);
  auto [first, last] = oracle_->Range(from, to);
  Verify(CheckSlice(*r, stream_, first, last), "range scan");
}

void Bench::TafOp(const hgs::taf::TAFContext& ctx,
                  const std::vector<uint64_t>& nodes, int64_t from,
                  int64_t to) {
  const uint64_t op = NextOp();
  hgs::FetchStats fs;
  std::optional<hgs::taf::SoN> son;
  std::vector<std::vector<std::pair<hgs::Timestamp, size_t>>> degrees;
  hgs::Status status;
  const auto t0 = Clock::now();
  {
    ScopedSpan root(tracer_, kRootSpan[kTafFetch], op);
    {
      ScopedSpan span(tracer_, "taf.fetch", op, root.id());
      auto r = ctx.Nodes()
                   .WithIds(std::vector<hgs::NodeId>(nodes.begin(),
                                                     nodes.end()))
                   .TimeRange(from, to)
                   .Fetch(&fs);
      if (r.ok()) {
        son = std::move(*r);
      } else {
        status = r.status();
      }
    }
    if (son.has_value()) {
      ScopedSpan span(tracer_, "taf.compute", op, root.id());
      degrees = son->NodeComputeTemporal<size_t>(
          [](const hgs::taf::StaticNodeView& v) { return v.Degree(); });
    }
  }
  const double ms = MsSince(t0);
  if (!son.has_value()) return Failed(kTafFetch, status);
  Record(kTafFetch, ms, fs);

  // The SoN holds one temporal node per distinct id, in id order.
  std::vector<uint64_t> want_ids = nodes;
  std::sort(want_ids.begin(), want_ids.end());
  want_ids.erase(std::unique(want_ids.begin(), want_ids.end()),
                 want_ids.end());
  if (son->size() != want_ids.size() || degrees.size() != want_ids.size()) {
    return Verify("TAF fetch returned a wrong number of nodes", "TAF fetch");
  }
  for (size_t i = 0; i < want_ids.size(); ++i) {
    const hgs::NodeHistory& h = son->nodes()[i].history();
    Verify(CheckHistory(h, *oracle_, want_ids[i], from, to), "TAF fetch");
    // Replaying the history yields its initial state plus one version per
    // event; NodeComputeTemporal evaluated each of them.
    std::vector<std::pair<hgs::Timestamp, hgs::Delta>> versions;
    {
      ScopedSpan span(tracer_, "delta.replay", op);
      versions = h.Materialize();
    }
    if (versions.size() != h.events.size() + 1 ||
        degrees[i].size() != versions.size()) {
      Verify("replayed versions do not match the history", "TAF compute");
    }
  }
}

bool Bench::AppendOp(size_t begin, size_t end) {
  const uint64_t op = NextOp();
  const std::vector<hgs::Event> batch = ToHgs(stream_, begin, end);
  hgs::Status status;
  const auto t0 = Clock::now();
  if (!tracer_.enabled()) {
    status = tgi_->AppendBatch(batch);
  } else {
    // AppendBatch is exactly Ingest then Finish.
    ScopedSpan root(tracer_, kRootSpan[kAppend], op);
    {
      ScopedSpan span(tracer_, "tgi.ingest", op, root.id());
      status = tgi_->builder()->Ingest(batch);
    }
    if (status.ok()) {
      ScopedSpan span(tracer_, "tgi.publish", op, root.id());
      status = tgi_->builder()->Finish();
    }
  }
  const double ms = MsSince(t0);
  if (!status.ok()) {
    Failed(kAppend, status);
    return false;
  }
  Record(kAppend, ms, {});
  ++publishes_;
  appended_events_ += end - begin;
  return true;
}

// -- Workloads ----------------------------------------------------------------

/// Time of the event at `share` of the stream's first `n` events.
int64_t TimeAtShare(const std::vector<Ev>& s, size_t n, double share) {
  size_t i = static_cast<size_t>(share * static_cast<double>(n));
  return s[std::min(i, n - 1)].t;
}

void Bench::RunSnapshotWarm() {
  const WorkloadSpec& w = kSnapshotWarm;
  stream_ = GenerateStream(w.stream, args_.seed);
  oracle_ = std::make_unique<Oracle>(stream_);
  if (!BuildIndex(w, stream_.size())) return;
  const size_t n = stream_.size();

  std::vector<int64_t> points;
  for (size_t i = 0; i < kSnapshotPoints; ++i) {
    points.push_back(TimeAtShare(
        stream_, n, static_cast<double>(i + 1) / (kSnapshotPoints + 1)));
  }
  const std::vector<std::vector<size_t>> multipoint_sets = {
      {0, 2, 4}, {1, 3, 5, 7}, {2, 5, 6}, {0, 3, 6, 7}};

  // The evolution's node set: drawn from the nodes born by mid-history and
  // fetched once, over the whole history.
  SplitMix rng(args_.seed ^ 0x5eed0001);
  const uint64_t born = oracle_->NodesBornBy(TimeAtShare(stream_, n, 0.5));
  std::vector<uint64_t> members;
  while (members.size() < kEvolutionMembers) {
    uint64_t id = rng.Uniform(born);
    if (std::find(members.begin(), members.end(), id) == members.end()) {
      members.push_back(id);
    }
  }
  std::sort(members.begin(), members.end());
  hgs::taf::TAFContext ctx(qm_.get(), kTafWorkers);
  auto son = ctx.Nodes()
                 .WithIds(std::vector<hgs::NodeId>(members.begin(),
                                                   members.end()))
                 .Fetch();
  if (!son.ok()) return Failed(kEvolution, son.status());

  // Warm-up: every query of a round once, so both tiers hold the working
  // set before timing.
  for (int64_t t : points) (void)qm_->GetSnapshot(t);
  for (const auto& set : multipoint_sets) {
    std::vector<int64_t> times;
    for (size_t i : set) times.push_back(points[i]);
    (void)qm_->GetMultipointSnapshots(times);
  }
  setup_s_ = MsSince(kProcessStart) / 1000.0;

  std::vector<CanonGraph> want;
  for (int64_t t : points) want.push_back(oracle_->StateAt(t));

  BeginMeasure();
  const auto start = Clock::now();
  for (uint64_t round = 0; MsSince(start) < args_.seconds * 1000.0;
       ++round) {
    const double ms0 = read_ms_total_;
    const uint64_t ops0 = read_ops_total_;
    // Half of the points per round, alternating, so the multipoint and
    // evolution ops get enough samples for their p90.
    for (size_t i = round % 2; i < points.size(); i += 2) {
      SnapshotOp(points[i], want[i]);
    }
    const auto& set = multipoint_sets[round % multipoint_sets.size()];
    std::vector<int64_t> times;
    std::vector<const CanonGraph*> wants;
    for (size_t i : set) {
      times.push_back(points[i]);
      wants.push_back(&want[i]);
    }
    MultipointOp(times, wants);
    EvolutionOp(*son, members);
    EndRound(ms0, ops0);
  }
  measured_s_ = MsSince(start) / 1000.0;
  EndMeasure();
}

void Bench::RunHistoryCold() {
  const WorkloadSpec& w = kHistoryCold;
  stream_ = GenerateStream(w.stream, args_.seed);
  oracle_ = std::make_unique<Oracle>(stream_);
  if (!BuildIndex(w, stream_.size())) return;
  setup_s_ = MsSince(kProcessStart) / 1000.0;

  hgs::taf::TAFContext ctx(qm_.get(), kTafWorkers);
  const int64_t start_t = stream_.front().t - 1;
  const int64_t end_t = stream_.back().t;
  const int64_t span = end_t - start_t;
  SplitMix rng(args_.seed ^ 0x5eed0002);
  auto window = [&](int64_t len) {
    int64_t from = start_t + static_cast<int64_t>(
                                 rng.Uniform(static_cast<uint64_t>(span - len)));
    return std::make_pair(from, from + len);
  };
  auto nodes_born_by = [&](int64_t t, size_t count) {
    const uint64_t born = std::max<uint64_t>(oracle_->NodesBornBy(t), 1);
    std::vector<uint64_t> out;
    for (size_t i = 0; i < count; ++i) out.push_back(rng.Uniform(born));
    return out;
  };

  BeginMeasure();
  const auto start = Clock::now();
  while (MsSince(start) < args_.seconds * 1000.0) {
    const double ms0 = read_ms_total_;
    const uint64_t ops0 = read_ops_total_;
    auto [hf, ht] = window(span / kHistoryWindowDiv);
    HistoryOp(nodes_born_by(ht, kHistoryBatch), hf, ht);

    int64_t t = start_t + 1 +
                static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(span)));
    KhopOp(nodes_born_by(t, 1)[0], t);

    auto [rf, rt] = window(span / kRangeWindowDiv);
    RangeScanOp(rf, rt);

    auto [tf, tt] = window(span / kHistoryWindowDiv);
    TafOp(ctx, nodes_born_by(tt, kTafBatch), tf, tt);
    EndRound(ms0, ops0);
  }
  measured_s_ = MsSince(start) / 1000.0;
  EndMeasure();
}

void Bench::RunLiveAppend() {
  const WorkloadSpec& w = kLiveAppend;
  stream_ = GenerateStream(w.stream, args_.seed);
  oracle_ = std::make_unique<Oracle>(stream_);
  const size_t prefix = kLivePrefixEvents;

  std::vector<int64_t> points;
  for (size_t i = 0; i < kLivePoints; ++i) {
    points.push_back(TimeAtShare(
        stream_, prefix, 0.9 * static_cast<double>(i + 1) / kLivePoints));
  }
  std::vector<CanonGraph> want;
  const int64_t start_t = stream_.front().t - 1;
  const int64_t prefix_end = stream_[prefix - 1].t;
  const int64_t hist_len = (prefix_end - start_t) / kHistoryWindowDiv;
  SplitMix rng(args_.seed ^ 0x5eed0003);

  // Cycles until --seconds of appends are measured. The rebuild between
  // cycles is outside the measured time; only the first one is set-up.
  for (int cycle = 0; cycle == 0 || measured_s_ < args_.seconds; ++cycle) {
    if (!BuildIndex(w, prefix)) return;
    // Warm-up: the prefix snapshots once.
    for (int64_t t : points) (void)qm_->GetSnapshot(t);
    if (cycle == 0) {
      setup_s_ = MsSince(kProcessStart) / 1000.0;
      for (int64_t t : points) want.push_back(oracle_->StateAt(t));
    }

    BeginMeasure();
    std::atomic<bool> writer_done{false};
    uint64_t appended = 0;
    const auto start = Clock::now();
    std::thread writer([&] {
      for (size_t b = prefix; b < stream_.size(); b += kLiveBatchEvents) {
        size_t e = std::min(stream_.size(), b + kLiveBatchEvents);
        if (AppendOp(b, e)) appended += e - b;
      }
      writer_done.store(true);
    });
    // At least one reader round, however fast the writer.
    do {
      const double ms0 = read_ms_total_;
      const uint64_t ops0 = read_ops_total_;
      for (size_t i = 0; i < points.size(); ++i) {
        SnapshotOp(points[i], want[i]);
        int64_t from = start_t + static_cast<int64_t>(rng.Uniform(
                                     static_cast<uint64_t>(prefix_end - start_t -
                                                           hist_len)));
        const uint64_t born =
            std::max<uint64_t>(oracle_->NodesBornBy(from + hist_len), 1);
        std::vector<uint64_t> nodes;
        for (size_t k = 0; k < kLiveHistoryBatch; ++k) {
          nodes.push_back(rng.Uniform(born));
        }
        HistoryOp(nodes, from, from + hist_len);
      }
      EndRound(ms0, ops0);
    } while (!writer_done.load());
    writer.join();
    measured_s_ += MsSince(start) / 1000.0;
    EndMeasure();

    // Two totals reached by independent paths must agree with the stream.
    // The scan runs first: the manager's metadata accessors report the state
    // of its last query, so a query must follow the writer's last publish.
    auto all = qm_->GetEventsInRange(start_t, stream_.back().t);
    if (!all.ok()) return Failed(kRangeScan, all.status());
    const uint64_t indexed = qm_->EventCount();
    if (prefix + appended != stream_.size() || indexed != stream_.size() ||
        all->size() != stream_.size() ||
        qm_->HistoryEnd() != stream_.back().t) {
      Verify("appended " + std::to_string(prefix + appended) + ", indexed " +
                 std::to_string(indexed) + ", scanned " +
                 std::to_string(all->size()) + ", generated " +
                 std::to_string(stream_.size()),
             "event totals");
    }
    Verify(CheckSlice(*all, stream_, 0, stream_.size()), "full range scan");
  }
}

// -- Traced-run extras --------------------------------------------------------

void Bench::MeasureCodec() {
  // The deltas table's rows, decoded and re-serialized to the payloads the
  // builder handed to the codec.
  struct Row {
    std::string payload;
    hgs::ValueSchema schema;
  };
  std::vector<Row> rows;
  const size_t ns = tgi_->options().num_horizontal_partitions;
  const uint64_t partitions =
      static_cast<uint64_t>(tgi_->builder()->timespans_built()) * ns;
  for (uint64_t p = 0; p < partitions; ++p) {
    auto pairs = cluster_->Scan(hgs::tgi::kDeltasTable, p, "");
    if (!pairs.ok()) continue;
    for (const hgs::KVPair& kv : *pairs) {
      hgs::DeltaId did = 0;
      hgs::MicroPartitionId pid = 0;
      bool aux = false;
      if (!hgs::tgi::ParseDeltaRowKey(hgs::ClusteringOrder::kDeltaMajor,
                                      kv.key, &did, &pid, &aux)) {
        continue;
      }
      if (did >= hgs::tgi::kEventlistDidBase) {
        auto el = hgs::EventList::Deserialize(kv.value.view());
        if (el.ok()) rows.push_back({el->Serialize(), hgs::ValueSchema::kEventList});
      } else {
        auto d = hgs::Delta::Deserialize(kv.value.view());
        if (d.ok()) rows.push_back({d->Serialize(), hgs::ValueSchema::kDelta});
      }
    }
  }
  if (rows.empty()) return;
  uint64_t raw = 0, stored = 0;
  for (const Row& r : rows) raw += r.payload.size();
  std::vector<hgs::SharedValue> blocks;
  blocks.reserve(rows.size());
  auto t0 = Clock::now();
  for (const Row& r : rows) {
    blocks.emplace_back(
        hgs::Compress(r.payload, hgs::CompressionKind::kColumnar, r.schema));
  }
  const double encode_ms = MsSince(t0);
  for (const auto& b : blocks) stored += b.size();
  size_t decoded = 0;
  t0 = Clock::now();
  for (size_t i = 0; i < blocks.size(); ++i) {
    auto view = hgs::DecompressShared(blocks[i]);
    if (!view.ok()) continue;
    if (rows[i].schema == hgs::ValueSchema::kEventList) {
      decoded += hgs::EventList::Deserialize(view->view()).ok();
    } else {
      decoded += hgs::Delta::Deserialize(view->view()).ok();
    }
  }
  const double decode_ms = MsSince(t0);
  if (decoded != rows.size()) Verify("stored rows failed to decode", "codec");
  encode_mbps_ = static_cast<double>(raw) / 1e3 / encode_ms;
  decode_mbps_ = static_cast<double>(raw) / 1e3 / decode_ms;
  codec_ratio_ = static_cast<double>(raw) / static_cast<double>(stored);
}

// -- Report -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonMetrics(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", ms[i].name.c_str(), ms[i].value,
                  ms[i].unit.c_str());
    out += buf;
  }
  return out + "}";
}

void Bench::Report() {
  const std::string& wl = args_.workload;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;
  const uint64_t events = qm_ != nullptr ? qm_->EventCount() : 0;

  // Per-kind figures, ungated: printed as comment lines and kept in the
  // results file, under the names the README uses.
  auto gmean = [](const std::vector<double>& v) {
    double acc = 0;
    for (double x : v) acc += std::log(x);
    return v.empty() ? 0.0 : std::exp(acc / static_cast<double>(v.size()));
  };
  std::vector<Metric> detail;
  std::vector<double> p50s, p90s;
  uint64_t read_ops = 0;
  hgs::FetchStats reads;
  for (int k = 0; k < kNumKinds; ++k) {
    const KindStats& s = stats_[k];
    if (s.ms.empty()) continue;
    const std::string name = kKindNames[k];
    p50s.push_back(Quantile(s.ms, 0.5));
    p90s.push_back(Quantile(s.ms, 0.9));
    detail.push_back({name + "_ops", static_cast<double>(s.ms.size()), "count"});
    detail.push_back({name + "_ms_p50", p50s.back(), "ms"});
    detail.push_back({name + "_ms_p90", p90s.back(), "ms"});
    if (k == kAppend) {
      double write_ms = 0;
      for (double v : s.ms) write_ms += v;
      detail.push_back({"append_events_per_s",
                        static_cast<double>(appended_events_) / write_ms * 1e3,
                        "events/s"});
      continue;
    }
    read_ops += s.ms.size();
    reads.Merge(s.fetch);
  }
  detail.push_back({"op_ms_p90", gmean(p90s), "ms"});
  for (const Metric& m : detail) {
    std::printf("# %s=%.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  std::vector<Metric> metrics;
  if (!args_.trace) {
    metrics = {
        {"setup_s", setup_s_, "s"},
        {"stored_bytes_per_event",
         events == 0 ? 0.0
                     : static_cast<double>(cluster_->TotalStoredBytes()) /
                           static_cast<double>(events),
         "bytes/event"},
        {"peak_rss_mib", peak_rss_mib, "MiB"},
        {"queries_per_s", Quantile(round_qps_, 0.5), "queries/s"},
        {"op_ms_p50", gmean(p50s), "ms"},
    };
  } else {
    MeasureCodec();
    const auto& spans = tracer_.spans();
    const std::vector<int64_t> self = tracer_.SelfTimesNs();
    // Mean self time per call, per span name; and per op kind, per name.
    std::map<std::string, std::pair<double, uint64_t>> by_name;
    std::map<std::string, std::map<std::string, double>> by_kind;
    std::map<uint64_t, std::string> op_kind;
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent < 0 && std::strncmp(spans[i].name, "op.", 3) == 0) {
        op_kind[spans[i].op] = spans[i].name + 3;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      auto& slot = by_name[spans[i].name];
      slot.first += static_cast<double>(self[i]) / 1e6;
      slot.second += 1;
      auto it = op_kind.find(spans[i].op);
      if (it != op_kind.end()) {
        by_kind[it->second][spans[i].name] += static_cast<double>(self[i]) / 1e6;
      }
    }
    std::printf("# self time per op, ms (op kind: span=ms ...)\n");
    for (int k = 0; k < kNumKinds; ++k) {
      auto it = by_kind.find(kKindNames[k]);
      if (it == by_kind.end() || stats_[k].ms.empty()) continue;
      std::printf("#   %s:", kKindNames[k]);
      for (const auto& [name, total] : it->second) {
        std::printf(" %s=%.3f", name.c_str(),
                    total / static_cast<double>(stats_[k].ms.size()));
      }
      std::printf("\n");
    }
    if (!args_.out_dir.empty()) {
      std::string path = args_.out_dir + "/trace_" + wl + "_" +
                         std::to_string(args_.seed) + ".json";
      if (!tracer_.WriteJson(path)) {
        std::fprintf(stderr, "hgsbench: cannot write %s\n", path.c_str());
      }
    }
    auto mean_ms = [&](const char* name) {
      auto it = by_name.find(name);
      return it == by_name.end() ? 0.0
                                 : it->second.first /
                                       static_cast<double>(it->second.second);
    };
    auto per = [](double v, uint64_t n) {
      return n == 0 ? 0.0 : v / static_cast<double>(n);
    };
    const hgs::LruCacheCounters bc = qm_->ReadCacheCounters();
    const hgs::LruCacheCounters dc = qm_->DecodedCacheCounters();
    auto rate = [](uint64_t h, uint64_t m) {
      return h + m == 0 ? 0.0 : static_cast<double>(h) / (h + m);
    };
    const uint64_t reqs = layer_.read_requests;
    const uint64_t bytes_read = layer_.bytes_read;
    const hgs::LatencyModel lm = LatencyModel();
    // The simulated wait has no cluster-level total; estimate it from the
    // model and the request, key (one per decoded row) and byte counts.
    const double wait_ms =
        (static_cast<double>(reqs) * lm.seek_micros +
         static_cast<double>(reads.decodes) * lm.per_key_micros +
         static_cast<double>(bytes_read) / lm.bytes_per_micro) /
        1e3;
    const uint64_t hist_ops =
        stats_[kHistory].ms.size() + stats_[kTafFetch].ms.size();
    const uint64_t batches = stats_[kAppend].ms.size();
    metrics = {
        {"kvstore.round_trips", per(reads.kv_batches, read_ops), "count"},
        {"kvstore.requests", per(reqs, read_ops), "count"},
        {"kvstore.bytes_read", per(bytes_read, read_ops), "bytes"},
        {"kvstore.wait_ms", per(wait_ms, read_ops), "ms"},
        {"kvstore.put_batches", per(layer_.put_batches, batches), "count"},
        {"kvstore.rows_put", per(layer_.rows_put, batches), "count"},
        {"kvstore.bytes_put", per(layer_.bytes_put, batches),
         "bytes"},
        {"common.byte_cache_hit_rate",
         rate(layer_.byte_hits, layer_.byte_misses),
         "ratio"},
        {"common.byte_cache_evictions",
         per(layer_.byte_evictions, read_ops), "count"},
        {"common.decoded_cache_hit_rate",
         rate(layer_.decoded_hits, layer_.decoded_misses),
         "ratio"},
        {"common.decoded_cache_evictions",
         per(layer_.decoded_evictions, read_ops), "count"},
        {"common.cache_bytes_resident",
         static_cast<double>(bc.bytes_used + dc.bytes_used), "bytes"},
        {"common.cache_entries_retained",
         per(layer_.retained, publishes_), "count"},
        {"common.cache_entries_invalidated",
         per(layer_.invalidated, publishes_),
         "count"},
        {"common.decodes", per(reads.decodes, read_ops), "count"},
        {"common.decoded_bytes", per(reads.decoded_bytes, read_ops), "bytes"},
        {"common.value_copies", per(reads.value_copies, read_ops), "count"},
        {"common.encode_MBps", encode_mbps_, "MB/s"},
        {"common.decode_MBps", decode_mbps_, "MB/s"},
        {"common.codec_ratio", codec_ratio_, "x"},
        {"tgi.snapshot_delta_ms", mean_ms("tgi.snapshot_delta"), "ms"},
        {"tgi.multipoint_ms", mean_ms("tgi.multipoint"), "ms"},
        {"tgi.histories_ms", mean_ms("tgi.histories"), "ms"},
        {"tgi.version_scans",
         per(stats_[kHistory].fetch.version_scans +
                 stats_[kTafFetch].fetch.version_scans,
             hist_ops),
         "count"},
        {"tgi.eventlist_fetches",
         per(stats_[kHistory].fetch.eventlist_fetches +
                 stats_[kTafFetch].fetch.eventlist_fetches,
             hist_ops),
         "count"},
        {"tgi.khop_ms", mean_ms("tgi.khop"), "ms"},
        {"tgi.range_scan_ms", mean_ms("tgi.range_scan"), "ms"},
        {"tgi.ingest_ms", mean_ms("tgi.ingest"), "ms"},
        {"tgi.publish_ms", mean_ms("tgi.publish"), "ms"},
        {"delta.to_graph_ms", mean_ms("delta.to_graph"), "ms"},
        {"delta.replay_ms", mean_ms("delta.replay"), "ms"},
        {"graph.algo_ms", mean_ms("graph.algo"), "ms"},
        {"taf.fetch_ms", mean_ms("taf.fetch"), "ms"},
        {"taf.compute_ms", mean_ms("taf.compute"), "ms"},
        {"taf.evolution_ms", mean_ms("taf.evolution"), "ms"},
    };
  }

  const std::string result =
      std::string("{\"correct\": ") + (correct_.load() ? "true" : "false") +
      ", \"attempted\": " + std::to_string(next_op_.load()) +
      ", \"failed\": " + std::to_string(failed_.load()) +
      ", \"metrics\": " + JsonMetrics(metrics) + "}";
  std::printf("# %s seed=%" PRIu64 " trace=%d measured_s=%.2f ops=%" PRIu64
              "\n",
              wl.c_str(), args_.seed, args_.trace ? 1 : 0, measured_s_,
              next_op_.load());
  if (!args_.out_dir.empty()) {
    std::string path = args_.out_dir + "/results.jsonl";
    if (std::FILE* f = std::fopen(path.c_str(), "a")) {
      std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %" PRIu64
                      ", \"trace\": %d, \"result\": %s, \"detail\": %s}\n",
                   wl.c_str(), args_.seed, args_.trace ? 1 : 0,
                   result.c_str(), JsonMetrics(detail).c_str());
      std::fclose(f);
    }
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
}

int Bench::Run() {
  if (args_.workload == "snapshot_warm") {
    RunSnapshotWarm();
  } else if (args_.workload == "history_cold") {
    RunHistoryCold();
  } else if (args_.workload == "live_append") {
    RunLiveAppend();
  } else {
    std::fprintf(stderr, "hgsbench: unknown workload %s\n",
                 args_.workload.c_str());
    return 2;
  }
  if (qm_ == nullptr || next_op_.load() == 0) {
    std::fprintf(stderr, "hgsbench: the workload did not run\n");
    return 1;
  }
  Report();
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* out) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      out->workload = value;
    } else if (flag == "--seed") {
      out->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      out->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      out->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--out-dir") {
      out->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !out->workload.empty() && out->seconds > 0;
}

}  // namespace
}  // namespace hgsb

int main(int argc, char** argv) {
  hgsb::Args args;
  if (!hgsb::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: hgs_bench --workload <name> --seed <n> --seconds <s>"
                 " --trace <0|1> [--out-dir <dir>]\n");
    return 2;
  }
  return hgsb::Bench(std::move(args)).Run();
}
