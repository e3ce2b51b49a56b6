// Self-test of the benchmark's oracle and answer checks. On a small stream
// indexed without simulated latency it shows that
//   * the oracle agrees with an independent replay (the library's own
//     ReplayToGraph, used here and nowhere in the benchmark),
//   * every check accepts the library's true answers, and
//   * every check rejects a perturbed answer: one edge dropped, one
//     attribute changed, one history event removed, one k-hop node missing,
//     one range-scan event missing, a density off by a hair.
// Exits 0 when all of this holds.

#include <cstdio>
#include <string>
#include <vector>

#include "check.h"
#include "graph/algorithms.h"
#include "oracle.h"
#include "stream.h"
#include "tgi/tgi.h"
#include "workload/generators.h"

namespace {

int failures = 0;
int checks = 0;

void Expect(bool ok, const std::string& what) {
  ++checks;
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "oracle self-test: FAILED: %s\n", what.c_str());
  }
}

void ExpectPass(const std::string& diff, const std::string& what) {
  Expect(diff.empty(), what + " (true answer rejected: " + diff + ")");
}

void ExpectReject(const std::string& diff, const std::string& what) {
  Expect(!diff.empty(), what + " (perturbed answer accepted)");
}

}  // namespace

int main() {
  using namespace hgsb;
  const std::vector<Ev> stream = GenerateStream({3'000, 1'500}, 7);
  const Oracle oracle(stream);
  const std::vector<hgs::Event> events = ToHgs(stream, 0, stream.size());

  hgs::ClusterOptions copts;
  copts.num_nodes = 2;
  copts.latency.enabled = false;
  hgs::Cluster cluster(copts);
  hgs::TGIOptions topts;
  topts.events_per_timespan = 1'000;
  topts.ingest_threads = 1;
  topts.row_compression = hgs::CompressionKind::kColumnar;
  topts.eventlist_compression = hgs::CompressionKind::kColumnar;
  topts.versions_compression = hgs::CompressionKind::kColumnar;
  hgs::TGI tgi(&cluster, topts);
  if (!tgi.BuildFrom(events).ok()) {
    std::fprintf(stderr, "oracle self-test: index build failed\n");
    return 1;
  }
  auto qm_or = tgi.OpenQueryManager();
  if (!qm_or.ok()) return 1;
  hgs::TGIQueryManager& qm = **qm_or;

  // The oracle against an independent replay.
  for (size_t i : {stream.size() / 4, stream.size() / 2, stream.size() - 1}) {
    const int64_t t = stream[i].t;
    ExpectPass(CheckGraph(hgs::workload::ReplayToGraph(events, t),
                          oracle.StateAt(t)),
               "oracle state vs replay at t=" + std::to_string(t));
  }

  const int64_t t = stream[stream.size() * 3 / 5].t;
  const int64_t from = stream[stream.size() / 5].t + 1;
  const CanonGraph want = oracle.StateAt(t);

  // Snapshot.
  auto snap = qm.GetSnapshot(t);
  Expect(snap.ok(), "GetSnapshot");
  if (snap.ok()) {
    ExpectPass(CheckGraph(*snap, want), "snapshot");
    hgs::Graph dropped = *snap;
    dropped.RemoveEdge(want.edges[want.edges.size() / 2].src,
                       want.edges[want.edges.size() / 2].dst);
    ExpectReject(CheckGraph(dropped, want), "snapshot with one edge dropped");
    hgs::Graph changed = *snap;
    changed.GetMutableNode(want.nodes[0].id)->attrs.Set("kind", "changed");
    ExpectReject(CheckGraph(changed, want),
                 "snapshot with one attribute changed");

    // Density of an induced subgraph.
    std::vector<uint64_t> members;
    for (uint64_t id = 0; id < oracle.NodesBornBy(t); id += 3) {
      members.push_back(id);
    }
    const double got = hgs::algo::Density(hgs::algo::InducedSubgraph(
        *snap, std::vector<hgs::NodeId>(members.begin(), members.end())));
    const double density = oracle.InducedDensity(members, t);
    ExpectPass(CheckDensity(got, density), "density");
    ExpectReject(CheckDensity(got * (1 + 1e-9), density), "perturbed density");
  }

  // Histories: the busiest node in the window.
  uint64_t busy = 0;
  for (uint64_t id = 0; id < oracle.NodesBornBy(t); ++id) {
    if (oracle.NodeEvents(id, from, t).size() >
        oracle.NodeEvents(busy, from, t).size()) {
      busy = id;
    }
  }
  auto hists = qm.GetNodeHistories({busy, busy + 1}, from, t);
  Expect(hists.ok() && hists->size() == 2, "GetNodeHistories");
  if (hists.ok() && hists->size() == 2) {
    ExpectPass(CheckHistory((*hists)[0], oracle, busy, from, t), "history");
    ExpectPass(CheckHistory((*hists)[1], oracle, busy + 1, from, t),
               "second history");
    hgs::NodeHistory cut = (*hists)[0];
    const auto& evs = cut.events.events();
    hgs::EventList shorter(cut.events.after(), cut.events.upto());
    for (size_t i = 0; i < evs.size(); ++i) {
      if (i != evs.size() / 2) shorter.Append(evs[i]);
    }
    cut.events = shorter;
    ExpectReject(CheckHistory(cut, oracle, busy, from, t),
                 "history with one event removed");
  }

  // k-hop around a node with neighbors.
  auto hop = qm.GetKHopNeighborhood(busy, t, 2);
  Expect(hop.ok(), "GetKHopNeighborhood");
  if (hop.ok()) {
    const std::vector<uint64_t> ring = oracle.KHop(busy, t, 2);
    Expect(ring.size() > 2, "k-hop ring has members");
    ExpectPass(CheckNodeSet(*hop, ring), "k-hop");
    hgs::Graph missing = *hop;
    missing.RemoveNode(ring.back() == busy ? ring.front() : ring.back());
    ExpectReject(CheckNodeSet(missing, ring), "k-hop with one node missing");
  }
  ExpectPass(CheckNodeSet(hgs::Graph(), oracle.KHop(busy, stream.front().t - 1,
                                                    2)),
             "k-hop before the node is born");

  // Range scan.
  auto range = qm.GetEventsInRange(from, t);
  Expect(range.ok(), "GetEventsInRange");
  if (range.ok()) {
    auto [first, last] = oracle.Range(from, t);
    ExpectPass(CheckSlice(*range, stream, first, last), "range scan");
    std::vector<hgs::Event> cut = *range;
    cut.erase(cut.begin() + static_cast<long>(cut.size() / 2));
    ExpectReject(CheckSlice(cut, stream, first, last),
                 "range scan with one event missing");
  }

  std::printf("oracle self-test: %d of %d checks passed\n", checks - failures,
              checks);
  return failures == 0 ? 0 : 1;
}
