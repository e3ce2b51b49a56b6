#include "check.h"

#include <algorithm>
#include <cmath>

namespace hgsb {

namespace {

std::string Str(uint64_t v) { return std::to_string(v); }

hgs::EventType LibType(EvType t) {
  switch (t) {
    case EvType::kAddNode:
      return hgs::EventType::kAddNode;
    case EvType::kAddEdge:
      return hgs::EventType::kAddEdge;
    case EvType::kRemoveEdge:
      return hgs::EventType::kRemoveEdge;
    case EvType::kSetNodeAttr:
      return hgs::EventType::kSetNodeAttr;
  }
  return hgs::EventType::kAddNode;
}

bool SameAttrs(const hgs::Attributes& got, const AttrList& want) {
  const auto& entries = got.entries();
  return entries.size() == want.size() &&
         std::equal(entries.begin(), entries.end(), want.begin());
}

std::string EventDiff(const hgs::Event& got, const Ev& want) {
  if (got.time != want.t) {
    return "time " + std::to_string(got.time) + " != " +
           std::to_string(want.t);
  }
  if (got.type != LibType(want.type)) return "type at t=" + Str(want.t);
  if (got.u != want.u) return "u at t=" + Str(want.t);
  switch (want.type) {
    case EvType::kAddNode:
      if (!SameAttrs(got.attrs, want.attrs)) return "attrs at t=" + Str(want.t);
      break;
    case EvType::kAddEdge:
      if (got.directed != want.directed || !got.attrs.empty()) {
        return "edge flags at t=" + Str(want.t);
      }
      [[fallthrough]];
    case EvType::kRemoveEdge:
      if (got.v != want.v) return "v at t=" + Str(want.t);
      break;
    case EvType::kSetNodeAttr:
      if (got.key != want.key || got.value != want.value ||
          got.prev_value != want.prev) {
        return "attr payload at t=" + Str(want.t);
      }
      break;
  }
  return "";
}

}  // namespace

std::string CheckGraph(const hgs::Graph& got, const CanonGraph& want) {
  if (got.NumNodes() != want.nodes.size()) {
    return "node count " + Str(got.NumNodes()) + " != " +
           Str(want.nodes.size());
  }
  if (got.NumEdges() != want.edges.size()) {
    return "edge count " + Str(got.NumEdges()) + " != " +
           Str(want.edges.size());
  }
  for (const NodeRow& n : want.nodes) {
    const hgs::NodeRecord* rec = got.GetNode(n.id);
    if (rec == nullptr) return "missing node " + Str(n.id);
    if (!SameAttrs(rec->attrs, n.attrs)) return "attrs of node " + Str(n.id);
  }
  for (const EdgeRow& e : want.edges) {
    const hgs::EdgeRecord* rec = got.GetEdge(e.src, e.dst);
    if (rec == nullptr) return "missing edge " + Str(e.src) + "-" + Str(e.dst);
    if (rec->src != e.src || rec->dst != e.dst || rec->directed != e.directed ||
        !rec->attrs.empty()) {
      return "record of edge " + Str(e.src) + "-" + Str(e.dst);
    }
  }
  return "";
}

std::string CheckEvents(const std::vector<hgs::Event>& got,
                        const std::vector<Ev>& stream,
                        const std::vector<size_t>& want) {
  if (got.size() != want.size()) {
    return "event count " + Str(got.size()) + " != " + Str(want.size());
  }
  for (size_t i = 0; i < want.size(); ++i) {
    std::string diff = EventDiff(got[i], stream[want[i]]);
    if (!diff.empty()) return "event " + Str(i) + ": " + diff;
  }
  return "";
}

std::string CheckSlice(const std::vector<hgs::Event>& got,
                       const std::vector<Ev>& stream, size_t first,
                       size_t last) {
  std::vector<size_t> want(last - first);
  for (size_t i = 0; i < want.size(); ++i) want[i] = first + i;
  return CheckEvents(got, stream, want);
}

std::string CheckHistory(const hgs::NodeHistory& got, const Oracle& oracle,
                         uint64_t node, int64_t from, int64_t to) {
  std::vector<size_t> want = oracle.NodeEvents(node, from, to);
  if (got.node != node || got.from != from || got.to != to) {
    return "history of node " + Str(node) + " has the wrong node or window";
  }
  std::string diff = CheckEvents(got.events.events(), oracle.stream(), want);
  return diff.empty() ? "" : "node " + Str(node) + " " + diff;
}

std::string CheckNodeSet(const hgs::Graph& got,
                         const std::vector<uint64_t>& want) {
  std::vector<hgs::NodeId> ids = got.NodeIds();
  std::sort(ids.begin(), ids.end());
  if (ids.size() != want.size()) {
    return "node set size " + Str(ids.size()) + " != " + Str(want.size());
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] != want[i]) return "node set differs at " + Str(want[i]);
  }
  return "";
}

std::string CheckDensity(double got, double want) {
  if (std::fabs(got - want) <= 1e-12 * std::max(1.0, std::fabs(want))) {
    return "";
  }
  return "density " + std::to_string(got) + " != " + std::to_string(want);
}

}  // namespace hgsb
