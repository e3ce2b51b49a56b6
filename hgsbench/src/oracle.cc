#include "oracle.h"

#include <algorithm>
#include <limits>
#include <map>
#include <unordered_map>
#include <unordered_set>

namespace hgsb {

namespace {

constexpr int64_t kNever = std::numeric_limits<int64_t>::max();

uint64_t EdgeCode(uint64_t a, uint64_t b) {
  return a < b ? (a << 32) | b : (b << 32) | a;
}

}  // namespace

Oracle::Oracle(const std::vector<Ev>& stream) : stream_(stream) {
  times_.reserve(stream.size());
  // Open edge lifetimes: code -> (slot in incidence_[min], slot in [max]).
  std::unordered_map<uint64_t, std::pair<size_t, size_t>> open;
  for (size_t i = 0; i < stream.size(); ++i) {
    const Ev& e = stream[i];
    times_.push_back(e.t);
    uint64_t hi = e.type == EvType::kAddEdge || e.type == EvType::kRemoveEdge
                      ? std::max(e.u, e.v)
                      : e.u;
    if (hi >= touching_.size()) {
      touching_.resize(hi + 1);
      incidence_.resize(hi + 1);
    }
    touching_[e.u].push_back(i);
    switch (e.type) {
      case EvType::kAddNode:
        if (born_.size() <= e.u) born_.resize(e.u + 1, kNever);
        born_[e.u] = e.t;
        break;
      case EvType::kAddEdge:
        touching_[e.v].push_back(i);
        open[EdgeCode(e.u, e.v)] = {incidence_[e.u].size(),
                                    incidence_[e.v].size()};
        incidence_[e.u].push_back({e.v, e.t, kNever});
        incidence_[e.v].push_back({e.u, e.t, kNever});
        break;
      case EvType::kRemoveEdge: {
        touching_[e.v].push_back(i);
        auto it = open.find(EdgeCode(e.u, e.v));
        if (it != open.end()) {
          incidence_[e.u][it->second.first].removed = e.t;
          incidence_[e.v][it->second.second].removed = e.t;
          open.erase(it);
        }
        break;
      }
      case EvType::kSetNodeAttr:
        break;
    }
  }
}

std::pair<size_t, size_t> Oracle::Range(int64_t from, int64_t to) const {
  auto lo = std::upper_bound(times_.begin(), times_.end(), from);
  auto hi = std::upper_bound(times_.begin(), times_.end(), to);
  if (hi < lo) hi = lo;
  return {static_cast<size_t>(lo - times_.begin()),
          static_cast<size_t>(hi - times_.begin())};
}

uint64_t Oracle::NodesBornBy(int64_t t) const {
  // Ids are dense in arrival order, so birth times ascend with the id.
  return static_cast<uint64_t>(
      std::upper_bound(born_.begin(), born_.end(), t) - born_.begin());
}

CanonGraph Oracle::StateAt(int64_t t) const {
  std::map<uint64_t, std::map<std::string, std::string>> nodes;
  std::map<std::pair<uint64_t, uint64_t>, EdgeRow> edges;
  for (const Ev& e : stream_) {
    if (e.t > t) break;
    auto key = std::minmax(e.u, e.v);
    switch (e.type) {
      case EvType::kAddNode:
        nodes[e.u] = {e.attrs.begin(), e.attrs.end()};
        break;
      case EvType::kAddEdge:
        edges[{key.first, key.second}] = {e.u, e.v, e.directed};
        break;
      case EvType::kRemoveEdge:
        edges.erase({key.first, key.second});
        break;
      case EvType::kSetNodeAttr:
        nodes[e.u][e.key] = e.value;
        break;
    }
  }
  CanonGraph g;
  g.nodes.reserve(nodes.size());
  for (auto& [id, attrs] : nodes) {
    g.nodes.push_back({id, AttrList(attrs.begin(), attrs.end())});
  }
  g.edges.reserve(edges.size());
  for (const auto& [key, row] : edges) g.edges.push_back(row);
  return g;
}

std::vector<size_t> Oracle::NodeEvents(uint64_t node, int64_t from,
                                       int64_t to) const {
  std::vector<size_t> out;
  if (node >= touching_.size()) return out;
  for (size_t i : touching_[node]) {
    if (times_[i] > from && times_[i] <= to) out.push_back(i);
  }
  return out;
}

std::vector<uint64_t> Oracle::KHop(uint64_t node, int64_t t, int k) const {
  if (node >= born_.size() || born_[node] > t) return {};
  std::unordered_set<uint64_t> visited{node};
  std::vector<uint64_t> frontier{node};
  for (int hop = 0; hop < k && !frontier.empty(); ++hop) {
    std::vector<uint64_t> next;
    for (uint64_t u : frontier) {
      for (const Incidence& inc : incidence_[u]) {
        if (inc.added <= t && t < inc.removed &&
            visited.insert(inc.other).second) {
          next.push_back(inc.other);
        }
      }
    }
    frontier = std::move(next);
  }
  std::vector<uint64_t> out(visited.begin(), visited.end());
  std::sort(out.begin(), out.end());
  return out;
}

double Oracle::InducedDensity(const std::vector<uint64_t>& members,
                              int64_t t) const {
  std::unordered_set<uint64_t> alive;
  for (uint64_t id : members) {
    if (id < born_.size() && born_[id] <= t) alive.insert(id);
  }
  uint64_t m = 0;
  for (uint64_t u : alive) {
    for (const Incidence& inc : incidence_[u]) {
      if (u < inc.other && inc.added <= t && t < inc.removed &&
          alive.contains(inc.other)) {
        ++m;
      }
    }
  }
  const size_t n = alive.size();
  if (n < 2) return 0.0;
  return 2.0 * static_cast<double>(m) /
         (static_cast<double>(n) * static_cast<double>(n - 1));
}

}  // namespace hgsb
