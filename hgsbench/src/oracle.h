// The benchmark's replay oracle. It replays a generated stream into plain
// standard containers (no hgs::Graph, no library replay), and answers every
// query the workloads issue: graph state at a time, the events touching a
// node in a window, a stream slice, a k-hop node set by BFS, and the density
// of a node set's induced subgraph. Windows are (from, to], like the
// library's.

#ifndef HGSBENCH_ORACLE_H_
#define HGSBENCH_ORACLE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "stream.h"

namespace hgsb {

struct NodeRow {
  uint64_t id = 0;
  AttrList attrs;  ///< sorted by key
};

struct EdgeRow {
  uint64_t src = 0;
  uint64_t dst = 0;
  bool directed = false;
};

/// Graph state in canonical form: nodes sorted by id, edges sorted by
/// (min endpoint, max endpoint).
struct CanonGraph {
  std::vector<NodeRow> nodes;
  std::vector<EdgeRow> edges;
};

class Oracle {
 public:
  /// `stream` must outlive the oracle.
  explicit Oracle(const std::vector<Ev>& stream);

  const std::vector<Ev>& stream() const { return stream_; }

  /// Index range [first, last) of the events with from < t <= to.
  std::pair<size_t, size_t> Range(int64_t from, int64_t to) const;

  /// Nodes born at or before t (ids 0 .. result-1).
  uint64_t NodesBornBy(int64_t t) const;

  /// Replayed graph state as of t.
  CanonGraph StateAt(int64_t t) const;

  /// Indices of the events touching `node` with from < t <= to.
  std::vector<size_t> NodeEvents(uint64_t node, int64_t from,
                                 int64_t to) const;

  /// Sorted ids of the nodes within k hops of `node` at t, `node` included;
  /// empty when `node` is not alive at t.
  std::vector<uint64_t> KHop(uint64_t node, int64_t t, int k) const;

  /// 2m / (n (n-1)) over the subgraph induced at t by the alive members.
  double InducedDensity(const std::vector<uint64_t>& members,
                        int64_t t) const;

 private:
  /// One lifetime of one edge, seen from one endpoint: present for
  /// added <= t < removed.
  struct Incidence {
    uint64_t other;
    int64_t added;
    int64_t removed;
  };

  const std::vector<Ev>& stream_;
  std::vector<int64_t> times_;
  std::vector<int64_t> born_;
  std::vector<std::vector<size_t>> touching_;
  std::vector<std::vector<Incidence>> incidence_;
};

}  // namespace hgsb

#endif  // HGSBENCH_ORACLE_H_
