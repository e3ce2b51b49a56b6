// Answer checks: each compares one library answer with the oracle and
// returns "" when it matches, else a description of the first difference.
// They run outside the timed region of every operation.

#ifndef HGSBENCH_CHECK_H_
#define HGSBENCH_CHECK_H_

#include <string>
#include <vector>

#include "graph/graph.h"
#include "oracle.h"
#include "tgi/query.h"

namespace hgsb {

/// Node ids, node attributes, edge set, edge orientation and flags.
std::string CheckGraph(const hgs::Graph& got, const CanonGraph& want);

/// `got` must be exactly the stream events whose indices are listed.
std::string CheckEvents(const std::vector<hgs::Event>& got,
                        const std::vector<Ev>& stream,
                        const std::vector<size_t>& want);

/// `got` must be exactly the stream slice [first, last).
std::string CheckSlice(const std::vector<hgs::Event>& got,
                       const std::vector<Ev>& stream, size_t first,
                       size_t last);

/// The history's node and events: every event touching the node in
/// (from, to], in order.
std::string CheckHistory(const hgs::NodeHistory& got, const Oracle& oracle,
                         uint64_t node, int64_t from, int64_t to);

/// The graph's node set must equal `want` (sorted).
std::string CheckNodeSet(const hgs::Graph& got,
                         const std::vector<uint64_t>& want);

std::string CheckDensity(double got, double want);

}  // namespace hgsb

#endif  // HGSBENCH_CHECK_H_
