// Seeded event streams for the benchmark, shaped like the paper's Dataset 2:
// preferential-attachment growth with node-attribute sets, followed by edge
// add/delete churn. The generator is the benchmark's own (it never calls the
// library's workload generators), so a library change cannot change the
// inputs. Streams are well-formed for TGIBuilder: strictly increasing
// timestamps, edges only between live nodes, no node removals.

#ifndef HGSBENCH_STREAM_H_
#define HGSBENCH_STREAM_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "delta/event.h"

namespace hgsb {

/// SplitMix64: the benchmark's own generator, independent of the library's.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  uint64_t Uniform(uint64_t bound) { return Next() % bound; }
  double Double() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

 private:
  uint64_t state_;
};

enum class EvType : uint8_t { kAddNode, kAddEdge, kRemoveEdge, kSetNodeAttr };

using AttrList = std::vector<std::pair<std::string, std::string>>;  // sorted

/// One event in plain form. Node ids are dense and assigned in arrival
/// order, so the nodes born by time t are exactly the ids below a count.
struct Ev {
  int64_t t = 0;
  EvType type = EvType::kAddNode;
  uint64_t u = 0;  ///< node, or edge source
  uint64_t v = 0;  ///< edge destination
  bool directed = false;
  std::string key;    ///< attribute key (kSetNodeAttr)
  std::string value;  ///< new value (kSetNodeAttr)
  std::string prev;   ///< previous value, "" when unset (kSetNodeAttr)
  AttrList attrs;     ///< initial attributes (kAddNode)

  bool Touches(uint64_t id) const {
    return u == id || (type != EvType::kAddNode &&
                       type != EvType::kSetNodeAttr && v == id);
  }
};

struct StreamSpec {
  uint64_t growth_events = 0;
  uint64_t churn_events = 0;
};

std::vector<Ev> GenerateStream(const StreamSpec& spec, uint64_t seed);

/// The library's form of one event.
hgs::Event ToHgs(const Ev& e);
std::vector<hgs::Event> ToHgs(const std::vector<Ev>& events, size_t begin,
                              size_t end);

}  // namespace hgsb

#endif  // HGSBENCH_STREAM_H_
