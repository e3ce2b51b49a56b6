#include "stream.h"

#include <unordered_map>

namespace hgsb {

namespace {

constexpr const char* kKinds[] = {"article", "stub", "list", "portal"};
constexpr const char* kLangs[] = {"de", "en", "fr", "ja"};

uint64_t EdgeCode(uint64_t a, uint64_t b) {
  return a < b ? (a << 32) | b : (b << 32) | a;
}

class Generator {
 public:
  explicit Generator(uint64_t seed) : rng_(seed) {}

  std::vector<Ev> Run(const StreamSpec& spec) {
    out_.reserve(spec.growth_events + spec.churn_events);
    AddNode();
    AddNode();
    while (out_.size() < spec.growth_events) GrowthStep();
    const size_t end = spec.growth_events + spec.churn_events;
    while (out_.size() < end) ChurnStep();
    return std::move(out_);
  }

 private:
  int64_t Tick() {
    t_ += 1 + static_cast<int64_t>(rng_.Uniform(3));
    return t_;
  }

  void AddNode() {
    Ev e;
    e.t = Tick();
    e.type = EvType::kAddNode;
    e.u = views_.size();
    std::string kind = kKinds[rng_.Uniform(4)];
    e.attrs = {{"kind", kind}, {"lang", kLangs[rng_.Uniform(4)]}};
    views_.emplace_back();
    kinds_.push_back(std::move(kind));
    out_.push_back(std::move(e));
  }

  void SetAttr() {
    Ev e;
    e.t = Tick();
    e.type = EvType::kSetNodeAttr;
    e.u = rng_.Uniform(views_.size());
    std::string* slot;
    if (rng_.Double() < 0.8) {
      e.key = "views";
      e.value = std::to_string(rng_.Uniform(1'000'000));
      slot = &views_[e.u];
    } else {
      e.key = "kind";
      e.value = kKinds[rng_.Uniform(4)];
      slot = &kinds_[e.u];
    }
    e.prev = *slot;
    *slot = e.value;
    out_.push_back(std::move(e));
  }

  bool AddEdge(uint64_t src, uint64_t dst, bool directed) {
    if (src == dst || edge_index_.contains(EdgeCode(src, dst))) return false;
    Ev e;
    e.t = Tick();
    e.type = EvType::kAddEdge;
    e.u = src;
    e.v = dst;
    e.directed = directed;
    edge_index_.emplace(EdgeCode(src, dst), edges_.size());
    edges_.emplace_back(src, dst);
    endpoints_.push_back(src);
    endpoints_.push_back(dst);
    out_.push_back(std::move(e));
    return true;
  }

  void RemoveRandomEdge() {
    size_t idx = rng_.Uniform(edges_.size());
    auto [src, dst] = edges_[idx];
    Ev e;
    e.t = Tick();
    e.type = EvType::kRemoveEdge;
    e.u = src;
    e.v = dst;
    edge_index_.erase(EdgeCode(src, dst));
    if (idx + 1 != edges_.size()) {
      edges_[idx] = edges_.back();
      edge_index_[EdgeCode(edges_[idx].first, edges_[idx].second)] = idx;
    }
    edges_.pop_back();
    out_.push_back(std::move(e));
  }

  /// A node drawn by preferential attachment (an endpoint of a past edge)
  /// with probability `pa`, else uniformly.
  uint64_t Pick(double pa) {
    if (!endpoints_.empty() && rng_.Double() < pa) {
      return endpoints_[rng_.Uniform(endpoints_.size())];
    }
    return rng_.Uniform(views_.size());
  }

  void GrowthStep() {
    double roll = rng_.Double();
    if (roll < 0.15) return AddNode();
    if (roll < 0.22) return SetAttr();
    // A recent node cites a popular older one.
    const uint64_t n = views_.size();
    const uint64_t window = n / 10 > 0 ? n / 10 : 1;
    for (int attempt = 0; attempt < 4; ++attempt) {
      uint64_t src = n - 1 - rng_.Uniform(window);
      if (AddEdge(src, Pick(0.75), /*directed=*/true)) return;
    }
    AddNode();
  }

  void ChurnStep() {
    double roll = rng_.Double();
    if (roll < 0.05) return SetAttr();
    if (roll < 0.50 && !edges_.empty()) return RemoveRandomEdge();
    for (int attempt = 0; attempt < 4; ++attempt) {
      if (AddEdge(Pick(0.5), rng_.Uniform(views_.size()), false)) return;
    }
    SetAttr();
  }

  SplitMix rng_;
  int64_t t_ = 1000;
  std::vector<Ev> out_;
  std::vector<std::string> views_;  ///< current "views" per node ("" unset)
  std::vector<std::string> kinds_;  ///< current "kind" per node
  std::vector<std::pair<uint64_t, uint64_t>> edges_;  ///< live (src, dst)
  std::unordered_map<uint64_t, size_t> edge_index_;   ///< code -> edges_ slot
  std::vector<uint64_t> endpoints_;  ///< every endpoint of every edge added
};

}  // namespace

std::vector<Ev> GenerateStream(const StreamSpec& spec, uint64_t seed) {
  return Generator(seed * 0x2545F4914F6CDD1Dull + 0x1234567).Run(spec);
}

hgs::Event ToHgs(const Ev& e) {
  switch (e.type) {
    case EvType::kAddNode: {
      hgs::Attributes attrs;
      for (const auto& [k, v] : e.attrs) attrs.Set(k, v);
      return hgs::Event::AddNode(e.t, e.u, std::move(attrs));
    }
    case EvType::kAddEdge:
      return hgs::Event::AddEdge(e.t, e.u, e.v, e.directed);
    case EvType::kRemoveEdge:
      return hgs::Event::RemoveEdge(e.t, e.u, e.v);
    case EvType::kSetNodeAttr:
      return hgs::Event::SetNodeAttr(e.t, e.u, e.key, e.value, e.prev);
  }
  return {};
}

std::vector<hgs::Event> ToHgs(const std::vector<Ev>& events, size_t begin,
                              size_t end) {
  std::vector<hgs::Event> out;
  out.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) out.push_back(ToHgs(events[i]));
  return out;
}

}  // namespace hgsb
