#include "trace.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace hgsb {

int64_t Tracer::Begin(const char* name, uint64_t op, int64_t parent) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, op, parent, now, now});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t span) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(span)].end_ns = now;
}

std::vector<int64_t> Tracer::SelfTimesNs() const {
  std::vector<std::vector<size_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<size_t>(spans_[i].parent)].push_back(i);
    }
  }
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Children may overlap (parallel workers): subtract their union.
    std::vector<std::pair<int64_t, int64_t>> cover;
    for (size_t c : children[i]) {
      cover.emplace_back(std::max(spans_[c].start_ns, s.start_ns),
                         std::min(spans_[c].end_ns, s.end_ns));
    }
    std::sort(cover.begin(), cover.end());
    int64_t covered = 0;
    int64_t reach = s.start_ns;
    for (auto [lo, hi] : cover) {
      lo = std::max(lo, reach);
      if (hi > lo) {
        covered += hi - lo;
        reach = hi;
      }
    }
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<int64_t> self = SelfTimesNs();
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"op\": %" PRIu64
                 ", \"parent\": %" PRId64 ", \"start_ns\": %" PRId64
                 ", \"end_ns\": %" PRId64 ", \"self_ns\": %" PRId64 "}%s\n",
                 i, s.name, s.op, s.parent, s.start_ns, s.end_ns, self[i],
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

}  // namespace hgsb
