// Spans recorded by the benchmark around its calls into each layer's public
// functions: name, start, end, parent span and the id of the operation the
// span belongs to. Spans stay in memory and are written out when the run
// ends. A disabled tracer records nothing and costs one branch per span.

#ifndef HGSBENCH_TRACE_H_
#define HGSBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace hgsb {

class Tracer {
 public:
  struct Span {
    const char* name;
    uint64_t op;
    int64_t parent;  ///< index of the parent span, -1 for a root
    int64_t start_ns;
    int64_t end_ns;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its index (-1 when disabled).
  int64_t Begin(const char* name, uint64_t op, int64_t parent);
  void End(int64_t span);

  /// Spans recorded so far; call only when no span is being recorded.
  const std::vector<Span>& spans() const { return spans_; }

  /// Each span's duration minus the part of it its children cover.
  std::vector<int64_t> SelfTimesNs() const;

  /// Writes every span, with its self time, as a JSON array.
  bool WriteJson(const std::string& path) const;

 private:
  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  const bool enabled_;
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, uint64_t op,
             int64_t parent = -1)
      : tracer_(tracer),
        id_(tracer.enabled() ? tracer.Begin(name, op, parent) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) tracer_.End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  const int64_t id_;
};

}  // namespace hgsb

#endif  // HGSBENCH_TRACE_H_
