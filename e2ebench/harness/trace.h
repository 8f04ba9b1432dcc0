// Spans recorded by the benchmark around each layer call it makes.
//
// A span has a name (the public call), a layer (the library directory the
// call belongs to), start and end times, the span that was open when it
// began (its parent) and the operation id it belongs to (one pipeline or
// one query). Spans stay in memory and are written out once, when the run
// ends. A disabled tracer records nothing: ScopedSpan then costs one
// branch, which is what the untraced, measured runs execute.
#ifndef E2EBENCH_TRACE_H_
#define E2EBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name = "";
  const char* layer = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  int64_t op = -1;

  double seconds() const { return (end_ns - start_ns) * 1e-9; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // Spans begun from now on belong to operation `op`.
  void set_op(int64_t op) { op_ = op; }

  int32_t Begin(const char* name, const char* layer) {
    SpanRecord span;
    span.name = name;
    span.layer = layer;
    span.parent = open_.empty() ? -1 : open_.back();
    span.op = op_;
    span.start_ns = NowNs();
    spans_.push_back(span);
    const int32_t id = static_cast<int32_t>(spans_.size()) - 1;
    open_.push_back(id);
    return id;
  }

  void End(int32_t id) {
    spans_[id].end_ns = NowNs();
    open_.pop_back();
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

  // Self time per layer, summed over the spans of measured operations
  // (op >= 0): each span's duration minus the time its direct children
  // cover (children never overlap: the benchmark calls one layer at a time
  // from one thread).
  std::map<std::string, double> SelfSecondsByLayer() const {
    std::vector<double> child_seconds(spans_.size(), 0.0);
    for (const SpanRecord& span : spans_) {
      if (span.parent >= 0) child_seconds[span.parent] += span.seconds();
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].op < 0) continue;
      out[spans_[i].layer] += spans_[i].seconds() - child_seconds[i];
    }
    return out;
  }

  // One JSON object per line: name, layer, start/end (ns, relative to the
  // first span), parent index and operation id.
  bool WriteJsonLines(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
    for (const SpanRecord& span : spans_) {
      out << "{\"name\":\"" << span.name << "\",\"layer\":\"" << span.layer
          << "\",\"start_ns\":" << span.start_ns - origin
          << ",\"end_ns\":" << span.end_ns - origin
          << ",\"parent\":" << span.parent << ",\"op\":" << span.op << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  bool enabled_;
  int64_t op_ = -1;
  std::vector<SpanRecord> spans_;
  std::vector<int32_t> open_;
};

// Records one span for the lifetime of the object when the tracer is on.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, const char* layer)
      : tracer_(tracer->enabled() ? tracer : nullptr),
        id_(tracer_ != nullptr ? tracer_->Begin(name, layer) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_TRACE_H_
