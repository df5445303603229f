// In-memory span recorder for the traced pass. Each span carries a
// name, steady-clock start and end (ns since the recorder was built),
// the span that caused it, and the root span of its unit of work, so
// spans of one tick or batch share an identifier. Nothing is
// written until WriteJson at exit.

#ifndef AUTOGLOBE_PERFBENCH_SPANS_H_
#define AUTOGLOBE_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;  // index into spans(), -1 for a root
    int root = -1;    // index of the root span of the same unit
  };

  SpanRecorder() : origin_ns_(NowNs()) {}

  /// Opens a span as a child of the innermost open span.
  int Begin(const std::string& name) {
    int id = Add(name, NowNs(), 0);
    open_.push_back(id);
    return id;
  }
  void End(int id) {
    spans_[static_cast<size_t>(id)].end_ns = NowNs() - origin_ns_;
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }
  /// Records an already-finished span (absolute steady-clock ns) as a
  /// child of the innermost open span — used for tick spans measured
  /// between two sample-hook calls.
  void Record(const std::string& name, int64_t start_abs_ns,
              int64_t end_abs_ns) {
    Add(name, start_abs_ns, end_abs_ns - origin_ns_);
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes {"spans": [{name, start_ns, end_ns, parent, root}, ...]}.
  bool WriteJson(const std::string& path) const {
    std::FILE* file = std::fopen(path.c_str(), "w");
    if (file == nullptr) return false;
    std::fprintf(file, "{\"spans\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(file,
                   "  {\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld, \"parent\": %d, \"root\": %d}%s\n",
                   i, s.name.c_str(), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent, s.root,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(file, "]}\n");
    return std::fclose(file) == 0;
  }

 private:
  int Add(const std::string& name, int64_t start_abs_ns, int64_t end_ns) {
    Span span;
    span.name = name;
    span.start_ns = start_abs_ns - origin_ns_;
    span.end_ns = end_ns;
    span.parent = open_.empty() ? -1 : open_.back();
    span.root = span.parent < 0
                    ? static_cast<int>(spans_.size())
                    : spans_[static_cast<size_t>(span.parent)].root;
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size()) - 1;
  }

  int64_t origin_ns_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null recorder (untraced pass) records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int id_;
};

}  // namespace perfbench

#endif  // AUTOGLOBE_PERFBENCH_SPANS_H_
