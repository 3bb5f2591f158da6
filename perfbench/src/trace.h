// In-memory tracing for the traced run: spans (name, start, end, parent,
// request id) and counts recorded around the benchmark's calls into each
// layer's public functions, written out when the run ends, and a
// summarizer that turns them into per-layer times and self times.
//
// Spans are recorded from one thread. A replayed layer call is recorded
// as a child of the serving call it stands in for, even though it runs
// after it: the replay is the stand-in for child spans until the program
// traces itself, and a span's self time is its duration minus its
// children's durations.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  static constexpr int32_t kNoParent = -1;

  struct Span {
    std::string name;
    double start;
    double end;
    int32_t parent;
    uint64_t request;
  };
  struct Count {
    std::string name;
    uint64_t request;
    double value;
  };

  /// Opens a span under the innermost open span; returns its id.
  int32_t Begin(const std::string& name, uint64_t request);
  void End(int32_t id);
  /// Closes span `id` with an end time taken earlier: the span then covers
  /// the measured call while layer replays run as its children.
  void EndAt(int32_t id, double end);
  void AddCount(const std::string& name, uint64_t request, double value);

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<Count>& counts() const { return counts_; }

  /// Writes one JSON object per line, spans then counts, each tagged with
  /// `label` (the phase that recorded it).
  bool Write(const std::string& path, const std::string& label,
             bool append) const;

 private:
  std::vector<Span> spans_;
  std::vector<Count> counts_;
  std::vector<int32_t> open_;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, uint64_t request)
      : tracer_(tracer),
        id_(tracer == nullptr ? Tracer::kNoParent
                              : tracer->Begin(name, request)) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

/// Per span name: how often it ran, its durations and self times.
struct SpanStats {
  std::vector<double> seconds;
  std::vector<double> self_seconds;
  double total() const;
  double mean() const;
  double mean_self() const;
};

/// Per count name: every recorded value.
struct CountStats {
  std::vector<double> values;
  double sum() const;
  double mean() const;
};

struct TraceSummary {
  std::map<std::string, SpanStats> spans;
  std::map<std::string, CountStats> counts;
  /// Empty stats for names that never occurred.
  const SpanStats& span(const std::string& name) const;
  const CountStats& count(const std::string& name) const;
};

TraceSummary Summarize(const Tracer& tracer);

}  // namespace perfbench
