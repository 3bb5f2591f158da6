#include "trace.h"

#include <cstdio>

#include "common.h"

namespace perfbench {

int32_t Tracer::Begin(const std::string& name, uint64_t request) {
  const int32_t id = static_cast<int32_t>(spans_.size());
  spans_.push_back(Span{name, NowSeconds(), 0.0,
                        open_.empty() ? kNoParent : open_.back(), request});
  open_.push_back(id);
  return id;
}

void Tracer::End(int32_t id) { EndAt(id, NowSeconds()); }

void Tracer::EndAt(int32_t id, double end) {
  spans_[id].end = end;
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Tracer::AddCount(const std::string& name, uint64_t request,
                      double value) {
  counts_.push_back(Count{name, request, value});
}

bool Tracer::Write(const std::string& path, const std::string& label,
                   bool append) const {
  FILE* out = std::fopen(path.c_str(), append ? "a" : "w");
  if (out == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"phase\": \"%s\", \"span\": %zu, \"name\": \"%s\", "
                 "\"start\": %.9f, \"end\": %.9f, \"parent\": %d, "
                 "\"request\": %llu}\n",
                 label.c_str(), i, s.name.c_str(), s.start, s.end, s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  for (const Count& c : counts_) {
    std::fprintf(out,
                 "{\"phase\": \"%s\", \"count\": \"%s\", \"request\": %llu, "
                 "\"value\": %.17g}\n",
                 label.c_str(), c.name.c_str(), static_cast<unsigned long long>(c.request),
                 c.value);
  }
  return std::fclose(out) == 0;
}

double SpanStats::total() const {
  double sum = 0.0;
  for (double s : seconds) sum += s;
  return sum;
}
double SpanStats::mean() const { return Mean(seconds); }
double SpanStats::mean_self() const { return Mean(self_seconds); }

double CountStats::sum() const {
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum;
}
double CountStats::mean() const { return Mean(values); }

const SpanStats& TraceSummary::span(const std::string& name) const {
  static const SpanStats kEmpty;
  auto it = spans.find(name);
  return it == spans.end() ? kEmpty : it->second;
}

const CountStats& TraceSummary::count(const std::string& name) const {
  static const CountStats kEmpty;
  auto it = counts.find(name);
  return it == counts.end() ? kEmpty : it->second;
}

TraceSummary Summarize(const Tracer& tracer) {
  const auto& spans = tracer.spans();
  std::vector<double> child_seconds(spans.size(), 0.0);
  for (const auto& s : spans) {
    if (s.parent != Tracer::kNoParent) child_seconds[s.parent] += s.end - s.start;
  }
  TraceSummary summary;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanStats& stats = summary.spans[spans[i].name];
    const double d = spans[i].end - spans[i].start;
    stats.seconds.push_back(d);
    stats.self_seconds.push_back(d - child_seconds[i]);
  }
  for (const auto& c : tracer.counts()) {
    summary.counts[c.name].values.push_back(c.value);
  }
  return summary;
}

}  // namespace perfbench
