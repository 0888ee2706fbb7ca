#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

int64_t Tracer::Begin(const char* name, uint64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.start = Clock::now();
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  spans_.push_back(span);
  open_.push_back(static_cast<int64_t>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int64_t span) {
  if (span < 0) return;
  spans_[span].end = Clock::now();
  // Scopes close in LIFO order, so `span` is the innermost open one.
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

void Tracer::Record(const char* name, Clock::time_point start,
                    Clock::time_point end, uint64_t request) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.start = start;
  span.end = end;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  spans_.push_back(span);
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>>
      children(spans_.size());
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      children[span.parent].emplace_back(span.start, span.end);
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    double covered = 0.0;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    Clock::time_point cursor = span.start;
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, span.end);
      if (end > start) {
        covered += Seconds(end - start);
        cursor = end;
      }
    }
    self[span.name] += Seconds(span.end - span.start) - covered;
  }
  return self;
}

bool Tracer::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  std::fprintf(f, "[");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%lld,\"request\":%llu}}",
                 i == 0 ? "" : ",", span.name,
                 Seconds(span.start - origin) * 1e6,
                 Seconds(span.end - span.start) * 1e6, i,
                 static_cast<long long>(span.parent),
                 static_cast<unsigned long long>(span.request));
  }
  std::fprintf(f, "\n]\n");
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

}  // namespace perfbench
