// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded only from the benchmark's own code, around its calls
// into the program's layers (the program itself is not instrumented).
// Each span has a name, start, end, the span that caused it, and the id
// of the request it belongs to (0 = none), so the spans of one request
// can be grouped. Recording happens on one thread; with tracing off every
// call is a cheap no-op. Spans are kept in memory and written out once,
// when the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

class Tracer {
 public:
  struct Span {
    const char* name = "";
    Clock::time_point start{};
    Clock::time_point end{};
    int64_t parent = -1;  // index into spans(); -1 = root
    uint64_t request = 0;
  };

  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Opens a span nested in the innermost open one. Returns its index
  /// (-1 when tracing is off).
  int64_t Begin(const char* name, uint64_t request = 0);
  void End(int64_t span);

  /// Records a finished span that does not nest in the open stack, such
  /// as one request's send -> receive interval.
  void Record(const char* name, Clock::time_point start,
              Clock::time_point end, uint64_t request);

  const std::vector<Span>& spans() const { return spans_; }

  /// Total self time per span name: each span's duration minus the part
  /// of it that its child spans cover.
  std::map<std::string, double> SelfSeconds() const;

  /// Writes the spans as a Chrome trace-event JSON array.
  bool WriteJson(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

/// The process-wide tracer.
Tracer& GlobalTracer();

/// RAII span around one call into a layer.
class Scope {
 public:
  explicit Scope(const char* name, uint64_t request = 0)
      : span_(GlobalTracer().Begin(name, request)) {}
  ~Scope() { GlobalTracer().End(span_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int64_t span_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
