// Host-clock spans around the driver's calls into each qrdtm layer.
//
// Every call the driver makes into a layer goes through a Timed scope: it
// always measures the call's host seconds (the phase numbers of untraced
// runs come from it), and when the HostTrace is enabled it also records a
// span with a name, start, end and parent.  Spans stay in memory and are
// written as one Chrome trace-event JSON file when the run ends; all spans
// of one run carry the same run id.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

class HostTrace {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;  // relative to the trace origin
    std::int64_t end_ns = 0;
    int parent = -1;  // index into spans(), -1 = top level
  };

  HostTrace(bool enabled, std::uint64_t run_id)
      : enabled_(enabled), run_id_(run_id), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  std::uint64_t run_id() const { return run_id_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Open a span under the innermost open one; returns its index, or -1
  /// when tracing is off.
  int open(std::string name);
  /// Close span `idx` (a no-op for -1).
  void close(int idx);

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  std::string chrome_json() const;
  bool write(const std::string& path) const;

 private:
  std::int64_t now_ns() const;

  bool enabled_;
  std::uint64_t run_id_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Times one layer call.  stop() closes the span and returns the elapsed
/// host seconds; the destructor stops a scope that was not stopped.
class Timed {
 public:
  Timed(HostTrace& trace, std::string name)
      : trace_(trace), span_(trace.open(std::move(name))),
        start_(Clock::now()) {}
  ~Timed() { stop(); }

  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;

  double stop() {
    if (!stopped_) {
      elapsed_ = std::chrono::duration<double>(Clock::now() - start_).count();
      trace_.close(span_);
      stopped_ = true;
    }
    return elapsed_;
  }

 private:
  HostTrace& trace_;
  int span_;
  Clock::time_point start_;
  double elapsed_ = 0;
  bool stopped_ = false;
};

}  // namespace perfbench
