#include "host_trace.h"

#include <cstdio>
#include <fstream>

namespace perfbench {

std::int64_t HostTrace::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int HostTrace::open(std::string name) {
  if (!enabled_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{std::move(name), now_ns(), 0, parent});
  const int idx = static_cast<int>(spans_.size()) - 1;
  open_.push_back(idx);
  return idx;
}

void HostTrace::close(int idx) {
  if (idx < 0) return;
  spans_[static_cast<std::size_t>(idx)].end_ns = now_ns();
  // Scopes nest, so the span being closed is the innermost open one.
  if (!open_.empty() && open_.back() == idx) open_.pop_back();
}

std::string HostTrace::chrome_json() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out += ',';
    out += "{\"name\":\"";
    out += s.name;  // driver-chosen ASCII names, nothing to escape
    std::snprintf(buf, sizeof buf,
                  "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"run_id\":%llu,\"span\":%zu,"
                  "\"parent\":%d}}",
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(run_id_), i, s.parent);
    out += buf;
  }
  out += "]}\n";
  return out;
}

bool HostTrace::write(const std::string& path) const {
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  f << chrome_json();
  return static_cast<bool>(f);
}

}  // namespace perfbench
