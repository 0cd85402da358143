// In-memory span log of the traced benchmark run.
//
// The benchmark records spans in its own code around each call into a
// layer's public entry point; the library's internal trace recorder stays
// off. Spans are appended to a vector and written out once, when the run
// ends. Nesting follows the scope stack: a span opened while another is
// open becomes its child, and a layer's self time is its span's duration
// minus the time its direct children cover.
//
// Not thread-safe: every span is opened and closed on the benchmark's main
// thread (library worker threads record nothing here).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";      // static string: the layer entry point
  std::int32_t parent = -1;   // index of the enclosing span, -1 at the root
  std::uint64_t request = 0;  // shared by every span of one operation
  double start_s = 0.0;       // seconds since the log was created
  double end_s = 0.0;
};

class SpanLog {
 public:
  using Clock = std::chrono::steady_clock;

  explicit SpanLog(bool enabled);

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// RAII span; a no-op when the log is disabled.
  class Scope {
   public:
    Scope(SpanLog* log, const char* name, std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    std::int32_t index_ = -1;
  };

  [[nodiscard]] Scope span(const char* name, std::uint64_t request = 0) {
    return Scope(enabled_ ? this : nullptr, name, request);
  }

  /// Record a span measured elsewhere (a request's submit -> reply window).
  void record(const char* name, std::uint64_t request, Clock::time_point t0,
              Clock::time_point t1);

  /// Per span name: summed duration and summed self time, seconds.
  struct Totals {
    double total_s = 0.0;
    double self_s = 0.0;
  };
  [[nodiscard]] std::map<std::string, Totals> totals() const;

  /// Chrome trace_event JSON (one "X" event per span; args carry the
  /// request id and the parent index).
  [[nodiscard]] bool write_chrome_json(const std::string& path) const;

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

 private:
  [[nodiscard]] double since_origin(Clock::time_point t) const {
    return std::chrono::duration<double>(t - origin_).count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<std::int32_t> open_;  // stack of open span indices
};

}  // namespace perfbench
