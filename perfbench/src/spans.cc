#include "spans.h"

#include <fstream>
#include <iomanip>

namespace perfbench {

SpanLog::SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {
  if (enabled_) spans_.reserve(1 << 16);
}

SpanLog::Scope::Scope(SpanLog* log, const char* name, std::uint64_t request)
    : log_(log) {
  if (log_ == nullptr) return;
  SpanRecord r;
  r.name = name;
  r.parent = log_->open_.empty() ? -1 : log_->open_.back();
  r.request = request;
  index_ = static_cast<std::int32_t>(log_->spans_.size());
  log_->spans_.push_back(r);
  log_->open_.push_back(index_);
  // Read the clock last so the bookkeeping above is outside the span.
  log_->spans_.back().start_s = log_->since_origin(Clock::now());
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  const double end = log_->since_origin(Clock::now());
  log_->spans_[static_cast<std::size_t>(index_)].end_s = end;
  log_->open_.pop_back();
}

void SpanLog::record(const char* name, std::uint64_t request,
                     Clock::time_point t0, Clock::time_point t1) {
  if (!enabled_) return;
  SpanRecord r;
  r.name = name;
  r.request = request;
  r.start_s = since_origin(t0);
  r.end_s = since_origin(t1);
  spans_.push_back(r);
}

std::map<std::string, SpanLog::Totals> SpanLog::totals() const {
  // Children of one parent run sequentially on the main thread, so the time
  // they cover is the sum of their durations.
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const SpanRecord& s : spans_)
    if (s.parent >= 0)
      child_time[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double d = spans_[i].end_s - spans_[i].start_s;
    Totals& t = out[spans_[i].name];
    t.total_s += d;
    t.self_s += d - child_time[i];
  }
  return out;
}

bool SpanLog::write_chrome_json(const std::string& path) const {
  std::ofstream f(path, std::ios::out | std::ios::trunc);
  if (!f) return false;
  f << "{\"traceEvents\":[";
  f << std::setprecision(15);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    f << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
      << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start_s * 1e6
      << ",\"dur\":" << (s.end_s - s.start_s) * 1e6
      << ",\"args\":{\"request\":" << s.request << ",\"span\":" << i
      << ",\"parent\":" << s.parent << "}}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

}  // namespace perfbench
