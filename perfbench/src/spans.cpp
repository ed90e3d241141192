#include "spans.hpp"

#include <algorithm>
#include <fstream>

namespace perfbench {
namespace {

thread_local std::int64_t t_current = -1;

}  // namespace

void SpanLog::close(const SpanRecord& record) {
  const std::lock_guard<std::mutex> lock(mutex_);
  records_.push_back(record);
}

std::vector<SpanRecord> SpanLog::records() const {
  std::vector<SpanRecord> out;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    out = records_;
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) { return a.id < b.id; });
  return out;
}

std::map<std::string, SpanTotals> SpanLog::totals(
    const std::vector<SpanRecord>& records) {
  std::int64_t max_id = -1;
  for (const SpanRecord& r : records) max_id = std::max(max_id, r.id);
  std::vector<std::int64_t> child_ns(static_cast<std::size_t>(max_id + 1), 0);
  for (const SpanRecord& r : records) {
    if (r.parent >= 0) {
      child_ns[static_cast<std::size_t>(r.parent)] += r.end_ns - r.start_ns;
    }
  }
  std::map<std::string, SpanTotals> out;
  for (const SpanRecord& r : records) {
    const std::int64_t duration = r.end_ns - r.start_ns;
    const std::int64_t children = child_ns[static_cast<std::size_t>(r.id)];
    SpanTotals& t = out[r.name];
    ++t.calls;
    t.child_ns += children;
    t.self_ns += std::max<std::int64_t>(
        0, duration - children / static_cast<std::int64_t>(r.width));
  }
  return out;
}

void SpanLog::write_tsv(const std::string& path) const {
  std::ofstream out(path);
  out << "id\tparent\trequest\tname\tstart_ns\tend_ns\n";
  for (const SpanRecord& r : records()) {
    out << r.id << '\t' << r.parent << '\t' << r.request << '\t' << r.name
        << '\t' << r.start_ns << '\t' << r.end_ns << '\n';
  }
}

Span::Span(SpanLog* log, const char* name, std::uint64_t request,
           unsigned width)
    : Span(log, name, request, t_current) {
  record_.width = width;
}

Span::Span(SpanLog* log, const char* name, std::uint64_t request,
           std::int64_t parent)
    : log_(log) {
  if (log_ == nullptr) return;
  record_.id = log_->open_id();
  record_.parent = parent;
  record_.request = request;
  record_.name = name;
  saved_current_ = t_current;
  t_current = record_.id;
  record_.start_ns = now_ns();
}

Span::~Span() {
  if (log_ == nullptr) return;
  record_.end_ns = now_ns();
  t_current = saved_current_;
  log_->close(record_);
}

}  // namespace perfbench
