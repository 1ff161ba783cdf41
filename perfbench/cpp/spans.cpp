#include "spans.h"

#include <algorithm>
#include <fstream>
#include <map>

namespace perfbench {

std::uint32_t SpanLog::add(const char* name, std::uint32_t parent,
                           std::uint64_t trial, std::int64_t start_ns,
                           std::int64_t end_ns) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= capacity_) {
    ++dropped_;
    if (parent < spans_.size()) spans_[parent].truncated = true;
    return kNone;
  }
  spans_.push_back({name, parent, trial, start_ns, end_ns});
  return static_cast<std::uint32_t>(spans_.size() - 1);
}

std::uint32_t SpanLog::open(const char* name, std::uint32_t parent,
                            std::uint64_t trial) {
  const std::int64_t now = now_ns();
  return add(name, parent, trial, now, now);
}

void SpanLog::close(std::uint32_t id) {
  const std::int64_t now = now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  if (id < spans_.size()) spans_[id].end_ns = now;
}

std::vector<Span> SpanLog::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::size_t SpanLog::dropped() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

bool SpanLog::write_tsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "id\tparent\ttrial\tname\tstart_ns\tend_ns\ttruncated\n";
  const std::vector<Span> spans = snapshot();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << i << '\t'
        << (s.parent == kNone ? -1LL : static_cast<long long>(s.parent))
        << '\t' << s.trial << '\t' << s.name << '\t' << s.start_ns << '\t'
        << s.end_ns << '\t' << (s.truncated ? 1 : 0) << '\n';
  }
  return static_cast<bool>(out);
}

std::int64_t covered_ns(
    std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
    std::int64_t lo, std::int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t reach = lo;  // everything before `reach` is already counted
  for (const auto& [start, end] : intervals) {
    const std::int64_t s = std::max(start, reach);
    const std::int64_t e = std::min(end, hi);
    if (e > s) {
      covered += e - s;
      reach = e;
    }
  }
  return covered;
}

std::vector<SelfTime> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < spans.size()) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, SelfTime> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.truncated) continue;
    const auto total = static_cast<double>(s.end_ns - s.start_ns);
    const auto child = static_cast<double>(
        covered_ns(std::move(children[i]), s.start_ns, s.end_ns));
    SelfTime& entry = by_name[s.name];
    entry.name = s.name;
    ++entry.count;
    entry.total_ns += total;
    entry.self_ns += total - child;
  }
  std::vector<SelfTime> out;
  out.reserve(by_name.size());
  for (auto& [name, entry] : by_name) out.push_back(std::move(entry));
  return out;
}

}  // namespace perfbench
