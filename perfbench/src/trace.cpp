#include "trace.hpp"

#include <stdexcept>

namespace perfbench {

std::uint32_t Tracer::intern(const std::string& name) {
  const auto [it, inserted] =
      ids_.try_emplace(name, static_cast<std::uint32_t>(names_.size()));
  if (inserted) names_.push_back(name);
  return it->second;
}

std::uint32_t Tracer::open(std::uint32_t name) {
  const auto index = static_cast<std::uint32_t>(spans_.size());
  Span span;
  span.name = name;
  span.parent = open_.empty() ? kNoParent : open_.back();
  span.start_ns = now_ns();
  spans_.push_back(span);
  open_.push_back(index);
  return index;
}

void Tracer::close(std::uint32_t span) {
  if (open_.empty() || open_.back() != span) {
    throw std::logic_error("perfbench: spans closed out of order");
  }
  open_.pop_back();
  spans_[span].end_ns = now_ns();
}

std::vector<bool> Tracer::open_mask() const {
  std::vector<bool> mask(spans_.size(), false);
  for (const std::uint32_t index : open_) mask[index] = true;
  return mask;
}

std::uint64_t Tracer::nesting_violations() const {
  std::uint64_t violations = open_.size();
  const std::vector<bool> still_open = open_mask();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (still_open[i] || (span.parent != kNoParent && still_open[span.parent])) {
      continue;
    }
    if (span.end_ns < span.start_ns) ++violations;
    if (span.parent == kNoParent) continue;
    const Span& parent = spans_[span.parent];
    if (span.start_ns < parent.start_ns || span.end_ns > parent.end_ns) {
      ++violations;
    }
  }
  return violations;
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  const std::vector<bool> still_open = open_mask();
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (!still_open[i] && span.parent != kNoParent) {
      child_ns[span.parent] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (still_open[i]) continue;
    const Span& span = spans_[i];
    const std::int64_t duration = span.end_ns - span.start_ns;
    Totals& totals = out[names_[span.name]];
    ++totals.count;
    totals.total_s += static_cast<double>(duration) * 1e-9;
    totals.self_s += static_cast<double>(duration - child_ns[i]) * 1e-9;
  }
  return out;
}

}  // namespace perfbench
