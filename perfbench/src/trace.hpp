// In-memory span tracer for the benchmark's traced run.
//
// A span brackets one call into a library layer, opened and closed from
// the benchmark's own files (nothing inside the library is instrumented).
// Spans nest: a span opened while another is open records it as its
// parent. Every span stays in memory until the run ends, when totals()
// folds them per name into count, total time and self time — a span's
// duration minus the time its direct children cover.
//
// A disabled tracer records nothing; Scope then costs one branch, so the
// untraced runs that produce the end-to-end numbers carry no spans.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the monotonic clock.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;

  struct Span {
    std::uint32_t name = 0;
    std::uint32_t parent = kNoParent;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  struct Totals {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  explicit Tracer(bool enabled = false) : enabled_(enabled) {}

  bool enabled() const noexcept { return enabled_; }

  /// Id of `name`, registering it on first use. Intern names outside hot
  /// loops and pass the id to Scope.
  std::uint32_t intern(const std::string& name);

  /// Open a span now; returns its index. Only valid while enabled.
  std::uint32_t open(std::uint32_t name);
  /// Close the innermost open span, which must be `span`.
  void close(std::uint32_t span);

  const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Spans whose interval leaves their parent's interval, or that are
  /// still open. Zero for every well-formed trace.
  std::uint64_t nesting_violations() const;

  /// Per-name totals over every closed span (an open span's time is not
  /// known yet, so it counts neither as a span nor as a child).
  std::map<std::string, Totals> totals() const;

 private:
  std::vector<bool> open_mask() const;

  bool enabled_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, std::uint32_t> ids_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;
};

/// RAII span: opens on construction, closes on destruction. A no-op when
/// the tracer is disabled.
class Scope {
 public:
  Scope(Tracer& tracer, std::uint32_t name) : tracer_(tracer) {
    if (tracer_.enabled()) span_ = tracer_.open(name);
  }
  ~Scope() {
    if (tracer_.enabled()) tracer_.close(span_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  std::uint32_t span_ = 0;
};

}  // namespace perfbench
