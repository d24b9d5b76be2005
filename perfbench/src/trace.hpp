#pragma once

// In-memory span recorder for the traced benchmark run. Spans wrap the
// benchmark's own calls into socgen's public API (parseDsl, Flow::run,
// the hls:: passes, OtsuSystemRunner::run, makeSimulator/batchCosim,
// FlowService submit/wait); nothing inside the program is instrumented.
// Spans are kept in memory and written once, at the end of the run.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Span {
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::uint64_t id = 0;       ///< 1-based
    std::uint64_t parent = 0;   ///< 0 = root
    std::uint64_t request = 0;  ///< request the span belongs to (0 = none)
    std::uint32_t thread = 0;
};

class Tracer {
public:
    static Tracer& instance();

    void setEnabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
    [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    /// Opens a span under the calling thread's innermost open span.
    /// `request` 0 inherits the parent's request id.
    std::uint64_t begin(std::string_view name, std::uint64_t request);
    void end(std::uint64_t id);

    [[nodiscard]] std::vector<Span> snapshot() const;
    void clear();

    /// Chrome-trace JSON ("X" events; args carry id, parent, request).
    void writeJson(const std::string& path) const;

private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::atomic<std::uint32_t> nextThread_{0};
    std::atomic<bool> enabled_{false};
};

/// RAII span; does nothing while the tracer is disabled.
class ScopedSpan {
public:
    explicit ScopedSpan(std::string_view name, std::uint64_t request = 0);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    std::uint64_t id_ = 0;
};

/// Self time of every span, in ns and parallel to `spans`: its duration
/// minus the part of its interval covered by the union of its direct
/// children (children clipped to the parent; overlapping children count
/// once).
[[nodiscard]] std::vector<std::int64_t> selfTimesNs(const std::vector<Span>& spans);

/// Per-layer totals. A span's layer is its name up to the first '.'.
struct LayerTime {
    double selfMs = 0.0;
    double totalMs = 0.0;
    std::size_t spans = 0;
};
[[nodiscard]] std::map<std::string, LayerTime> layerTimes(const std::vector<Span>& spans);

/// Per-name totals (same fields, keyed by the full span name).
[[nodiscard]] std::map<std::string, LayerTime> nameTimes(const std::vector<Span>& spans);

} // namespace perfbench
