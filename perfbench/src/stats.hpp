#pragma once

// Order statistics and the JSON/metric plumbing shared by every workload.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the middle pair for an even count); 0 when empty.
[[nodiscard]] double median(std::vector<double> values);

/// The tail of a latency sample: the highest percentile that still has at
/// least `kTailBeyond` samples above it. With n sorted samples that is
/// the sample of rank n - 10 (1-based), reported as percentile
/// 100 * (n - 10) / n. With n <= 10 no percentile qualifies; the maximum
/// is reported with `beyond` = 0 so the reader sees the rule was unmet.
struct Tail {
    double value = 0.0;
    double percentile = 0.0;
    std::size_t count = 0;   ///< samples in the distribution
    std::size_t beyond = 0;  ///< samples strictly above the reported rank
};
inline constexpr std::size_t kTailBeyond = 10;
[[nodiscard]] Tail tailOf(std::vector<double> values);

/// Steady-clock time in seconds since an arbitrary epoch.
[[nodiscard]] double nowSeconds();

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peakRssMb();

/// Host-speed probe. On a shared host the wall time of the same work
/// drifts by tens of percent within seconds, as neighbours load the
/// physical cores. The probe times three fixed kernels unrelated to
/// socgen (random memory updates, bytecode dispatch, map inserts; best of
/// three each) and returns the host's slowness right now: the mean of
/// each kernel's time over its nominal time. Every timed window of the
/// benchmark is divided by the mean slowness of the probes taken before
/// and after it.
inline constexpr double kProbeNominalMs[3] = {0.36, 0.44, 0.46};
[[nodiscard]] double probeSlowness();

/// Runs `fn` between two probes; returns its wall time in seconds divided
/// by the mean slowness, and the raw wall time in `*rawSeconds`.
[[nodiscard]] double normalisedSeconds(const std::function<void()>& fn, double* rawSeconds);

/// The timed operations of one workload run, grouped into windows. Each
/// window's latencies and rate are scaled by the host-speed probes taken
/// around it; the raw values are kept for the report.
class Measurement {
public:
    Measurement() : previous_(probeSlowness()) {}

    /// One operation of the current window.
    void add(double latencyMs) { pending_.push_back(latencyMs); }
    /// Closes the window: `ops` operations done in `seconds` of wall time.
    /// `scaleRate` false keeps the window's rate raw, for a rate set by
    /// something other than host speed (client think time).
    void endWindow(double ops, double seconds, bool scaleRate = true);

    std::vector<double> latenciesMs;     ///< host-speed normalised
    std::vector<double> windowRates;     ///< normalised operations per second
    std::vector<double> rawLatenciesMs;
    std::vector<double> rawWindowRates;
    std::vector<double> slowness;        ///< per window

private:
    std::vector<double> pending_;
    double previous_;
};

/// One reported metric.
struct Metric {
    double value = 0.0;
    std::string unit;
};

/// Everything a workload run reports. `lines` are the human-readable
/// rows printed before the final JSON line.
struct WorkloadReport {
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> failures;  ///< first few failure messages
    std::map<std::string, Metric> endToEnd;
    std::map<std::string, Metric> perLayer;
    std::vector<std::string> lines;

    void fail(const std::string& why);
    void line(const char* fmt, ...) __attribute__((format(printf, 2, 3)));
};

/// Workload knobs from the command line.
struct RunConfig {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spansOut;  ///< trace mode: where to write the span file
};

/// Renders `value` as a JSON number with full precision (never NaN/inf).
[[nodiscard]] std::string jsonNumber(double value);
/// Escapes `text` as a JSON string literal, quotes included.
[[nodiscard]] std::string jsonString(const std::string& text);

} // namespace perfbench
