#pragma once

// The four workloads and the per-layer accumulators they share.

#include "stats.hpp"

#include "socgen/core/flow.hpp"
#include "socgen/hls/directives.hpp"
#include "socgen/hls/ir.hpp"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// A workload's knobs and the directories it may write.
struct WorkloadContext {
    RunConfig config;
    std::string workDir;  ///< working directory inside the checkout, removed after the run
    std::string keepDir;  ///< directory for files the benchmark never deletes
};

[[nodiscard]] WorkloadReport runCompileCold(const WorkloadContext& ctx);
[[nodiscard]] WorkloadReport runSocRun(const WorkloadContext& ctx);
[[nodiscard]] WorkloadReport runRtlCosim(const WorkloadContext& ctx);
[[nodiscard]] WorkloadReport runServiceMixed(const WorkloadContext& ctx);

/// Set-up repetitions: host-speed normalised and raw wall seconds.
struct SetupTimes {
    std::vector<double> seconds;
    std::vector<double> rawSeconds;

    void run(const std::function<void()>& setup) {
        double raw = 0.0;
        seconds.push_back(normalisedSeconds(setup, &raw));
        rawSeconds.push_back(raw);
    }
};

/// Fills the end-to-end metrics every workload reports: set-up time
/// (median of the repetitions), operations per second (median of the
/// windows), p50 and tail latency, peak RSS. Timings are host-speed
/// normalised; the human-readable rows also give the raw values.
/// `alias`, when set, also prints the rate and latencies under the
/// workload's own names (`<alias>_flows_per_s`, `<alias>_p50_ms`, ...).
void reportEndToEnd(WorkloadReport& report, const char* opName, const char* alias,
                    const SetupTimes& setup, const Measurement& measurement);

/// Per-layer view of core::Flow runs, built from FlowResult.diagnostics:
/// stage wall times, Flow::run overhead, HLS reuse and modeled tool time.
class FlowLedger {
public:
    /// `wallMs` is the measured Flow::run wall time of the flow whose
    /// diagnostics these are; `tclBytes` the size of its Tcl script.
    void add(const socgen::core::FlowDiagnostics& diagnostics, double wallMs,
             std::size_t tclBytes);
    void add(const socgen::core::FlowResult& result, double wallMs) {
        add(result.diagnostics, wallMs, result.tclText.size());
    }
    /// Writes core.flow.*, sw.* and soc.tcl.bytes. `toolSeconds` is the
    /// deterministic modeled tool time the caller summed over its fixed
    /// check set (reported apart from host time).
    void emit(WorkloadReport& report, double toolSeconds) const;
    [[nodiscard]] std::size_t flows() const { return flows_; }

private:
    std::size_t flows_ = 0;
    double stageMs_[8] = {};
    double overheadMs_ = 0.0;
    double tclBytes_ = 0.0;
    std::size_t hlsStages_ = 0;
    std::size_t hlsReused_ = 0;
};

/// Times single passes the flow runs as one stage, by calling them one by
/// one under spans (traced runs only). kernel() replays
/// HlsEngine::synthesize's pass order (hls.verify, hls.unroll,
/// hls.optimize, hls.schedule, hls.bind, hls.rtlgen, rtl.emit_vhdl,
/// rtl.emit_verilog, hls.bytecode, hls.price) after one timed engine call
/// (hls.synthesize) and counts the work; synthesis() splits the synth
/// stage into soc.synth and soc.bitstream.
class PassReplay {
public:
    void kernel(const socgen::hls::Kernel& kernel, const socgen::hls::Directives& directives);
    void synthesis(const socgen::soc::BlockDesign& design);
    /// Writes the hls.*, rtl.emit_* and soc.{synth,bitstream} metrics (ms
    /// per replayed kernel or design, from the recorded spans; counts
    /// summed over the replayed kernels).
    void emit(WorkloadReport& report) const;

private:
    std::size_t designs_ = 0;
    std::size_t kernels_ = 0;
    double statements_ = 0.0;
    double cells_ = 0.0;
    double hdlBytes_ = 0.0;
    double optApplied_ = 0.0;
    double unrollCopies_ = 0.0;
};

} // namespace perfbench
