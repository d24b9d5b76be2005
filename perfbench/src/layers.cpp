#include "trace.hpp"
#include "workloads.hpp"

#include "socgen/hls/bytecode.hpp"
#include "socgen/hls/codegen.hpp"
#include "socgen/hls/engine.hpp"
#include "socgen/hls/optimize.hpp"
#include "socgen/hls/unroll.hpp"
#include "socgen/hls/verify.hpp"
#include "socgen/rtl/verilog.hpp"
#include "socgen/rtl/vhdl.hpp"
#include "socgen/soc/bitstream.hpp"
#include "socgen/soc/synthesis.hpp"

#include <algorithm>

namespace perfbench {

void reportEndToEnd(WorkloadReport& report, const char* opName, const char* alias,
                    const SetupTimes& setup, const Measurement& m) {
    const Tail tail = tailOf(m.latenciesMs);
    const Tail rawTail = tailOf(m.rawLatenciesMs);
    report.endToEnd["setup_s"] = {median(setup.seconds), "s"};
    report.endToEnd["ops_per_s"] = {median(m.windowRates), "1/s"};
    report.endToEnd["p50_ms"] = {median(m.latenciesMs), "ms"};
    report.perLayer["op.tail_ms"] = {tail.value, "ms"};
    report.endToEnd["peak_rss_mb"] = {peakRssMb(), "MB"};
    report.line("operation: %s", opName);
    report.line("%-12s %14s %14s", "metric", "normalised", "raw");
    report.line("%-12s %14.6f %14.6f s    (median of %zu set-ups)", "setup_s",
                median(setup.seconds), median(setup.rawSeconds), setup.seconds.size());
    report.line("%-12s %14.3f %14.3f 1/s  (median of %zu windows)", "ops_per_s",
                median(m.windowRates), median(m.rawWindowRates), m.windowRates.size());
    report.line("%-12s %14.4f %14.4f ms   (%zu samples)", "p50_ms", median(m.latenciesMs),
                median(m.rawLatenciesMs), m.latenciesMs.size());
    report.line("%-12s %14.4f %14.4f ms   (p%.2f of %zu samples, %zu beyond)", "tail_ms",
                tail.value, rawTail.value, tail.percentile, tail.count, tail.beyond);
    report.line("%-12s %14.2f %14s MB", "peak_rss_mb", report.endToEnd["peak_rss_mb"].value,
                "");
    report.line("host slowness %.3f (median over windows; probe time over nominal)",
                median(m.slowness));
    report.perLayer["host.slowness"] = {median(m.slowness), "ratio"};
    if (alias != nullptr) {
        report.line("%s_flows_per_s %12.3f 1/s", alias, report.endToEnd["ops_per_s"].value);
        report.line("%s_p50_ms      %12.4f ms", alias, report.endToEnd["p50_ms"].value);
        report.line("%s_tail_ms     %12.4f ms", alias, tail.value);
    }
}

namespace {

constexpr const char* kStageNames[8] = {"scala",      "hls",     "integrate", "synth",
                                        "devicetree", "drivers", "boot",      "artifacts"};

int stageIndex(const std::string& stage) {
    if (stage.rfind("hls:", 0) == 0) {
        return 1;
    }
    for (int i = 0; i < 8; ++i) {
        if (stage == kStageNames[i]) {
            return i;
        }
    }
    return -1;
}

} // namespace

void FlowLedger::add(const socgen::core::FlowDiagnostics& diagnostics, double wallMs,
                     std::size_t tclBytes) {
    ++flows_;
    double stageSum = 0.0;
    for (const auto& s : diagnostics.stages) {
        const int i = stageIndex(s.stage);
        if (i >= 0) {
            stageMs_[i] += s.hostMs;
        }
        stageSum += s.hostMs;
    }
    overheadMs_ += wallMs - stageSum;
    tclBytes_ += static_cast<double>(tclBytes);
    // HLS work units: one per single-kernel node, one per process of a
    // network node; the ones the engine did not run were reused.
    std::size_t units = 0;
    for (const auto& n : diagnostics.nodes) {
        units += n.processes.empty() ? 1 : n.processes.size();
    }
    hlsStages_ += units;
    hlsReused_ += units - std::min(units, diagnostics.processEngineRuns());
}

void FlowLedger::emit(WorkloadReport& report, double toolSeconds) const {
    const double n = flows_ == 0 ? 1.0 : static_cast<double>(flows_);
    for (int i = 0; i < 8; ++i) {
        report.perLayer[std::string("core.flow.stage.") + kStageNames[i] + ".ms"] = {
            stageMs_[i] / n, "ms"};
    }
    report.perLayer["core.flow.overhead_ms"] = {overheadMs_ / n, "ms"};
    report.perLayer["core.flow.hls_reuse_ratio"] = {
        hlsStages_ == 0 ? 0.0
                        : static_cast<double>(hlsReused_) / static_cast<double>(hlsStages_),
        "ratio"};
    report.perLayer["core.flow.tool_s"] = {toolSeconds, "s"};
    report.perLayer["soc.tcl.bytes"] = {tclBytes_ / n, "bytes"};
    report.perLayer["sw.devicetree.ms"] = {stageMs_[4] / n, "ms"};
    report.perLayer["sw.drivers.ms"] = {stageMs_[5] / n, "ms"};
    report.perLayer["sw.boot.ms"] = {stageMs_[6] / n, "ms"};
}

void PassReplay::synthesis(const socgen::soc::BlockDesign& design) {
    ++designs_;
    socgen::soc::SynthesisResult synthesis;
    {
        ScopedSpan span("soc.synth");
        synthesis = socgen::soc::SynthesisModel{}.run(design);
    }
    ScopedSpan span("soc.bitstream");
    (void)socgen::soc::generateBitstream(design, synthesis);
}

void PassReplay::kernel(const socgen::hls::Kernel& kernel,
                        const socgen::hls::Directives& directives) {
    namespace hls = socgen::hls;
    ++kernels_;
    {
        ScopedSpan span("hls.synthesize");
        const hls::HlsResult whole = hls::HlsEngine{}.synthesize(kernel, directives);
        (void)whole;
    }

    // The same pass order as HlsEngine::synthesize, one span per pass.
    {
        ScopedSpan span("hls.verify");
        hls::verify(kernel);
    }
    hls::OptStats optStats;
    hls::UnrollStats unrollStats;
    hls::Kernel transformed(kernel.name());
    const hls::Kernel* source = &kernel;
    if (!directives.unrollFactors.empty()) {
        ScopedSpan span("hls.unroll");
        transformed = hls::unrollLoops(*source, directives.unrollFactors, &unrollStats);
        source = &transformed;
    }
    if (directives.enableOptimizer) {
        ScopedSpan span("hls.optimize");
        transformed = hls::optimize(*source, &optStats);
        source = &transformed;
    }
    const hls::Kernel& k = *source;
    {
        ScopedSpan span("hls.verify");
        hls::verify(k);
    }
    const hls::LatencyModel latency;
    hls::KernelSchedule schedule;
    {
        ScopedSpan span("hls.schedule");
        schedule = hls::scheduleKernel(k, directives, latency);
    }
    hls::KernelBinding binding;
    {
        ScopedSpan span("hls.bind");
        binding = hls::bindKernel(schedule, latency);
    }
    socgen::rtl::Netlist netlist("replay");
    {
        ScopedSpan span("hls.rtlgen");
        netlist = hls::generateRtl(k, schedule, binding);
    }
    std::size_t hdlBytes = 0;
    {
        ScopedSpan span("rtl.emit_vhdl");
        hdlBytes += socgen::rtl::VhdlEmitter{}.emit(netlist).size();
    }
    {
        ScopedSpan span("rtl.emit_verilog");
        hdlBytes += socgen::rtl::VerilogEmitter{}.emit(netlist).size();
    }
    {
        ScopedSpan span("hls.bytecode");
        const hls::Program program = hls::compileKernel(k, schedule);
        (void)program;
    }
    {
        ScopedSpan span("hls.price");
        const hls::CostModel cost;
        hls::ResourceEstimate resources = cost.priceNetlist(netlist);
        for (const auto& port : kernel.ports()) {
            resources += hls::isStreamPort(port.kind) ? cost.axiStreamPortCost(port.width)
                                                      : cost.axiLitePortCost(port.width);
        }
        resources += cost.coreOverhead();
    }

    statements_ += static_cast<double>(k.statementCount());
    cells_ += static_cast<double>(netlist.cells().size());
    hdlBytes_ += static_cast<double>(hdlBytes);
    optApplied_ += static_cast<double>(optStats.foldedConstants + optStats.simplifiedAlgebra +
                                       optStats.strengthReduced + optStats.removedStatements);
    unrollCopies_ += static_cast<double>(unrollStats.copiesEmitted);
}

void PassReplay::emit(WorkloadReport& report) const {
    const std::map<std::string, LayerTime> times = nameTimes(Tracer::instance().snapshot());
    const auto per = [&](const char* name, std::size_t count) {
        const auto it = times.find(name);
        return it == times.end() || count == 0 ? 0.0
                                               : it->second.totalMs / static_cast<double>(count);
    };
    const auto ms = [&](const char* name) { return per(name, kernels_); };
    report.perLayer["soc.synth.ms"] = {per("soc.synth", designs_), "ms"};
    report.perLayer["soc.bitstream.ms"] = {per("soc.bitstream", designs_), "ms"};
    for (const char* pass : {"verify", "unroll", "optimize", "schedule", "bind", "rtlgen",
                             "bytecode", "price", "synthesize"}) {
        const std::string name = std::string("hls.") + pass;
        report.perLayer[name + ".ms"] = {ms(name.c_str()), "ms"};
    }
    report.perLayer["rtl.emit_vhdl.ms"] = {ms("rtl.emit_vhdl"), "ms"};
    report.perLayer["rtl.emit_verilog.ms"] = {ms("rtl.emit_verilog"), "ms"};
    report.perLayer["hls.statements"] = {statements_, "count"};
    report.perLayer["hls.cells"] = {cells_, "count"};
    report.perLayer["hls.hdl_bytes"] = {hdlBytes_, "bytes"};
    report.perLayer["hls.opt.applied"] = {optApplied_, "count"};
    report.perLayer["hls.unroll.copies"] = {unrollCopies_, "count"};
}

} // namespace perfbench
