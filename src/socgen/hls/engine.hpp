#pragma once

#include "socgen/hls/binding.hpp"
#include "socgen/hls/bytecode.hpp"
#include "socgen/hls/directives.hpp"
#include "socgen/hls/ir.hpp"
#include "socgen/hls/network.hpp"
#include "socgen/hls/resources.hpp"
#include "socgen/hls/schedule.hpp"
#include "socgen/rtl/netlist.hpp"

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace socgen::hls {

/// The HDL text of one netlist, in both languages the flow writes.
struct HdlText {
    std::string vhdl;
    std::string verilog;
};

/// Everything one HLS run produces for a kernel — the equivalent of a
/// Vivado HLS solution directory. HDL is not part of the record: it is a
/// view printed from `netlist` when an artifact is written.
struct HlsResult {
    std::string kernelName;
    KernelSchedule schedule;
    KernelBinding binding;
    rtl::Netlist netlist;        ///< fixed once built: copies share its hdl()
    std::string directiveText;   ///< the directives file the DSL assembled
    std::string reportText;      ///< schedule/resource report
    ResourceEstimate resources;  ///< core resources incl. interface logic
    Program program;             ///< executable model for system simulation
    double toolSeconds = 0.0;    ///< deterministic simulated Vivado HLS time

    HlsResult() : netlist("uninitialised") {}

    /// VHDL and Verilog of `netlist`, printed on the first call. Every
    /// copy of a result shares one view, so a result handed out many
    /// times (e.g. by the flow's HlsCache) is printed once; concurrent
    /// first calls are safe.
    [[nodiscard]] const HdlText& hdl() const;

private:
    struct HdlView {
        std::once_flag once;
        HdlText text;
    };
    std::shared_ptr<HdlView> hdl_ = std::make_shared<HdlView>();
};

/// The HLS engine facade: verify -> schedule -> bind -> codegen -> price.
/// This is the component the DSL's `end` keyword invokes per node (paper
/// Section IV-B step 4: "the tool invokes the synthesis of the hardware
/// core through Vivado HLS").
class HlsEngine {
public:
    explicit HlsEngine(CostModel costModel = {}, LatencyModel latencyModel = {})
        : cost_(costModel), latency_(latencyModel) {}

    [[nodiscard]] HlsResult synthesize(const Kernel& kernel,
                                       const Directives& directives) const;

    /// Assembles a network-level HlsResult from already synthesized
    /// per-process results (`processResults` parallel to
    /// `network.processes()`): one flat dataflow wrapper netlist into
    /// which every process netlist and one rtl::makeFifo per channel are
    /// flattened with the handshake glue between them, a fused network
    /// Program for system simulation, and summed resources. No HDL is
    /// printed here; the wrapper's text comes from hdl() on demand. The
    /// assembly is cheap and deterministic — per-process synthesis is
    /// where the tool time goes, which is why the flow caches processes
    /// individually and re-assembles on every run. For a trivial network
    /// this returns the sole process result unchanged (the legacy path).
    [[nodiscard]] HlsResult assembleNetwork(
        const ProcessNetwork& network,
        const std::vector<const HlsResult*>& processResults) const;

    /// Convenience: synthesizes every process (directives looked up by
    /// process name, falling back to `defaults`) and assembles.
    [[nodiscard]] HlsResult synthesize(
        const ProcessNetwork& network,
        const std::map<std::string, Directives>& processDirectives = {},
        const Directives& defaults = {}) const;

private:
    CostModel cost_;
    LatencyModel latency_;
};

} // namespace socgen::hls
