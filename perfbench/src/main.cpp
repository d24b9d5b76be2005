// socgen benchmark program.
//
//   socgen_bench --workload <compile-cold|soc-run|rtl-cosim|service-mixed>
//                --seed <n> --seconds <s> --trace <0|1>
//                [--work-dir DIR] [--keep-dir DIR] [--spans-out FILE]
//
// Prints human-readable rows, then one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// workload runs twice, untraced then traced, and the metrics are the
// per-layer set (self time per layer, the traced run's layer counters
// and timings, and the tracing overhead: traced minus untraced).
// Exit status: 0 when every output check passed, 1 on a mismatch, 2 on
// bad usage.

#include "trace.hpp"
#include "workloads.hpp"

#include "socgen/common/log.hpp"
#include "socgen/rtl/sim_backend.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>

using namespace perfbench;

namespace {

const std::vector<std::string>& endToEndNames() {
    static const std::vector<std::string> names = {"setup_s", "ops_per_s", "p50_ms",
                                                   "peak_rss_mb"};
    return names;
}

/// Layers whose self time the traced run reports (span-name prefixes).
/// HLS runs inside Flow::run, so its time is the core.flow.stage.hls and
/// replayed hls.* metrics, not a span of its own in a timed operation.
const std::vector<std::string>& tracedLayers() {
    static const std::vector<std::string> layers = {"bench", "core", "rtl", "soc", "svc"};
    return layers;
}

struct LayerMetric {
    std::string name;
    std::string unit;
};

/// Every per-layer metric with its unit, in report order. A workload that
/// does not cross a layer reports 0 for that layer's metrics.
const std::vector<LayerMetric>& perLayerMetrics() {
    static const std::vector<LayerMetric> metrics = [] {
        std::vector<LayerMetric> m = {{"op.tail_ms", "ms"},
                                      {"core.parse.ms", "ms"},
                                      {"core.parse.kb_per_s", "KB/s"}};
        for (const char* s : {"scala", "hls", "integrate", "synth", "devicetree", "drivers",
                              "boot", "artifacts"}) {
            m.push_back({std::string("core.flow.stage.") + s + ".ms", "ms"});
        }
        m.insert(m.end(), {{"core.flow.overhead_ms", "ms"},
                           {"core.flow.hls_reuse_ratio", "ratio"},
                           {"core.flow.tool_s", "s"},
                           {"core.design_luts", "LUT"}});
        for (const char* s : {"verify", "unroll", "optimize", "schedule", "bind", "rtlgen",
                              "bytecode", "price", "synthesize"}) {
            m.push_back({std::string("hls.") + s + ".ms", "ms"});
        }
        m.insert(m.end(), {{"rtl.emit_vhdl.ms", "ms"},
                           {"rtl.emit_verilog.ms", "ms"},
                           {"hls.statements", "count"},
                           {"hls.cells", "count"},
                           {"hls.hdl_bytes", "bytes"},
                           {"hls.opt.applied", "count"},
                           {"hls.unroll.copies", "count"},
                           {"soc.tcl.bytes", "bytes"},
                           {"soc.synth.ms", "ms"},
                           {"soc.bitstream.ms", "ms"},
                           {"sw.devicetree.ms", "ms"},
                           {"sw.drivers.ms", "ms"},
                           {"sw.boot.ms", "ms"},
                           {"soc.sim.build_ms", "ms"},
                           {"soc.sim.ns_per_cycle.ps_heavy", "ns"},
                           {"soc.sim.ns_per_cycle.hw_heavy", "ns"},
                           {"soc.sim.cycles", "cycles"},
                           {"soc.ps.busy_share", "ratio"},
                           {"soc.stream.beats", "count"},
                           {"soc.stream.stall_cycles", "cycles"},
                           {"rtl.setup_ms", "ms"},
                           {"rtl.backend.compiled", "count"},
                           {"rtl.codegen.compiles", "count"},
                           {"rtl.active.ns_per_cycle", "ns"},
                           {"rtl.idle.ns_per_cycle", "ns"},
                           {"rtl.batch.ns_per_lane_cycle", "ns"},
                           {"rtl.cells", "count"},
                           {"svc.wait_ms", "ms"},
                           {"svc.overhead_ms", "ms"},
                           {"svc.dedupe_ratio", "ratio"},
                           {"svc.remote_syntheses", "count"},
                           {"svc.pool.max_queue_depth", "count"},
                           {"svc.rejected", "count"},
                           {"svc.root_bytes_per_flow", "bytes"},
                           {"svc.root_files_per_flow", "count"},
                           {"svc.fs_creates_per_s", "1/s"},
                           {"host.slowness", "ratio"},
                           {"trace.spans", "count"},
                           {"trace.overhead.ops_per_s_pct", "%"},
                           {"trace.overhead.p50_ms", "ms"}});
        for (const std::string& layer : tracedLayers()) {
            m.push_back({"self." + layer + ".ms_per_op", "ms"});
        }
        return m;
    }();
    return metrics;
}

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "socgen_bench: %s\nusage: socgen_bench --workload "
                 "<compile-cold|soc-run|rtl-cosim|service-mixed> --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR] [--keep-dir DIR] [--spans-out FILE]\n",
                 why);
    std::exit(2);
}

std::function<WorkloadReport(const WorkloadContext&)> workloadFor(const std::string& name) {
    if (name == "compile-cold") {
        return runCompileCold;
    }
    if (name == "soc-run") {
        return runSocRun;
    }
    if (name == "rtl-cosim") {
        return runRtlCosim;
    }
    if (name == "service-mixed") {
        return runServiceMixed;
    }
    return nullptr;
}

void printMetrics(const std::map<std::string, Metric>& metrics,
                  const std::vector<std::string>& order, std::string& json) {
    bool first = true;
    for (const std::string& name : order) {
        const Metric& m = metrics.at(name);
        json += (first ? "" : ", ") + jsonString(name) + ": {\"value\": " +
                jsonNumber(m.value) + ", \"unit\": " + jsonString(m.unit) + "}";
        first = false;
    }
}

} // namespace

int main(int argc, char** argv) {
    WorkloadContext ctx;
    RunConfig& cfg = ctx.config;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc) {
            usage(("missing value for " + arg).c_str());
        }
        const std::string value = argv[++i];
        if (arg == "--workload") {
            cfg.workload = value;
        } else if (arg == "--seed") {
            cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (arg == "--seconds") {
            cfg.seconds = std::strtod(value.c_str(), nullptr);
        } else if (arg == "--trace") {
            cfg.trace = value == "1";
        } else if (arg == "--work-dir") {
            ctx.workDir = value;
        } else if (arg == "--keep-dir") {
            ctx.keepDir = value;
        } else if (arg == "--spans-out") {
            cfg.spansOut = value;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    const auto workload = workloadFor(cfg.workload);
    if (!workload) {
        usage(("unknown workload '" + cfg.workload + "'").c_str());
    }
    if (!(cfg.seconds > 0.0)) {
        usage("--seconds must be positive");
    }
    if (ctx.workDir.empty()) {
        ctx.workDir = ".bench_out/work";
    }
    if (ctx.keepDir.empty()) {
        ctx.keepDir = ".bench_out/svc-roots";
    }
    std::filesystem::create_directories(ctx.workDir);
    std::filesystem::create_directories(ctx.keepDir);

    // Environment hygiene: no override may redirect what is measured.
    for (const char* var : {"SOCGEN_FLOW_JOBS", "SOCGEN_SIM_BACKEND", "SOCGEN_SIM_THREADS",
                            "SOCGEN_SVC_WORKERS"}) {
        ::unsetenv(var);
    }
    const std::string codegenDir = ctx.workDir + "/codegen";
    ::setenv("SOCGEN_CODEGEN_CACHE_DIR", codegenDir.c_str(), 1);
    socgen::Logger::global().setLevel(socgen::LogLevel::Error);

    std::printf("workload %s  seed %llu  seconds %.1f  trace %d\n", cfg.workload.c_str(),
                static_cast<unsigned long long>(cfg.seed), cfg.seconds, cfg.trace ? 1 : 0);
    std::printf("rtl backend (Auto resolves to) %s\n",
                std::string(socgen::rtl::simBackendName(socgen::rtl::resolveSimBackend()))
                    .c_str());

    WorkloadReport report;
    std::map<std::string, Metric> metrics;
    const std::vector<std::string>* order = &endToEndNames();
    std::vector<std::string> perLayerOrder;
    if (!cfg.trace) {
        report = workload(ctx);
        metrics = report.endToEnd;
    } else {
        // Untraced first, then traced: the difference is the overhead.
        const WorkloadReport untraced = workload(ctx);
        Tracer::instance().setEnabled(true);
        report = workload(ctx);
        Tracer::instance().setEnabled(false);
        report.attempted += untraced.attempted;
        report.failed += untraced.failed;
        report.failures.insert(report.failures.end(), untraced.failures.begin(),
                               untraced.failures.end());

        // Self time counts only the spans of timed operations (request id
        // set); set-up, checks and pass replays carry request 0.
        std::vector<Span> spans;
        for (Span& s : Tracer::instance().snapshot()) {
            if (s.request != 0) {
                spans.push_back(std::move(s));
            }
        }
        const double ops = report.endToEnd.at("ops_per_s").value;
        const double opsBase = untraced.endToEnd.at("ops_per_s").value;
        report.perLayer["trace.spans"] = {static_cast<double>(spans.size()), "count"};
        report.perLayer["trace.overhead.ops_per_s_pct"] = {
            opsBase > 0 ? 100.0 * (opsBase - ops) / opsBase : 0.0, "%"};
        report.perLayer["trace.overhead.p50_ms"] = {
            report.endToEnd.at("p50_ms").value - untraced.endToEnd.at("p50_ms").value, "ms"};
        std::size_t opCount = 0;
        for (const Span& s : spans) {
            opCount += s.parent == 0 ? 1 : 0;
        }
        const std::map<std::string, LayerTime> layers = layerTimes(spans);
        for (const std::string& layer : tracedLayers()) {
            const auto it = layers.find(layer);
            const double self = it == layers.end() ? 0.0 : it->second.selfMs;
            report.perLayer["self." + layer + ".ms_per_op"] = {
                opCount == 0 ? 0.0 : self / static_cast<double>(opCount), "ms"};
        }
        for (const auto& [name, t] : layers) {
            report.line("layer %-8s self %12.3f ms  total %12.3f ms  spans %zu", name.c_str(),
                        t.selfMs, t.totalMs, t.spans);
        }
        if (!cfg.spansOut.empty()) {
            Tracer::instance().writeJson(cfg.spansOut);
            report.line("spans written to %s", cfg.spansOut.c_str());
        }

        std::map<std::string, std::string> units;
        for (const LayerMetric& lm : perLayerMetrics()) {
            units[lm.name] = lm.unit;
        }
        for (const auto& [name, m] : report.perLayer) {
            const auto it = units.find(name);
            if (it == units.end() || it->second != m.unit) {
                std::fprintf(stderr, "socgen_bench: unlisted per-layer metric %s [%s]\n",
                             name.c_str(), m.unit.c_str());
                return 3;
            }
        }
        for (const LayerMetric& lm : perLayerMetrics()) {
            report.perLayer.emplace(lm.name, Metric{0.0, lm.unit});
            perLayerOrder.push_back(lm.name);
        }
        metrics = report.perLayer;
        order = &perLayerOrder;
        for (const std::string& name : perLayerOrder) {
            const Metric& m = metrics.at(name);
            report.line("%-34s %16.6g %s", name.c_str(), m.value, m.unit.c_str());
        }
    }

    for (const std::string& line : report.lines) {
        std::printf("%s\n", line.c_str());
    }
    const double failRatio =
        report.attempted == 0
            ? 1.0
            : static_cast<double>(report.failed) / static_cast<double>(report.attempted);
    std::printf("fail_ratio          %12.6f      (%zu failed of %zu attempted)\n", failRatio,
                report.failed, report.attempted);
    for (const std::string& why : report.failures) {
        std::printf("FAILED: %s\n", why.c_str());
    }

    const bool correct = report.failed == 0 && report.attempted > 0;
    std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(report.attempted) +
                       ", \"failed\": " + std::to_string(report.failed) + ", \"metrics\": {";
    printMetrics(metrics, *order, json);
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
