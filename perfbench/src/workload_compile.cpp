// compile-cold: seeded, distinct DSL projects, each compiled once from
// DSL text to bitstream plus drivers with a fresh HlsCache and no store,
// in a closed loop from one client. HLS, integration, synthesis and
// software generation do all the work.

#include "generator.hpp"
#include "trace.hpp"
#include "workloads.hpp"

#include "socgen/common/hash.hpp"
#include "socgen/core/parser.hpp"

#include <memory>

namespace perfbench {

namespace {

/// Projects re-compiled after the timed loop to check determinism; the
/// deterministic counts (design_luts, tool seconds) are summed over them.
constexpr std::size_t kCheckProjects = 24;
/// Projects whose kernels are replayed pass by pass in the traced run.
constexpr std::size_t kReplayProjects = 6;
/// Operations per throughput window.
constexpr std::size_t kWindowOps = 48;
constexpr int kSetupReps = 5;
/// The warm-up projects every set-up compiles: (kWarmupSeed, 0..N-1).
constexpr std::uint64_t kWarmupSeed = 0;
constexpr std::size_t kWarmupProjects = 8;

struct Compiled {
    socgen::core::FlowResult result;
    double wallMs = 0.0;   ///< Flow::run only
    double parseMs = 0.0;
    std::string digest;    ///< bitstream digest
};

Compiled compile(const GeneratedProject& project, std::uint64_t request) {
    namespace core = socgen::core;
    Compiled out;
    ScopedSpan op("bench.compile", request);
    const double t0 = nowSeconds();
    core::ParsedDsl parsed;
    {
        ScopedSpan span("core.parse");
        parsed = core::parseDsl(project.dslText);
    }
    const double t1 = nowSeconds();
    core::FlowOptions options;
    options.kernelDirectives = project.directives;
    options.toolLatencyMsPerToolSecond = 0.0;
    {
        ScopedSpan span("core.flow");
        core::Flow flow(options, project.kernels, std::make_shared<core::HlsCache>());
        out.result = flow.run(parsed.projectName, parsed.graph);
    }
    const double t2 = nowSeconds();
    out.parseMs = (t1 - t0) * 1e3;
    out.wallMs = (t2 - t1) * 1e3;
    out.digest = socgen::digest128(out.result.bitstream.serialize()).hex();
    return out;
}

double toolSecondsOf(const socgen::core::FlowResult& result) {
    double total = 0.0;
    for (const auto& s : result.diagnostics.stages) {
        total += s.toolSeconds;
    }
    return total;
}

} // namespace

WorkloadReport runCompileCold(const WorkloadContext& ctx) {
    const RunConfig& cfg = ctx.config;
    WorkloadReport report;

    // Set-up: generate and parse a batch of this seed's inputs, then
    // compile a fixed warm-up set (the same for every seed, so set-up
    // time does not depend on which projects a seed happens to draw).
    SetupTimes setup;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        setup.run([&] {
            for (std::size_t i = 0; i < kCheckProjects; ++i) {
                (void)socgen::core::parseDsl(makeProject(cfg.seed, i).dslText);
            }
            for (std::size_t i = 0; i < kWarmupProjects; ++i) {
                (void)compile(makeProject(kWarmupSeed, i), 0);
            }
        });
    }

    // Timed closed loop: project i is generated outside the timed region,
    // then parsed and compiled.
    FlowLedger ledger;
    Measurement m;
    std::size_t ops = 0;
    std::vector<std::string> digests;
    double windowMs = 0.0;
    double parseMs = 0.0;
    double dslBytes = 0.0;
    const double deadline = nowSeconds() + cfg.seconds;
    for (std::uint64_t i = 0; nowSeconds() < deadline; ++i) {
        const GeneratedProject project = makeProject(cfg.seed, i);
        ++report.attempted;
        Compiled c;
        try {
            c = compile(project, i + 1);
        } catch (const std::exception& e) {
            report.fail("compile " + project.name + ": " + e.what());
            continue;
        }
        const double ms = c.parseMs + c.wallMs;
        m.add(ms);
        windowMs += ms;
        if (++ops % kWindowOps == 0) {
            m.endWindow(kWindowOps, windowMs / 1e3);
            windowMs = 0.0;
        }
        parseMs += c.parseMs;
        dslBytes += static_cast<double>(project.dslText.size());
        ledger.add(c.result, c.wallMs);
        if (c.result.diagnostics.anyDegraded()) {
            report.fail("compile " + project.name + ": degraded HLS");
        }
        if (digests.size() < kCheckProjects) {
            digests.push_back(c.digest);
        }
    }

    // Checks, outside the timed region: regenerating a project from the
    // seed gives byte-identical inputs, and re-compiling it gives a
    // byte-identical bitstream. The deterministic counts come from here.
    double designLuts = 0.0;
    double toolSeconds = 0.0;
    for (std::size_t i = 0; i < kCheckProjects; ++i) {
        const GeneratedProject a = makeProject(cfg.seed, i);
        const GeneratedProject b = makeProject(cfg.seed, i);
        if (describeProject(a) != describeProject(b)) {
            report.fail("generator: project " + a.name + " differs between generations");
        }
        Compiled c;
        try {
            c = compile(a, 0);
        } catch (const std::exception& e) {
            report.fail("recompile " + a.name + ": " + e.what());
            continue;
        }
        if (i < digests.size() && c.digest != digests[i]) {
            report.fail("recompile " + a.name + ": bitstream digest differs");
        }
        designLuts += static_cast<double>(c.result.synthesis.total.lut);
        toolSeconds += toolSecondsOf(c.result);
    }

    reportEndToEnd(report, "one DSL project compiled to bitstream + drivers", "compile", setup,
                   m);
    report.line("design_luts         %12.0f LUT   (summed over the first %zu projects; "
                "deterministic)",
                designLuts, kCheckProjects);
    report.line("modeled tool time   %12.1f tool-s (same projects; not host time)",
                toolSeconds);

    // Per-layer view (meaningful in the traced run).
    ledger.emit(report, toolSeconds);
    report.perLayer["core.parse.ms"] = {
        ops == 0 ? 0.0 : parseMs / static_cast<double>(ops), "ms"};
    report.perLayer["core.parse.kb_per_s"] = {
        parseMs > 0 ? (dslBytes / 1024.0) / (parseMs / 1e3) : 0.0, "KB/s"};
    report.perLayer["core.design_luts"] = {designLuts, "LUT"};
    if (Tracer::instance().enabled()) {
        PassReplay replay;
        for (std::size_t i = 0; i < kReplayProjects; ++i) {
            const GeneratedProject p = makeProject(cfg.seed, i);
            for (const auto& [node, directives] : p.directives) {
                for (const auto& process : p.kernels.network(node).processes()) {
                    replay.kernel(process.kernel, directives);
                }
            }
            replay.synthesis(compile(p, 0).result.design);
        }
        replay.emit(report);
    }
    return report;
}

} // namespace perfbench
