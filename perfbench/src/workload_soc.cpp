// soc-run: all 16 HW/SW partitions of the Otsu case study (Arch1-4 among
// them), built once during set-up with per-link DMA, each run on the
// simulated Zedboard over seeded 128x128 scenes. The SoC simulator (sim
// engine, PS, DMA, AXI-Stream, KernelVm) does nearly all the work.
//
// Simulated cycles are host-independent and repeat exactly; the model is
// unvalidated (the paper publishes resources, not execution times).

#include "generator.hpp"
#include "trace.hpp"
#include "workloads.hpp"

#include "socgen/apps/otsu_project.hpp"
#include "socgen/core/htg.hpp"

#include <bit>
#include <cctype>
#include <cstdlib>
#include <memory>

namespace perfbench {

namespace {

namespace apps = socgen::apps;
namespace core = socgen::core;

constexpr unsigned kSide = 128;
constexpr unsigned kMasks = 16;
constexpr std::size_t kScenes = 3;
constexpr int kSetupReps = 3;

struct Partition {
    unsigned mask = 0;
    core::FlowResult flow;
    double wallMs = 0.0;
};

/// Builds every partition with one shared HlsCache (the paper generates
/// Arch4 first and reuses its cores), per-link DMA so that every mask is
/// runnable.
const socgen::hls::KernelLibrary& kernelLibrary() {
    static const socgen::hls::KernelLibrary kernels =
        apps::makeOtsuKernelLibrary(static_cast<std::int64_t>(kSide) * kSide);
    return kernels;
}

std::vector<Partition> buildPartitions(FlowLedger* ledger) {
    const core::Htg htg = apps::makeOtsuHtg();
    const socgen::hls::KernelLibrary& kernels = kernelLibrary();
    auto cache = std::make_shared<core::HlsCache>();
    std::vector<Partition> parts(kMasks);
    for (unsigned i = 0; i < kMasks; ++i) {
        const unsigned mask = kMasks - 1 - i;  // all-hardware first
        core::FlowOptions options = apps::otsuFlowOptions();
        options.dmaPolicy = socgen::soc::DmaPolicy::DmaPerLink;
        options.toolLatencyMsPerToolSecond = 0.0;
        core::Flow flow(options, kernels, cache);
        Partition& p = parts[mask];
        p.mask = mask;
        const double t0 = nowSeconds();
        p.flow = flow.run("mask" + std::to_string(mask),
                          core::lowerToTaskGraph(htg, apps::otsuMaskPartition(mask)));
        p.wallMs = (nowSeconds() - t0) * 1e3;
        if (ledger != nullptr) {
            ledger->add(p.flow, p.wallMs);
        }
    }
    return parts;
}

/// Sums the integers that SystemSimulator::report() prints right before
/// `suffix` ("123 beats") or, with `after`, right after it ("PS: 123").
std::uint64_t sumField(const std::string& report, const std::string& marker, bool after) {
    std::uint64_t total = 0;
    for (std::size_t pos = report.find(marker); pos != std::string::npos;
         pos = report.find(marker, pos + marker.size())) {
        std::size_t start = pos + marker.size();
        if (!after) {
            start = pos;
            while (start > 0 && std::isdigit(static_cast<unsigned char>(report[start - 1]))) {
                --start;
            }
        }
        total += std::strtoull(report.c_str() + start, nullptr, 10);
    }
    return total;
}

} // namespace

WorkloadReport runSocRun(const WorkloadContext& ctx) {
    const RunConfig& cfg = ctx.config;
    WorkloadReport report;

    // Set-up, repeated: the 16 flows (HLS, integration, synthesis,
    // software), then the seeded scenes and their software references.
    SetupTimes setup;
    std::vector<Partition> parts;
    std::vector<apps::RgbImage> scenes;
    std::vector<apps::GrayImage> references;
    FlowLedger ledger;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        setup.run([&] {
            parts = buildPartitions(rep == 0 ? &ledger : nullptr);
            scenes.clear();
            for (std::size_t s = 0; s < kScenes; ++s) {
                scenes.push_back(
                    apps::makeSyntheticScene(kSide, kSide, streamSeed(cfg.seed, 3, s)));
            }
        });
    }
    for (const auto& scene : scenes) {
        references.push_back(apps::otsuFilterRef(scene));
    }

    // Timed loop: rounds of all 16 masks on one scene (scenes in turn);
    // each partition run is one operation.
    Measurement m;
    std::size_t runs = 0;
    std::vector<std::vector<std::uint64_t>> cycles(kMasks,
                                                   std::vector<std::uint64_t>(kScenes, 0));
    double psHeavyMs = 0.0, hwHeavyMs = 0.0, buildMs = 0.0, hostMs = 0.0;
    std::uint64_t psHeavyCycles = 0, hwHeavyCycles = 0, simCycles = 0;
    std::uint64_t psBusy = 0, beats = 0, stalls = 0;
    std::size_t rounds = 0;
    const double deadline = nowSeconds() + cfg.seconds;
    while (nowSeconds() < deadline || rounds < kScenes) {
        const std::size_t s = rounds % kScenes;
        double roundMs = 0.0;
        for (unsigned mask = 0; mask < kMasks; ++mask) {
            ++report.attempted;
            apps::OtsuSystemRunner runner(parts[mask].flow, apps::otsuMaskPartition(mask));
            apps::OtsuSystemRunner::Result result;
            double built = 0.0;
            const double t0 = nowSeconds();
            try {
                ScopedSpan op("bench.soc_run", rounds * kMasks + mask + 1);
                ScopedSpan span("soc.run");
                result = runner.run(scenes[s], [&built](socgen::soc::SystemSimulator&) {
                    built = nowSeconds();
                });
            } catch (const std::exception& e) {
                report.fail("mask " + std::to_string(mask) + ": " + e.what());
                continue;
            }
            const double ms = (nowSeconds() - t0) * 1e3;
            roundMs += ms;
            m.add(ms);
            ++runs;
            buildMs += (built - t0) * 1e3;
            hostMs += ms;
            simCycles += result.cycles;
            const int hw = std::popcount(mask);
            if (hw <= 1) {
                psHeavyMs += ms;
                psHeavyCycles += result.cycles;
            } else if (hw >= 3) {
                hwHeavyMs += ms;
                hwHeavyCycles += result.cycles;
            }
            psBusy += sumField(result.report, "PS: ", true);
            beats += sumField(result.report, " beats", false);
            stalls += sumField(result.report, " stalled", false);

            if (!(result.output == references[s])) {
                report.fail("mask " + std::to_string(mask) + " scene " + std::to_string(s) +
                            ": output differs from otsuFilterRef");
            }
            std::uint64_t& expected = cycles[mask][s];
            if (expected == 0) {
                expected = result.cycles;
            } else if (expected != result.cycles) {
                report.fail("mask " + std::to_string(mask) +
                            ": simulated cycles changed between identical runs");
            }
        }
        m.endWindow(kMasks, roundMs / 1e3);
        ++rounds;
    }

    std::uint64_t roundCycles = 0;  // one pass over every (mask, scene)
    for (const auto& perScene : cycles) {
        for (const std::uint64_t c : perScene) {
            roundCycles += c;
        }
    }
    reportEndToEnd(report, "one partition run on the simulated Zedboard", nullptr, setup, m);
    report.line("soc_sim_cycles      %12llu cycles (16 masks x %zu scenes; simulated, "
                "deterministic, unvalidated)",
                static_cast<unsigned long long>(roundCycles), kScenes);
    report.line("soc_mcycles_per_s   %12.3f Mcycles/s (simulated cycles per host second)",
                hostMs > 0 ? static_cast<double>(simCycles) / (hostMs * 1e3) : 0.0);

    double toolSeconds = 0.0;
    for (const Partition& p : parts) {
        for (const auto& st : p.flow.diagnostics.stages) {
            toolSeconds += st.toolSeconds;
        }
    }
    ledger.emit(report, toolSeconds);
    if (Tracer::instance().enabled()) {
        PassReplay replay;
        for (const auto& [name, directives] : apps::otsuKernelDirectives()) {
            replay.kernel(kernelLibrary().get(name), directives);
        }
        for (const Partition& p : parts) {
            replay.synthesis(p.flow.design);
        }
        replay.emit(report);
    }
    const double n = runs == 0 ? 1.0 : static_cast<double>(runs);
    report.perLayer["soc.sim.build_ms"] = {buildMs / n, "ms"};
    report.perLayer["soc.sim.ns_per_cycle.ps_heavy"] = {
        psHeavyCycles ? psHeavyMs * 1e6 / static_cast<double>(psHeavyCycles) : 0.0, "ns"};
    report.perLayer["soc.sim.ns_per_cycle.hw_heavy"] = {
        hwHeavyCycles ? hwHeavyMs * 1e6 / static_cast<double>(hwHeavyCycles) : 0.0, "ns"};
    report.perLayer["soc.sim.cycles"] = {static_cast<double>(roundCycles), "cycles"};
    report.perLayer["soc.ps.busy_share"] = {
        simCycles ? static_cast<double>(psBusy) / static_cast<double>(simCycles) : 0.0,
        "ratio"};
    report.perLayer["soc.stream.beats"] = {static_cast<double>(beats) / n, "count"};
    report.perLayer["soc.stream.stall_cycles"] = {static_cast<double>(stalls) / n, "cycles"};
    return report;
}

} // namespace perfbench
