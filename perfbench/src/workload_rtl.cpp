// rtl-cosim: gate-level simulation of HLS-generated cores (the four Otsu
// stage cores and three dataflow-network wrappers) through
// rtl::makeSimulator(Auto). One operation is a round: three jobs on every
// core,
//   active - seeded stream handshakes and data every cycle;
//   idle   - ap_start low, inputs held;
//   batch  - 64 held-input scenarios through dse::batchCosim.
// The 21 job kinds of a round have 21 different latencies; timing whole
// rounds keeps the median out of the gaps between them.
// Output-port digests are checked against the event-driven reference
// backend outside the timed region.

#include "generator.hpp"
#include "trace.hpp"
#include "workloads.hpp"

#include "socgen/apps/dataflow.hpp"
#include "socgen/apps/otsu.hpp"
#include "socgen/common/hash.hpp"
#include "socgen/dse/explorer.hpp"
#include "socgen/hls/engine.hpp"
#include "socgen/rtl/codegen_sim.hpp"
#include "socgen/rtl/sim_backend.hpp"

#include <algorithm>
#include <memory>
#include <string_view>

namespace perfbench {

namespace {

namespace rtl = socgen::rtl;

constexpr std::uint64_t kActiveCycles = 32768;
constexpr std::uint64_t kIdleCycles = 32768;
constexpr std::uint64_t kBatchCycles = 1536;
constexpr unsigned kLanes = 64;
constexpr int kSetupReps = 3;
/// Rounds per throughput window.
constexpr std::size_t kWindowRounds = 4;
/// Every this many rounds, each (core, phase) job is re-run on the
/// event-driven reference (the first round always is).
constexpr std::size_t kCheckEveryRounds = 32;

enum class Phase { Active, Idle, Batch };

struct Core {
    std::string name;
    rtl::Netlist netlist{"core"};
    std::unique_ptr<rtl::Simulator> sim;
    std::vector<rtl::Port> inputs;
    std::vector<std::string> outputs;
    std::vector<std::string> handshakes;  ///< *_tvalid / *_tready inputs
    std::vector<rtl::Port> streamData;    ///< *_tdata inputs
};

bool endsWith(const std::string& s, const char* suffix) {
    const std::string_view x(suffix);
    return s.size() >= x.size() && s.compare(s.size() - x.size(), x.size(), x) == 0;
}

std::uint64_t widthMask(unsigned width) {
    return width >= 64 ? ~0ULL : (1ULL << width) - 1;
}

bool isHandshake(const std::string& port) {
    return endsWith(port, "_tvalid") || endsWith(port, "_tready");
}

/// The cores are the same for every seed (netlist size sets the cost per
/// simulated cycle); seeds vary the stimulus.
std::vector<Core> synthesizeCores() {
    namespace apps = socgen::apps;
    namespace hls = socgen::hls;
    const hls::HlsEngine engine;
    constexpr std::int64_t pixels = 2048;
    constexpr std::int64_t samples = 1024;
    constexpr std::int64_t dataflowPixels = 96;
    std::vector<Core> cores(7);
    cores[0].netlist = engine.synthesize(apps::makeGrayScaleKernel(pixels),
                                         apps::grayScaleDirectives()).netlist;
    cores[1].netlist = engine.synthesize(apps::makeHistogramKernel(pixels),
                                         apps::histogramDirectives()).netlist;
    cores[2].netlist = engine.synthesize(apps::makeOtsuKernel(pixels),
                                         apps::otsuDirectives()).netlist;
    cores[3].netlist = engine.synthesize(apps::makeBinarizationKernel(pixels),
                                         apps::binarizationDirectives()).netlist;
    cores[4].netlist = engine.synthesize(apps::makeStreamPipelineNetwork(samples)).netlist;
    cores[5].netlist = engine.synthesize(apps::makeStreamTriadNetwork(samples)).netlist;
    cores[6].netlist =
        engine
            .synthesize(apps::makeOtsuDataflowNetwork(
                            dataflowPixels, static_cast<std::uint32_t>(dataflowPixels)),
                        apps::otsuDataflowDirectives())
            .netlist;
    for (Core& c : cores) {
        c.name = c.netlist.name();
        for (const rtl::Port& p : c.netlist.ports()) {
            if (p.dir == rtl::PortDir::In) {
                c.inputs.push_back(p);
                if (isHandshake(p.name)) {
                    c.handshakes.push_back(p.name);
                } else if (endsWith(p.name, "_tdata")) {
                    c.streamData.push_back(p);
                }
            } else {
                c.outputs.push_back(p.name);
            }
        }
    }
    return cores;
}

/// Drives one active or idle operation on `sim` and returns the digest
/// of the output ports (sampled every 64 cycles and at the end). The
/// stimulus is a pure function of `opSeed`, so the reference replays it.
std::string driveOp(rtl::Simulator& sim, const Core& core, Phase phase, std::uint64_t opSeed) {
    Rng rng(opSeed);
    socgen::HashStream h;
    sim.reset();
    const bool active = phase == Phase::Active;
    for (const rtl::Port& p : core.inputs) {
        std::uint64_t v = 0;
        if (p.name == "ap_start") {
            v = active ? 1 : 0;
        } else if (active && !isHandshake(p.name)) {
            v = rng.next() & widthMask(p.width);  // data and scalar arguments
        }
        sim.setInput(p.name, v);
    }
    const std::uint64_t cycles = active ? kActiveCycles : kIdleCycles;
    for (std::uint64_t c = 0; c < cycles; ++c) {
        if (active) {
            const std::uint64_t bits = rng.next();
            unsigned bit = 0;
            for (const std::string& port : core.handshakes) {
                // Asserted three cycles in four, so data keeps flowing.
                sim.setInput(port, ((bits >> (2 * bit++)) & 3) != 0 ? 1 : 0);
            }
            for (const rtl::Port& p : core.streamData) {
                sim.setInput(p.name, (bits >> 32) & widthMask(p.width));
            }
        }
        sim.step();
        if ((c & 63) == 63) {
            for (const std::string& out : core.outputs) {
                h.field(sim.output(out));
            }
        }
    }
    sim.evaluate();
    for (const std::string& out : core.outputs) {
        h.field(sim.output(out));
    }
    return h.digest().hex();
}

std::vector<socgen::dse::CosimScenario> batchScenarios(const Core& core, std::uint64_t opSeed) {
    Rng rng(opSeed);
    std::vector<socgen::dse::CosimScenario> scenarios(kLanes);
    for (unsigned lane = 0; lane < kLanes; ++lane) {
        scenarios[lane].name = "lane" + std::to_string(lane);
        for (const rtl::Port& p : core.inputs) {
            std::uint64_t v = 1;  // ap_start, tvalid, tready held high
            if (p.name != "ap_start" && !isHandshake(p.name)) {
                v = rng.next() & widthMask(p.width);
            }
            scenarios[lane].inputs[p.name] = v;
        }
    }
    return scenarios;
}

std::string laneDigest(const socgen::dse::CosimLaneResult& r) {
    socgen::HashStream h;
    h.field(static_cast<std::uint64_t>(r.done)).field(r.doneCycle);
    for (const auto& [port, value] : r.outputs) {
        h.field(std::string_view(port)).field(value);
    }
    return h.digest().hex();
}

/// The reference for one lane: a scalar event-driven run of the same
/// held inputs for the same number of steps the batch took.
std::string referenceLane(const Core& core, const socgen::dse::CosimScenario& scenario,
                          std::uint64_t steps) {
    const auto sim = rtl::makeSimulator(core.netlist, rtl::SimBackend::EventDriven);
    for (const auto& [port, value] : scenario.inputs) {
        sim->setInput(port, value);
    }
    socgen::dse::CosimLaneResult r;
    for (std::uint64_t c = 0; c < steps; ++c) {
        sim->step();
        sim->evaluate();
        if (!r.done && sim->output("ap_done") != 0) {
            r.done = true;
            r.doneCycle = sim->cycleCount();
        }
    }
    for (const std::string& out : core.outputs) {
        r.outputs[out] = sim->output(out);
    }
    return laneDigest(r);
}

std::uint64_t batchSteps(const std::vector<socgen::dse::CosimLaneResult>& lanes) {
    std::uint64_t last = 0;
    for (const auto& r : lanes) {
        if (!r.done) {
            return kBatchCycles;
        }
        last = std::max(last, r.doneCycle);
    }
    return last;
}

} // namespace

WorkloadReport runRtlCosim(const WorkloadContext& ctx) {
    const RunConfig& cfg = ctx.config;
    WorkloadReport report;

    // Set-up, repeated: HLS of every core, then one simulator per core.
    SetupTimes setup;
    std::vector<Core> cores;
    double simSetupMs = 0.0;
    std::size_t compiledBackends = 0;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        setup.run([&] {
            cores = synthesizeCores();
            simSetupMs = 0.0;
            compiledBackends = 0;
            for (Core& c : cores) {
                const double s0 = nowSeconds();
                {
                    ScopedSpan span("rtl.make_simulator");
                    c.sim = rtl::makeSimulator(c.netlist, rtl::SimBackend::Auto);
                }
                simSetupMs += (nowSeconds() - s0) * 1e3;
                compiledBackends += c.sim->backendName() == "compiled" ? 1 : 0;
            }
        });
    }

    struct Pending {
        std::size_t core;
        Phase phase;
        std::uint64_t opSeed;
        std::uint64_t steps;  ///< batch: steps the batch took
        std::string digest;
    };
    std::vector<Pending> checks;
    Measurement m;
    double windowMs = 0.0;
    double phaseMs[3] = {};
    double phaseCycles[3] = {};
    std::uint64_t job = 0;
    const double deadline = nowSeconds() + cfg.seconds;
    for (std::size_t round = 0; nowSeconds() < deadline || round == 0; ++round) {
        double roundMs = 0.0;
        {
            ScopedSpan roundSpan("bench.rtl_round", round + 1);
            const double roundStart = nowSeconds();
            for (std::size_t ci = 0; ci < cores.size(); ++ci) {
                Core& core = cores[ci];
                for (const Phase phase : {Phase::Active, Phase::Idle, Phase::Batch}) {
                    const int pi = static_cast<int>(phase);
                    const std::uint64_t opSeed = streamSeed(cfg.seed, 5, job++);
                    ++report.attempted;
                    const bool check = round % kCheckEveryRounds == 0;
                    std::string digest;
                    std::uint64_t cycles = 0;
                    std::uint64_t steps = 0;
                    const double t0 = nowSeconds();
                    try {
                        ScopedSpan jobSpan("bench.rtl_job");
                        if (phase == Phase::Batch) {
                            const auto scenarios = batchScenarios(core, opSeed);
                            std::vector<socgen::dse::CosimLaneResult> lanes;
                            {
                                ScopedSpan span("rtl.batch_cosim");
                                lanes = socgen::dse::batchCosim(core.netlist, scenarios, "ap_done",
                                                                kBatchCycles);
                            }
                            steps = batchSteps(lanes);
                            cycles = steps * kLanes;
                            if (check) {
                                digest = laneDigest(lanes.front()) + laneDigest(lanes.back());
                            }
                        } else {
                            ScopedSpan span(phase == Phase::Active ? "rtl.active" : "rtl.idle");
                            digest = driveOp(*core.sim, core, phase, opSeed);
                            cycles = phase == Phase::Active ? kActiveCycles : kIdleCycles;
                        }
                    } catch (const std::exception& e) {
                        report.fail(core.name + ": " + e.what());
                        continue;
                    }
                    const double ms = (nowSeconds() - t0) * 1e3;
                    phaseMs[pi] += ms;
                    phaseCycles[pi] += static_cast<double>(cycles);
                    if (check) {
                        checks.push_back({ci, phase, opSeed, steps, digest});
                    }
                }
            }
            roundMs = (nowSeconds() - roundStart) * 1e3;
        }
        m.add(roundMs);
        windowMs += roundMs;
        if ((round + 1) % kWindowRounds == 0) {
            m.endWindow(kWindowRounds, windowMs / 1e3);
            windowMs = 0.0;
        }
    }

    // Checks against the event-driven reference, outside the timed region.
    for (const Pending& p : checks) {
        const Core& core = cores[p.core];
        std::string expected;
        if (p.phase == Phase::Batch) {
            // First and last lane, replayed for as many steps as the batch ran.
            const auto scenarios = batchScenarios(core, p.opSeed);
            expected = referenceLane(core, scenarios.front(), p.steps) +
                       referenceLane(core, scenarios.back(), p.steps);
        } else {
            const auto ref = rtl::makeSimulator(core.netlist, rtl::SimBackend::EventDriven);
            expected = driveOp(*ref, core, p.phase, p.opSeed);
        }
        if (expected != p.digest) {
            report.fail(core.name + ": output digest differs from the event-driven reference (" +
                        (p.phase == Phase::Active ? "active"
                         : p.phase == Phase::Idle ? "idle"
                                                  : "batch") +
                        ")");
        }
    }

    reportEndToEnd(report, "one cosim round: active, idle and 64-lane batch jobs on 7 cores",
                   nullptr, setup, m);
    const auto mcps = [&](int pi) {
        return phaseMs[pi] > 0 ? phaseCycles[pi] / (phaseMs[pi] * 1e3) : 0.0;
    };
    report.line("rtl_active_mcycles_per_s     %10.3f Mcycles/s", mcps(0));
    report.line("rtl_idle_mcycles_per_s       %10.3f Mcycles/s", mcps(1));
    report.line("rtl_batch_mlane_cycles_per_s %10.3f Mlane-cycles/s", mcps(2));
    report.line("reference checks             %10zu ops replayed on the event-driven backend",
                checks.size());

    double cells = 0.0;
    for (const Core& c : cores) {
        cells += static_cast<double>(c.netlist.cells().size());
    }
    const auto nsPer = [&](int pi) {
        return phaseCycles[pi] > 0 ? phaseMs[pi] * 1e6 / phaseCycles[pi] : 0.0;
    };
    report.perLayer["rtl.setup_ms"] = {simSetupMs / static_cast<double>(cores.size()), "ms"};
    report.perLayer["rtl.backend.compiled"] = {static_cast<double>(compiledBackends), "count"};
    report.perLayer["rtl.codegen.compiles"] = {
        static_cast<double>(rtl::codegenStats().compiles), "count"};
    report.perLayer["rtl.active.ns_per_cycle"] = {nsPer(0), "ns"};
    report.perLayer["rtl.idle.ns_per_cycle"] = {nsPer(1), "ns"};
    report.perLayer["rtl.batch.ns_per_lane_cycle"] = {nsPer(2), "ns"};
    report.perLayer["rtl.cells"] = {cells, "count"};
    return report;
}

} // namespace perfbench
