// service-mixed: a FlowService with 4 tenants, one closed-loop client
// thread each. Three quarters of submissions are one shared project the
// service dedupes; one quarter are unique cold kernels, synthesized by a
// 2-worker out-of-process fleet over svc/wire. The svc layer (admission,
// WFQ pool, ledger, journal, store, IPC) does most of the work.
//
// Each client thinks 150-250 ms between requests (seeded), which bounds
// the files a run writes to about 300 flows. Set-up (a fresh service with
// its fleet, warmed) is repeated on fresh roots; the last service serves
// the timed loop, whose windows are time slices.
//
// Service roots are never deleted by the benchmark: on ext4 mounted with
// online discard, deleting a large tree makes file creation an order of
// magnitude slower for over a minute, and the next run would measure
// that instead of socgen. They accumulate under the keep directory
// (.bench_out/svc-roots when run through run.py).

#include "generator.hpp"
#include "trace.hpp"
#include "workloads.hpp"

#include "socgen/apps/kernels.hpp"
#include "socgen/common/hash.hpp"
#include "socgen/core/parser.hpp"
#include "socgen/svc/flow_service.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <thread>

namespace perfbench {

namespace {

namespace core = socgen::core;
namespace svc = socgen::svc;

constexpr unsigned kTenants = 4;
constexpr unsigned kFleetWorkers = 2;
constexpr int kSetupReps = 3;
constexpr std::size_t kWindows = 8;
constexpr int kThinkMinMs = 150;
constexpr int kThinkMaxMs = 250;
/// Empty files created to gauge the root filesystem before measuring.
constexpr int kFsProbeFiles = 256;

constexpr const char* kSharedBody = R"(
  tg nodes;
    tg node "MUL" i "A" i "B" i "return" end;
    tg node "GAUSS" is "in" is "out" end;
    tg node "EDGE" is "in" is "out" end;
  tg end_nodes;
  tg edges;
    tg link 'soc to ("GAUSS","in") end;
    tg link ("GAUSS","out") to ("EDGE","in") end;
    tg link ("EDGE","out") to 'soc end;
    tg connect "MUL";
  tg end_edges;
}
)";

std::string sharedDsl(const std::string& project) {
    return "object " + project + " extends App {" + kSharedBody;
}

/// One finished request, as the client saw it.
struct Sample {
    std::string project;
    std::string dsl;
    svc::RequestOutcome outcome;
    double latencyMs = 0.0;
    double parseMs = 0.0;
    bool warmup = false;  ///< set-up request: checked, not timed
};

core::FlowOptions flowDefaults() {
    core::FlowOptions options;
    options.toolLatencyMsPerToolSecond = 0.0;
    return options;
}

/// Regular files under `dir` and their total size.
/// Creates kFsProbeFiles empty files under `dir`; returns files per second.
double fsCreatesPerSecond(const std::string& dir) {
    std::filesystem::create_directories(dir);
    const double t0 = nowSeconds();
    for (int i = 0; i < kFsProbeFiles; ++i) {
        std::ofstream(dir + "/f" + std::to_string(i));
    }
    return kFsProbeFiles / (nowSeconds() - t0);
}

std::pair<std::size_t, std::uintmax_t> treeUsage(const std::string& dir) {
    std::size_t files = 0;
    std::uintmax_t bytes = 0;
    std::error_code ec;
    for (const auto& entry : std::filesystem::recursive_directory_iterator(dir, ec)) {
        if (entry.is_regular_file(ec)) {
            ++files;
            bytes += entry.file_size(ec);
        }
    }
    return {files, bytes};
}

} // namespace

WorkloadReport runServiceMixed(const WorkloadContext& ctx) {
    const RunConfig& cfg = ctx.config;
    WorkloadReport report;

    // About five cold requests a second; the pool never runs dry.
    const auto coldPool = static_cast<std::size_t>(16.0 * cfg.seconds) + 64;
    socgen::hls::KernelLibrary kernels;
    kernels.add(socgen::apps::makeMulKernel());
    kernels.add(socgen::apps::makeGaussKernel(64));
    kernels.add(socgen::apps::makeEdgeKernel(64));
    std::vector<std::string> coldNames;
    for (std::size_t i = 0; i < coldPool + kSetupReps; ++i) {
        coldNames.push_back("COLD" + std::to_string(i));
        kernels.add(makeColdKernel(coldNames.back(), cfg.seed, i));
    }

    SetupTimes setup;
    std::vector<Sample> samples;
    // A root name no other run uses: seed, process, and phase.
    static int phase = 0;
    const std::string base = ctx.keepDir + "/service-" + std::to_string(cfg.seed) + "-" +
                             std::to_string(::getpid()) + "-" + std::to_string(phase++);
    const double fsCreates = fsCreatesPerSecond(base + "/fsprobe");

    // Set-up, repeated, each on a fresh root: the service with its fleet
    // and tenants, then warm-up requests that start both workers (the
    // shared project and one cold kernel, concurrently). The last one
    // serves the timed loop.
    std::unique_ptr<svc::FlowService> service;
    std::string root;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        service.reset();
        root = base + "/service" + std::to_string(rep);
        setup.run([&] {
            svc::ServiceConfig config;
            config.rootDir = root;
            config.stageWorkers = 4;
            config.flowRunners = 4;
            config.maxQueuedFlows = 64;
            config.workers = kFleetWorkers;
            config.flowDefaults = flowDefaults();
            service = std::make_unique<svc::FlowService>(config, kernels);
            for (unsigned t = 0; t < kTenants; ++t) {
                svc::TenantConfig tenant;
                tenant.maxQueueDepth = 8;
                service->configureTenant("tenant" + std::to_string(t), tenant);
            }
            std::vector<Sample> warm(2);
            warm[0].project = "warm" + std::to_string(rep);
            warm[0].dsl = sharedDsl(warm[0].project);
            warm[1].project = "warmcold" + std::to_string(rep);
            warm[1].dsl = soloDsl(warm[1].project, coldNames[coldPool + rep]);
            std::vector<svc::FlowHandle> handles;
            for (std::size_t w = 0; w < warm.size(); ++w) {
                svc::FlowRequest request;
                request.tenant = "tenant" + std::to_string(w);
                request.project = warm[w].project;
                request.graph = core::parseDsl(warm[w].dsl).graph;
                handles.push_back(service->submit(std::move(request)));
            }
            for (std::size_t w = 0; w < warm.size(); ++w) {
                warm[w].outcome = handles[w].wait();
                warm[w].warmup = true;
                samples.push_back(std::move(warm[w]));
            }
        });
    }

    const std::size_t measuredFrom = samples.size() - 2;  // the last warm-ups

    // Timed closed loop: each client submits its next request only after
    // the previous one finished and it thought. The main thread closes a
    // window every seconds/kWindows (the probe runs while clients think).
    std::atomic<std::size_t> nextCold{0};
    std::atomic<std::uint64_t> nextRequest{1};
    std::mutex samplesMutex;
    std::vector<Sample> finished;  // guarded by samplesMutex
    const double start = nowSeconds();
    const double deadline = start + cfg.seconds;
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kTenants; ++c) {
        clients.emplace_back([&, c] {
            Rng rng(streamSeed(cfg.seed, 6, c));
            const std::string tenant = "tenant" + std::to_string(c);
            for (std::size_t n = 0; nowSeconds() < deadline; ++n) {
                Sample sample;
                const std::string id = std::to_string(c) + "_" + std::to_string(n);
                if (rng.chance(1, 4)) {
                    const std::size_t k = nextCold.fetch_add(1);
                    if (k >= coldPool) {
                        break;  // pool used up: cold work would turn warm
                    }
                    sample.project = "c" + id;
                    sample.dsl = soloDsl(sample.project, coldNames[k]);
                } else {
                    sample.project = "s" + id;
                    sample.dsl = sharedDsl(sample.project);
                }
                const double s0 = nowSeconds();
                {
                    ScopedSpan op("bench.request", nextRequest.fetch_add(1));
                    svc::FlowRequest request;
                    request.tenant = tenant;
                    request.project = sample.project;
                    {
                        ScopedSpan span("core.parse");
                        request.graph = core::parseDsl(sample.dsl).graph;
                    }
                    sample.parseMs = (nowSeconds() - s0) * 1e3;
                    svc::FlowHandle handle;
                    {
                        ScopedSpan span("svc.submit");
                        handle = service->submit(std::move(request));
                    }
                    ScopedSpan span("svc.wait");
                    sample.outcome = handle.wait();
                }
                sample.latencyMs = (nowSeconds() - s0) * 1e3;
                {
                    const std::lock_guard<std::mutex> lock(samplesMutex);
                    finished.push_back(std::move(sample));
                }
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(rng.range(kThinkMinMs, kThinkMaxMs)));
            }
        });
    }
    Measurement m;
    double lastSwap = start;
    const auto closeWindow = [&] {
        std::vector<Sample> batch;
        {
            const std::lock_guard<std::mutex> lock(samplesMutex);
            batch.swap(finished);
        }
        const double swapped = nowSeconds();
        std::size_t done = 0;
        for (Sample& s : batch) {
            done += s.outcome.state == svc::RequestState::Completed ? 1 : 0;
            m.add(s.latencyMs);
            samples.push_back(std::move(s));
        }
        // The rate is mostly think time, so it stays raw; latencies scale.
        m.endWindow(static_cast<double>(done), swapped - lastSwap, false);
        lastSwap = swapped;
    };
    for (std::size_t w = 1; w < kWindows; ++w) {
        const double boundary =
            start + cfg.seconds * static_cast<double>(w) / static_cast<double>(kWindows);
        std::this_thread::sleep_for(
            std::chrono::duration<double>(std::max(0.0, boundary - nowSeconds())));
        closeWindow();
    }
    for (std::thread& t : clients) {
        t.join();
    }
    closeWindow();
    service->drain();

    const svc::ServiceStats stats = service->stats();
    const std::size_t rejected = stats.shed + stats.rejectedOverloaded +
                                 stats.rejectedTenantFull + stats.rejectedBreaker;
    const std::size_t maxQueueDepth = service->poolStats().maxQueueDepth;
    const std::size_t remoteSyntheses =
        service->fleet() != nullptr ? service->fleet()->stats().requestsCompleted : 0;
    service.reset();
    // Every synthesis this service ran (its two warm-ups and the timed
    // requests) must have gone over the wire.
    std::size_t engineRuns = 0;
    for (std::size_t i = measuredFrom; i < samples.size(); ++i) {
        engineRuns += samples[i].outcome.diagnostics.processEngineRuns();
    }
    if (remoteSyntheses < engineRuns) {
        report.fail(std::to_string(engineRuns) + " syntheses but only " +
                    std::to_string(remoteSyntheses) +
                    " went over the wire (in-process fallback)");
    }
    const auto [rootFiles, rootBytes] = treeUsage(root);
    const double flowsInRoot = static_cast<double>(samples.size() - measuredFrom);

    // Checks, outside the timed region: every request completed, every
    // synthesis ran in a worker, and every bitstream equals an in-process
    // Flow::run of the same project.
    auto referenceCache = std::make_shared<core::HlsCache>();
    FlowLedger ledger;
    double waitMs = 0.0;
    double overheadMs = 0.0;
    double parseMs = 0.0;
    double dslBytes = 0.0;
    std::size_t timed = 0;
    for (const Sample& s : samples) {
        ++report.attempted;
        const svc::RequestOutcome& o = s.outcome;
        if (o.state != svc::RequestState::Completed) {
            report.fail(s.project + ": " + svc::toString(o.state) + " " + o.error);
            continue;
        }
        for (const auto& n : o.diagnostics.nodes) {
            if (n.attempts > 0 && !n.remoteWorker) {
                report.fail(s.project + ": node " + n.node + " synthesized in-process");
            }
        }
        const core::ParsedDsl parsed = core::parseDsl(s.dsl);
        core::Flow flow(flowDefaults(), kernels, referenceCache);
        const core::FlowResult ref = flow.run(parsed.projectName, parsed.graph);
        if (socgen::digest128(ref.bitstream.serialize()).hex() != o.bitstreamDigest) {
            report.fail(s.project + ": bitstream differs from the in-process flow");
        }
        if (s.warmup) {
            continue;
        }
        ++timed;
        ledger.add(o.diagnostics, o.runMs, ref.tclText.size());
        waitMs += o.waitMs;
        parseMs += s.parseMs;
        dslBytes += static_cast<double>(s.dsl.size());
        double stageMs = 0.0;
        for (const auto& st : o.diagnostics.stages) {
            stageMs += st.hostMs;
        }
        overheadMs += s.latencyMs - stageMs;
    }

    reportEndToEnd(report, "one request (parse, submit, wait) to the flow service", "svc",
                   setup, m);
    const double done = timed == 0 ? 1.0 : static_cast<double>(timed);
    report.perLayer["core.parse.ms"] = {parseMs / done, "ms"};
    report.perLayer["core.parse.kb_per_s"] = {
        parseMs > 0 ? (dslBytes / 1024.0) / (parseMs / 1e3) : 0.0, "KB/s"};
    report.perLayer["svc.wait_ms"] = {waitMs / done, "ms"};
    report.perLayer["svc.overhead_ms"] = {overheadMs / done, "ms"};
    ledger.emit(report, 0.0);
    report.perLayer["svc.dedupe_ratio"] = report.perLayer["core.flow.hls_reuse_ratio"];
    report.perLayer["svc.remote_syntheses"] = {static_cast<double>(remoteSyntheses), "count"};
    report.perLayer["svc.pool.max_queue_depth"] = {static_cast<double>(maxQueueDepth), "count"};
    report.perLayer["svc.rejected"] = {static_cast<double>(rejected), "count"};
    report.perLayer["svc.root_bytes_per_flow"] = {static_cast<double>(rootBytes) / flowsInRoot,
                                                  "bytes"};
    report.perLayer["svc.root_files_per_flow"] = {static_cast<double>(rootFiles) / flowsInRoot,
                                                  "count"};
    report.perLayer["svc.fs_creates_per_s"] = {fsCreates, "1/s"};
    report.line("svc root per flow       %10.0f bytes in %.1f files (roots kept under %s)",
                static_cast<double>(rootBytes) / flowsInRoot,
                static_cast<double>(rootFiles) / flowsInRoot, base.c_str());
    report.line("root fs file creates    %10.0f per second before measuring", fsCreates);
    report.line("remote syntheses        %10zu over svc/wire to %u workers", remoteSyntheses,
                kFleetWorkers);
    return report;
}

} // namespace perfbench
