// Crash-recovery harness (CTest label: resilience): kills the flow at
// every journaled stage boundary, corrupts stored artifacts, injects
// transient tool failures and hangs, and asserts the journaled,
// supervised flow always recovers to a bit-identical bitstream — with
// zero re-synthesis of journal-committed nodes and never a silently
// loaded corrupt artifact.

#include "socgen/apps/dataflow.hpp"
#include "socgen/apps/kernels.hpp"
#include "socgen/common/error.hpp"
#include "socgen/common/textfile.hpp"
#include "socgen/core/artifact_store.hpp"
#include "socgen/core/flow.hpp"
#include "socgen/core/journal.hpp"
#include "socgen/core/parser.hpp"
#include "socgen/hls/serialize.hpp"
#include "socgen/rtl/verilog.hpp"
#include "socgen/rtl/vhdl.hpp"
#include "socgen/sim/fault.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace socgen::core {
namespace {

hls::KernelLibrary exampleKernels() {
    hls::KernelLibrary lib;
    lib.add(apps::makeAddKernel());
    lib.add(apps::makeMulKernel());
    lib.add(apps::makeGaussKernel(64));
    lib.add(apps::makeEdgeKernel(64));
    return lib;
}

TaskGraph quickstartGraph() {
    constexpr const char* dsl = R"(
object q extends App {
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
    return parseDsl(dsl).graph;
}

const std::vector<std::string>& graphNodes() {
    static const std::vector<std::string> nodes = {"MUL", "GAUSS", "EDGE"};
    return nodes;
}

std::string freshDir(const std::string& name) {
    const std::string dir = testing::TempDir() + "/socgen_recovery_" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

const FlowDiagnostics::NodeOutcome& outcomeOf(const FlowResult& result,
                                              const std::string& node) {
    for (const auto& n : result.diagnostics.nodes) {
        if (n.node == node) {
            return n;
        }
    }
    throw Error("test: no outcome for node " + node);
}

/// The clean reference build every recovery run must reproduce bit-exactly.
const FlowResult& referenceResult() {
    static const FlowResult result = [] {
        const hls::KernelLibrary kernels = exampleKernels();
        return Flow(FlowOptions{}, kernels).run("proj", quickstartGraph());
    }();
    return result;
}

std::string journalPathOf(const std::string& dir) {
    return dir + "/.socgen/journal/proj.jsonl";
}

// ---------------------------------------------------------------------------
// The crash sweep: kill the flow at every stage boundary (both at stage
// begin and pre-commit), then re-run with the same outputDir. The
// recovery run must produce a bit-identical bitstream, and every node the
// journal recorded as committed must be served from the store with zero
// engine attempts.

TEST(FlowRecovery, CrashSweepResumesBitIdentical) {
    const hls::KernelLibrary kernels = exampleKernels();
    const std::string referenceBits = referenceResult().bitstream.serialize();
    std::vector<std::string> stages = {"scala",   "integrate", "synth",    "devicetree",
                                       "drivers", "boot",      "artifacts"};
    for (const std::string& node : graphNodes()) {
        stages.push_back("hls:" + node);
    }
    for (const std::string& stage : stages) {
        for (std::uint64_t phase = 0; phase <= 1; ++phase) {
            const std::string tag =
                stage.substr(stage.find(':') + 1) + "_p" + std::to_string(phase);
            const std::string dir = freshDir("crash_" + tag);
            FlowOptions crashing;
            crashing.outputDir = dir;
            crashing.flowFaults.crashFlow(stage, phase);
            Flow broken(crashing, kernels);
            EXPECT_THROW((void)broken.run("proj", quickstartGraph()), FlowCrashError)
                << stage << " phase " << phase;

            // What did the crashed run durably commit?
            const FlowJournal journal = FlowJournal::open(journalPathOf(dir));
            const std::vector<std::string> committed = journal.committedStages();

            FlowOptions clean;
            clean.outputDir = dir;
            const FlowResult recovered = Flow(clean, kernels).run("proj", quickstartGraph());
            EXPECT_EQ(recovered.bitstream.serialize(), referenceBits)
                << "recovery after crash at " << stage << " phase " << phase
                << " is not bit-identical";
            EXPECT_EQ(recovered.diagnostics.digestMismatches, 0u) << stage;

            // Zero re-synthesis of committed nodes, journal-verified.
            for (const std::string& done : committed) {
                if (done.rfind("hls:", 0) != 0) {
                    continue;
                }
                const auto& outcome = outcomeOf(recovered, done.substr(4));
                EXPECT_TRUE(outcome.storeHit) << done << " after crash at " << stage;
                EXPECT_TRUE(outcome.resumedFromJournal) << done;
                EXPECT_EQ(outcome.attempts, 0u) << done;
                EXPECT_DOUBLE_EQ(outcome.toolSeconds, 0.0) << done;
            }

            // A third run resumes everything: no engine work at all.
            const FlowResult warm = Flow(clean, kernels).run("proj", quickstartGraph());
            EXPECT_EQ(warm.diagnostics.engineRuns(), 0u) << stage;
            EXPECT_EQ(warm.diagnostics.storeHits(), graphNodes().size()) << stage;
            EXPECT_EQ(warm.bitstream.serialize(), referenceBits) << stage;
            std::filesystem::remove_all(dir);
        }
    }
}

// ---------------------------------------------------------------------------
// Corruption: a stored artifact damaged after its commit must be detected
// by digest validation on the next run and rebuilt — never silently
// loaded into the design.

TEST(FlowRecovery, CorruptArtifactDetectedAndRebuilt) {
    const hls::KernelLibrary kernels = exampleKernels();
    const std::string dir = freshDir("corrupt");
    FlowOptions first;
    first.outputDir = dir;
    first.flowFaults.corruptArtifact("GAUSS");
    const FlowResult seeded = Flow(first, kernels).run("proj", quickstartGraph());
    EXPECT_EQ(seeded.diagnostics.engineRuns(), 3u);

    FlowOptions second;
    second.outputDir = dir;
    const FlowResult recovered = Flow(second, kernels).run("proj", quickstartGraph());
    const auto& gauss = outcomeOf(recovered, "GAUSS");
    EXPECT_FALSE(gauss.storeHit);  // validation rejected the object
    EXPECT_EQ(gauss.attempts, 1u);
    EXPECT_EQ(recovered.diagnostics.corruptArtifacts, 1u);
    EXPECT_EQ(recovered.diagnostics.storeHits(), 2u);  // MUL and EDGE intact
    EXPECT_EQ(recovered.bitstream.serialize(), referenceResult().bitstream.serialize());
    EXPECT_NE(recovered.diagnostics.render().find("corrupt artifact"), std::string::npos);

    // The rebuild overwrote the bad object: a third run is fully warm.
    const FlowResult warm = Flow(second, kernels).run("proj", quickstartGraph());
    EXPECT_EQ(warm.diagnostics.engineRuns(), 0u);
    std::filesystem::remove_all(dir);
}

TEST(FlowRecovery, StoreValidationRejectsFlippedByte) {
    const hls::KernelLibrary kernels = exampleKernels();
    const std::string dir = freshDir("store_validate");
    FlowOptions options;
    options.outputDir = dir;
    Flow flow(options, kernels);
    const FlowResult result = flow.run("proj", quickstartGraph());
    ASSERT_NE(flow.artifactStore(), nullptr);
    const std::string key = outcomeOf(result, "EDGE").artifactKey;
    ASSERT_TRUE(flow.artifactStore()->contains(key));
    flow.artifactStore()->corruptObject(key);
    std::string why;
    EXPECT_FALSE(flow.artifactStore()->load(key, &why).has_value());
    EXPECT_FALSE(why.empty());
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Cache-key regression (the stale-hit bug): the in-memory cache is keyed
// by content, so changing a kernel's directives must miss and re-run HLS
// rather than returning the result synthesized under the old directives.

TEST(FlowRecovery, ChangedDirectivesNeverHitTheStaleCacheEntry) {
    const hls::KernelLibrary kernels = exampleKernels();
    auto cache = std::make_shared<HlsCache>();
    const FlowResult plain =
        Flow(FlowOptions{}, kernels, cache).run("a", quickstartGraph());
    EXPECT_EQ(cache->size(), 3u);

    FlowOptions unrolled;
    unrolled.kernelDirectives["GAUSS"] = hls::Directives{};
    unrolled.kernelDirectives["GAUSS"].unrollFactors["i"] = 4;
    const FlowResult tuned =
        Flow(unrolled, kernels, cache).run("b", quickstartGraph());

    // GAUSS re-synthesized under the new directives; MUL/EDGE still hit.
    EXPECT_FALSE(outcomeOf(tuned, "GAUSS").cacheHit);
    EXPECT_EQ(outcomeOf(tuned, "GAUSS").attempts, 1u);
    EXPECT_TRUE(outcomeOf(tuned, "MUL").cacheHit);
    EXPECT_TRUE(outcomeOf(tuned, "EDGE").cacheHit);
    EXPECT_NE(outcomeOf(tuned, "GAUSS").artifactKey,
              outcomeOf(plain, "GAUSS").artifactKey);
    EXPECT_NE(tuned.hlsResults.at("GAUSS").directiveText,
              plain.hlsResults.at("GAUSS").directiveText);
    EXPECT_EQ(cache->size(), 4u);  // both GAUSS variants coexist

    // And the original directives still hit their own entry.
    const FlowResult again =
        Flow(FlowOptions{}, kernels, cache).run("c", quickstartGraph());
    EXPECT_TRUE(outcomeOf(again, "GAUSS").cacheHit);
    EXPECT_EQ(again.hlsResults.at("GAUSS").hdl().vhdl,
              plain.hlsResults.at("GAUSS").hdl().vhdl);
}

TEST(FlowRecovery, ArtifactKeySensitivity) {
    const hls::KernelLibrary kernels = exampleKernels();
    const hls::Kernel& gauss = kernels.get("GAUSS");
    const hls::Directives base;
    const soc::FpgaDevice device = soc::zedboard();
    const std::string key = ArtifactStore::deriveKey(gauss, base, device, "tool-1");
    EXPECT_EQ(key.size(), 32u);
    EXPECT_EQ(key, ArtifactStore::deriveKey(gauss, base, device, "tool-1"));

    hls::Directives tuned = base;
    tuned.unrollFactors["i"] = 2;
    EXPECT_NE(key, ArtifactStore::deriveKey(gauss, tuned, device, "tool-1"));

    soc::FpgaDevice other = device;
    other.part = "xc7z045ffg900-2";
    EXPECT_NE(key, ArtifactStore::deriveKey(gauss, base, other, "tool-1"));
    EXPECT_NE(key, ArtifactStore::deriveKey(gauss, base, device, "tool-2"));
    EXPECT_NE(key, ArtifactStore::deriveKey(kernels.get("EDGE"), base, device, "tool-1"));
}

// ---------------------------------------------------------------------------
// Supervision: transient failures are retried with backoff; exhaustion
// degrades under the Degrade policy; hangs hit the deadline and retry.

TEST(FlowRecovery, TransientFailureRetriesThenSucceeds) {
    const hls::KernelLibrary kernels = exampleKernels();
    FlowOptions options;
    options.transientHlsFailures["GAUSS"] = 2;  // attempts 1+2 fail, 3 succeeds
    const FlowResult result = Flow(options, kernels).run("proj", quickstartGraph());
    EXPECT_FALSE(result.diagnostics.anyDegraded());
    EXPECT_EQ(outcomeOf(result, "GAUSS").attempts, 3u);
    EXPECT_EQ(outcomeOf(result, "MUL").attempts, 1u);
    EXPECT_GE(result.diagnostics.stageRetries, 2u);
    EXPECT_EQ(result.bitstream.serialize(), referenceResult().bitstream.serialize());
}

TEST(FlowRecovery, RetriesExhaustedDegradeTheNode) {
    const hls::KernelLibrary kernels = exampleKernels();
    FlowOptions options;
    options.transientHlsFailures["GAUSS"] = 100;  // outlives every retry budget
    const FlowResult result = Flow(options, kernels).run("proj", quickstartGraph());
    EXPECT_EQ(result.diagnostics.degradedNodes(), std::vector<std::string>{"GAUSS"});
    EXPECT_EQ(outcomeOf(result, "GAUSS").attempts,
              static_cast<unsigned>(StagePolicy{}.maxAttempts));

    FlowOptions aborting = options;
    aborting.hlsFailurePolicy = HlsFailurePolicy::Abort;
    EXPECT_THROW((void)Flow(aborting, kernels).run("proj", quickstartGraph()), HlsError);
}

TEST(FlowRecovery, StageHangHitsDeadlineAndRetries) {
    const hls::KernelLibrary kernels = exampleKernels();
    FlowOptions options;
    options.stagePolicy.deadlineMs = 250.0;
    options.flowFaults.hangStage("hls:GAUSS", 1'000);  // one-shot: retry is clean
    const FlowResult result = Flow(options, kernels).run("proj", quickstartGraph());
    EXPECT_FALSE(result.diagnostics.anyDegraded());
    EXPECT_EQ(outcomeOf(result, "GAUSS").attempts, 2u);
    EXPECT_GE(result.diagnostics.stageTimeouts, 1u);
    EXPECT_EQ(result.bitstream.serialize(), referenceResult().bitstream.serialize());
}

// ---------------------------------------------------------------------------
// Journal parity: jobs=4 must leave the same journal and the same
// per-node diagnostics as jobs=1 even under injected failures.

TEST(FlowRecovery, ParallelJobsLeaveIdenticalJournalAndDiagnostics) {
    const hls::KernelLibrary kernels = exampleKernels();
    const std::string dirSerial = freshDir("jobs1");
    const std::string dirParallel = freshDir("jobs4");
    const auto runWith = [&](const std::string& dir, unsigned jobs) {
        FlowOptions options;
        options.outputDir = dir;
        options.jobs = jobs;
        options.transientHlsFailures["EDGE"] = 1;
        return Flow(options, kernels).run("proj", quickstartGraph());
    };
    const FlowResult serial = runWith(dirSerial, 1);
    const FlowResult parallel = runWith(dirParallel, 4);

    const FlowJournal journalSerial = FlowJournal::open(journalPathOf(dirSerial));
    const FlowJournal journalParallel = FlowJournal::open(journalPathOf(dirParallel));
    EXPECT_EQ(journalSerial.renderText(), journalParallel.renderText());
    EXPECT_FALSE(journalSerial.renderText().empty());

    ASSERT_EQ(serial.diagnostics.nodes.size(), parallel.diagnostics.nodes.size());
    for (std::size_t i = 0; i < serial.diagnostics.nodes.size(); ++i) {
        const auto& a = serial.diagnostics.nodes[i];
        const auto& b = parallel.diagnostics.nodes[i];
        EXPECT_EQ(a.node, b.node);
        EXPECT_EQ(a.degraded, b.degraded);
        EXPECT_EQ(a.attempts, b.attempts);
        EXPECT_EQ(a.cacheHit, b.cacheHit);
        EXPECT_EQ(a.storeHit, b.storeHit);
        EXPECT_EQ(a.artifactKey, b.artifactKey);
        EXPECT_DOUBLE_EQ(a.toolSeconds, b.toolSeconds);
    }
    EXPECT_EQ(serial.diagnostics.render(), parallel.diagnostics.render());
    EXPECT_EQ(serial.bitstream.serialize(), parallel.bitstream.serialize());

    // The per-stage table agrees field by field (hostMs is the only
    // non-deterministic column and is deliberately excluded).
    ASSERT_EQ(serial.diagnostics.stages.size(), parallel.diagnostics.stages.size());
    ASSERT_FALSE(serial.diagnostics.stages.empty());
    for (std::size_t i = 0; i < serial.diagnostics.stages.size(); ++i) {
        const auto& a = serial.diagnostics.stages[i];
        const auto& b = parallel.diagnostics.stages[i];
        EXPECT_EQ(a.stage, b.stage);
        EXPECT_EQ(a.attempts, b.attempts);
        EXPECT_EQ(a.timeouts, b.timeouts);
        EXPECT_DOUBLE_EQ(a.toolSeconds, b.toolSeconds);
        EXPECT_EQ(a.source, b.source);
        EXPECT_EQ(a.committed, b.committed);
    }

    // Every written artifact is byte-identical across jobs settings.
    // REPORT.md is excluded: it renders the measured host milliseconds.
    const auto artifactBytes = [](const std::string& dir) {
        std::map<std::string, std::string> files;
        const std::filesystem::path root = std::filesystem::path(dir) / "proj";
        for (const auto& entry : std::filesystem::recursive_directory_iterator(root)) {
            if (!entry.is_regular_file() || entry.path().filename() == "REPORT.md") {
                continue;
            }
            std::ifstream in(entry.path(), std::ios::binary);
            std::string bytes((std::istreambuf_iterator<char>(in)),
                              std::istreambuf_iterator<char>());
            files.emplace(std::filesystem::relative(entry.path(), root).string(),
                          std::move(bytes));
        }
        return files;
    };
    const auto filesSerial = artifactBytes(dirSerial);
    EXPECT_FALSE(filesSerial.empty());
    EXPECT_EQ(filesSerial, artifactBytes(dirParallel));
    std::filesystem::remove_all(dirSerial);
    std::filesystem::remove_all(dirParallel);
}

// ---------------------------------------------------------------------------
// Journal robustness: torn tails are compacted; changed flow inputs reset
// the journal rather than resuming against stale commits.

TEST(FlowRecovery, TornJournalTailIsCompactedAndResumeStillWorks) {
    const hls::KernelLibrary kernels = exampleKernels();
    const std::string dir = freshDir("torn");
    FlowOptions options;
    options.outputDir = dir;
    (void)Flow(options, kernels).run("proj", quickstartGraph());

    // Simulate a crash mid-append: a partial record with no newline.
    {
        std::ofstream torn(journalPathOf(dir), std::ios::app | std::ios::binary);
        torn << R"({"seq": 99, "event": "com)";
    }
    const FlowJournal compacted = FlowJournal::open(journalPathOf(dir));
    for (const auto& record : compacted.records()) {
        EXPECT_NE(record.seq, 99u);
    }

    const FlowResult resumed = Flow(options, kernels).run("proj", quickstartGraph());
    EXPECT_EQ(resumed.diagnostics.engineRuns(), 0u);
    EXPECT_EQ(resumed.diagnostics.storeHits(), 3u);
    EXPECT_EQ(resumed.bitstream.serialize(), referenceResult().bitstream.serialize());
    std::filesystem::remove_all(dir);
}

TEST(FlowRecovery, ChangedInputsResetTheJournal) {
    const hls::KernelLibrary kernels = exampleKernels();
    const std::string dir = freshDir("reset");
    FlowOptions options;
    options.outputDir = dir;
    (void)Flow(options, kernels).run("proj", quickstartGraph());

    FlowOptions bumped = options;
    bumped.toolVersion = "socgen-hls-2";  // invalidates keys AND the fingerprint
    const FlowResult rebuilt = Flow(bumped, kernels).run("proj", quickstartGraph());
    EXPECT_EQ(rebuilt.diagnostics.engineRuns(), 3u);
    EXPECT_EQ(rebuilt.diagnostics.storeHits(), 0u);
    EXPECT_EQ(rebuilt.diagnostics.resumedStages, 0u);
    for (const auto& n : rebuilt.diagnostics.nodes) {
        EXPECT_FALSE(n.resumedFromJournal) << n.node;
    }
    std::filesystem::remove_all(dir);
}

TEST(FlowRecovery, SwitchedSimBackendResetsTheJournal) {
    // The resolved simulation backend is folded into the flow
    // fingerprint: a journal written under the compiled engine must not
    // be resumed under the event-driven one (sim-derived outputs could
    // otherwise replay across backends), while HLS cores — which do not
    // depend on how they are later simulated — still come from the store.
    const hls::KernelLibrary kernels = exampleKernels();
    const std::string dir = freshDir("simbackend");
    FlowOptions options;
    options.outputDir = dir;
    (void)Flow(options, kernels).run("proj", quickstartGraph());  // Auto -> compiled

    FlowOptions switched = options;
    switched.simBackend = rtl::SimBackend::EventDriven;
    const FlowResult rebuilt = Flow(switched, kernels).run("proj", quickstartGraph());
    EXPECT_EQ(rebuilt.diagnostics.storeHits(), 3u);
    EXPECT_EQ(rebuilt.diagnostics.engineRuns(), 0u);
    EXPECT_EQ(rebuilt.diagnostics.resumedStages, 0u);
    for (const auto& n : rebuilt.diagnostics.nodes) {
        EXPECT_FALSE(n.resumedFromJournal) << n.node;
    }

    // The SOCGEN_SIM_BACKEND override resolves to the same fingerprint
    // as the explicit option, so this run resumes the event journal.
    ::setenv("SOCGEN_SIM_BACKEND", "event", 1);
    const FlowResult viaEnv = Flow(options, kernels).run("proj", quickstartGraph());
    ::unsetenv("SOCGEN_SIM_BACKEND");
    EXPECT_GT(viaEnv.diagnostics.resumedStages, 0u);
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Codec: a decoded artifact is interchangeable with a fresh result, and
// damage anywhere in the byte stream is detected.

/// Encodes and decodes `original` and checks the copy field by field.
/// HDL is not stored, so the netlist must carry everything the printers
/// read: the HDL a store hit writes equals a fresh synthesis's.
void expectCodecRoundTrip(const hls::HlsResult& original) {
    const std::string bytes = hls::encodeHlsResult(original);
    const hls::HlsResult decoded = hls::decodeHlsResult(bytes);
    EXPECT_EQ(decoded.kernelName, original.kernelName);
    EXPECT_EQ(rtl::VhdlEmitter{}.emit(decoded.netlist),
              rtl::VhdlEmitter{}.emit(original.netlist));
    EXPECT_EQ(rtl::VerilogEmitter{}.emit(decoded.netlist),
              rtl::VerilogEmitter{}.emit(original.netlist));
    EXPECT_EQ(decoded.directiveText, original.directiveText);
    EXPECT_EQ(decoded.reportText, original.reportText);
    EXPECT_DOUBLE_EQ(decoded.toolSeconds, original.toolSeconds);
    EXPECT_EQ(decoded.resources, original.resources);
    EXPECT_EQ(decoded.program.ports.size(), original.program.ports.size());
    EXPECT_EQ(decoded.netlist.cells().size(), original.netlist.cells().size());
    EXPECT_EQ(decoded.netlist.nets().size(), original.netlist.nets().size());
    // Re-encoding the decode is byte-stable (canonical form).
    EXPECT_EQ(hls::encodeHlsResult(decoded), bytes);
}

TEST(FlowRecovery, HlsResultCodecRoundTrips) {
    const hls::KernelLibrary kernels = exampleKernels();
    const FlowResult result = Flow(FlowOptions{}, kernels).run("proj", quickstartGraph());
    for (const std::string& node : graphNodes()) {
        SCOPED_TRACE(node);
        expectCodecRoundTrip(result.hlsResults.at(node));
    }
    // A multi-process network: the flattened wrapper with its FIFOs.
    SCOPED_TRACE("triStagePipe");
    expectCodecRoundTrip(hls::HlsEngine{}.synthesize(apps::makeStreamPipelineNetwork(8)));
}

TEST(FlowRecovery, CodecRejectsTruncationAndTrailingGarbage) {
    const hls::KernelLibrary kernels = exampleKernels();
    const FlowResult result = Flow(FlowOptions{}, kernels).run("proj", quickstartGraph());
    const std::string bytes = hls::encodeHlsResult(result.hlsResults.at("MUL"));
    EXPECT_THROW((void)hls::decodeHlsResult(bytes.substr(0, bytes.size() / 2)),
                 ArtifactError);
    EXPECT_THROW((void)hls::decodeHlsResult(bytes + "x"), ArtifactError);
    EXPECT_THROW((void)hls::decodeHlsResult(""), ArtifactError);
}

// ---------------------------------------------------------------------------
// Store hygiene under crashes and concurrent writers

TEST(FlowRecovery, OrphanedTempFilesAreCollectedOnOpen) {
    const std::string dir = freshDir("tmp_gc");
    const std::string storeDir = dir + "/store";
    {
        const ArtifactStore store(storeDir);
        const FlowResult result =
            Flow(FlowOptions{}, exampleKernels()).run("proj", quickstartGraph());
        store.store("deadbeefdeadbeefdeadbeefdeadbeef", result.hlsResults.at("MUL"));
        EXPECT_EQ(store.reclaimedTempFiles(), 0u);
    }
    // A crashed writer's leftovers: write-then-rename temporaries that
    // never made it to their final name, in the objects directory.
    writeTextFile(storeDir + "/objects/0123.art.tmp1", "torn partial object");
    writeTextFile(storeDir + "/objects/4567.art.tmp42", "another one");

    const ArtifactStore reopened(storeDir);
    EXPECT_EQ(reopened.reclaimedTempFiles(), 2u);
    EXPECT_FALSE(fileExists(storeDir + "/objects/0123.art.tmp1"));
    EXPECT_FALSE(fileExists(storeDir + "/objects/4567.art.tmp42"));
    // The real object survived the sweep.
    EXPECT_TRUE(reopened.contains("deadbeefdeadbeefdeadbeefdeadbeef"));
    EXPECT_EQ(reopened.objectCount(), 1u);
    std::filesystem::remove_all(dir);
}

TEST(FlowRecovery, TwoWritersSameDigestLeaveOneValidObject) {
    // Two flows (two tenants of a shared store) synthesize the same
    // kernel concurrently and both store under the same content key.
    // Whoever wins the rename, the object must validate and decode —
    // never a torn mix of both writers.
    const std::string dir = freshDir("two_writers");
    const ArtifactStore store(dir + "/store");
    const FlowResult result =
        Flow(FlowOptions{}, exampleKernels()).run("proj", quickstartGraph());
    const hls::HlsResult& artifact = result.hlsResults.at("GAUSS");
    const std::string key = "feedfacefeedfacefeedfacefeedface";

    constexpr int kWriters = 8;
    constexpr int kRoundsPerWriter = 25;
    std::vector<std::thread> writers;
    writers.reserve(kWriters);
    for (int w = 0; w < kWriters; ++w) {
        writers.emplace_back([&store, &artifact, &key] {
            for (int i = 0; i < kRoundsPerWriter; ++i) {
                store.store(key, artifact);
            }
        });
    }
    for (auto& thread : writers) {
        thread.join();
    }
    std::string whyMiss;
    const std::optional<hls::HlsResult> loaded = store.load(key, &whyMiss);
    ASSERT_TRUE(loaded.has_value()) << whyMiss;
    EXPECT_EQ(hls::encodeHlsResult(*loaded), hls::encodeHlsResult(artifact));
    EXPECT_EQ(store.objectCount(), 1u);
    // No orphaned temporaries survive the race either.
    const ArtifactStore reopened(dir + "/store");
    EXPECT_EQ(reopened.reclaimedTempFiles(), 0u);
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace socgen::core
