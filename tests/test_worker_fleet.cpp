// Worker-fleet tests (CTest labels: resilience;worker-fleet): the wire
// frame codec, the kernel/directives AST codecs they carry, and the
// crash-isolated fleet itself — spawn, bit-identical remote synthesis,
// kill -9 recovery with re-dispatch, graceful degradation when no
// worker can spawn, and the lease-epoch fence against zombie commits.

#include "socgen/apps/kernels.hpp"
#include "socgen/common/error.hpp"
#include "socgen/common/log.hpp"
#include "socgen/common/textfile.hpp"
#include "socgen/core/artifact_store.hpp"
#include "socgen/hls/engine.hpp"
#include "socgen/hls/serialize.hpp"
#include "socgen/svc/wire.hpp"
#include "socgen/svc/worker_fleet.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include <unistd.h>

namespace socgen::svc {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Wire codec

/// Feeds `bytes` into a FrameReader one byte at a time — the worst
/// pipe-fragmentation case — and returns all completed frames.
std::vector<wire::Frame> feedByteByByte(const std::string& bytes) {
    wire::FrameReader reader;
    std::vector<wire::Frame> frames;
    for (const char c : bytes) {
        reader.feed(std::string_view(&c, 1));
        while (auto frame = reader.next()) {
            frames.push_back(std::move(*frame));
        }
    }
    return frames;
}

TEST(Wire, FramesSurviveArbitraryFragmentation) {
    wire::RequestFrame request;
    request.requestId = 42;
    request.leaseEpoch = 7;
    request.key = "00ff00ff";
    request.kernel = "kernel-blob";
    request.directives = "directive-blob";
    request.delayMsBeforeResult = 17;
    request.crashBeforeResult = true;
    wire::HeartbeatFrame beat;
    beat.requestsServed = 3;
    beat.inFlightRequestId = 42;

    const std::string stream =
        wire::encodeFrame(wire::FrameType::Heartbeat, wire::encodeHeartbeat(beat)) +
        wire::encodeFrame(wire::FrameType::Request, wire::encodeRequest(request));
    const std::vector<wire::Frame> frames = feedByteByByte(stream);
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[0].type, wire::FrameType::Heartbeat);
    EXPECT_EQ(frames[1].type, wire::FrameType::Request);

    const wire::HeartbeatFrame beat2 = wire::decodeHeartbeat(frames[0].payload);
    EXPECT_EQ(beat2.requestsServed, 3u);
    EXPECT_EQ(beat2.inFlightRequestId, 42u);
    const wire::RequestFrame request2 = wire::decodeRequest(frames[1].payload);
    EXPECT_EQ(request2.requestId, 42u);
    EXPECT_EQ(request2.leaseEpoch, 7u);
    EXPECT_EQ(request2.key, "00ff00ff");
    EXPECT_EQ(request2.kernel, "kernel-blob");
    EXPECT_EQ(request2.directives, "directive-blob");
    EXPECT_EQ(request2.delayMsBeforeResult, 17u);
    EXPECT_TRUE(request2.crashBeforeResult);
}

TEST(Wire, AllTypedPayloadsRoundtrip) {
    wire::HelloFrame hello;
    hello.pid = 1234;
    const wire::HelloFrame hello2 = wire::decodeHello(wire::encodeHello(hello));
    EXPECT_EQ(hello2.protocolVersion, wire::kProtocolVersion);
    EXPECT_EQ(hello2.pid, 1234u);

    wire::ResultFrame result;
    result.requestId = 9;
    result.leaseEpoch = 2;
    result.result = std::string("binary\0blob", 11);
    const wire::ResultFrame result2 = wire::decodeResult(wire::encodeResult(result));
    EXPECT_EQ(result2.requestId, 9u);
    EXPECT_EQ(result2.leaseEpoch, 2u);
    EXPECT_EQ(result2.result, result.result);

    wire::ErrorFrame error;
    error.requestId = 5;
    error.leaseEpoch = 1;
    error.hlsError = true;
    error.message = "hls: no schedule";
    const wire::ErrorFrame error2 = wire::decodeError(wire::encodeError(error));
    EXPECT_EQ(error2.requestId, 5u);
    EXPECT_TRUE(error2.hlsError);
    EXPECT_EQ(error2.message, "hls: no schedule");
}

TEST(Wire, ImplausibleLengthPrefixThrows) {
    wire::FrameReader reader;
    reader.feed(std::string(5, '\xff'));
    EXPECT_THROW((void)reader.next(), WireError);
}

TEST(Wire, UnknownFrameTypeThrows) {
    // length = 1, type = 99.
    std::string bytes;
    bytes.push_back(1);
    bytes.push_back(0);
    bytes.push_back(0);
    bytes.push_back(0);
    bytes.push_back(99);
    wire::FrameReader reader;
    reader.feed(bytes);
    EXPECT_THROW((void)reader.next(), WireError);
}

TEST(Wire, TruncatedPayloadDecodeThrows) {
    const std::string good = wire::encodeRequest(wire::RequestFrame{});
    EXPECT_THROW((void)wire::decodeRequest(good.substr(0, good.size() / 2)), WireError);
}

// ---------------------------------------------------------------------------
// Kernel / directives AST codecs (what Request frames carry)

TEST(AstCodec, KernelRoundtripsThroughBytes) {
    const hls::Kernel kernel = apps::makeGaussKernel(64);
    const std::string bytes = hls::encodeKernel(kernel);
    const hls::Kernel back = hls::decodeKernel(bytes);
    // Bit-identical re-encoding is the strongest cheap equality witness.
    EXPECT_EQ(hls::encodeKernel(back), bytes);
    // And the decoded kernel synthesizes to the identical netlist.
    hls::Directives directives;
    const hls::HlsEngine engine;
    EXPECT_EQ(hls::encodeHlsResult(engine.synthesize(kernel, directives)),
              hls::encodeHlsResult(engine.synthesize(back, directives)));
}

TEST(AstCodec, DirectivesRoundtripThroughBytes) {
    hls::Directives directives;
    directives.clockNs = 7.5;
    directives.pipelineLoops = false;
    directives.maxMulUnits = 3;
    directives.tripCountHints["i"] = 64;
    directives.unrollFactors["j"] = 4;
    const std::string bytes = hls::encodeDirectives(directives);
    const hls::Directives back = hls::decodeDirectives(bytes);
    EXPECT_EQ(hls::encodeDirectives(back), bytes);
    EXPECT_EQ(back.clockNs, 7.5);
    EXPECT_FALSE(back.pipelineLoops);
    EXPECT_EQ(back.maxMulUnits, 3);
    EXPECT_EQ(back.tripCountHints.at("i"), 64);
    EXPECT_EQ(back.unrollFactors.at("j"), 4);
}

TEST(AstCodec, CorruptKernelBytesThrowCodecError) {
    std::string bytes = hls::encodeKernel(apps::makeMulKernel());
    bytes.resize(bytes.size() / 2);
    EXPECT_THROW((void)hls::decodeKernel(bytes), CodecError);
}

// ---------------------------------------------------------------------------
// The fleet

struct FleetFixture {
    std::string root;
    std::shared_ptr<core::ArtifactStore> store;
    hls::Kernel kernel = apps::makeMulKernel();
    hls::Directives directives;
    std::string key;

    FleetFixture() {
        static int serial = 0;
        root = (fs::temp_directory_path() /
                ("socgen_fleet_test_" + std::to_string(::getpid()) + "_" +
                 std::to_string(serial++)))
                   .string();
        fs::remove_all(root);
        store = std::make_shared<core::ArtifactStore>(root);
        key = core::ArtifactStore::deriveKey(kernel, directives, soc::zedboard(),
                                             "socgen-hls-1");
    }
    ~FleetFixture() { fs::remove_all(root); }
};

TEST(WorkerFleet, RemoteSynthesisIsBitIdenticalToLocal) {
    FleetFixture fx;
    WorkerFleetConfig config;
    config.workers = 1;
    WorkerFleet fleet(config, fx.store);
    ASSERT_TRUE(fleet.available());

    const core::RemoteSynthesis remote =
        fleet.synthesize(fx.kernel, fx.directives, fx.key);
    const hls::HlsResult local = hls::HlsEngine().synthesize(fx.kernel, fx.directives);
    EXPECT_EQ(hls::encodeHlsResult(remote.result), hls::encodeHlsResult(local));
    EXPECT_EQ(remote.leaseEpoch, 1u);
    EXPECT_EQ(fx.store->currentLease(fx.key), 1u);

    const WorkerFleetStats stats = fleet.stats();
    EXPECT_EQ(stats.requestsCompleted, 1u);
    EXPECT_EQ(stats.workerDeaths, 0u);
}

TEST(WorkerFleet, CrashAtStageBoundaryRespawnsAndRedispatches) {
    FleetFixture fx;
    WorkerFleetConfig config;
    config.workers = 1;
    // The worker _exit(137)s after synthesizing, before replying — the
    // exact attempt/commit boundary a kill -9 storm hits.
    config.crashWorkerBeforeResultForTest = true;
    WorkerFleet fleet(config, fx.store);

    const core::RemoteSynthesis remote =
        fleet.synthesize(fx.kernel, fx.directives, fx.key);
    const hls::HlsResult local = hls::HlsEngine().synthesize(fx.kernel, fx.directives);
    EXPECT_EQ(hls::encodeHlsResult(remote.result), hls::encodeHlsResult(local));
    // The winning commit carries the re-dispatch's (newer) lease.
    EXPECT_EQ(remote.leaseEpoch, 2u);

    const WorkerFleetStats stats = fleet.stats();
    EXPECT_GE(stats.workerDeaths, 1u);
    EXPECT_GE(stats.respawns, 1u);
    EXPECT_GE(stats.redispatches, 1u);
    EXPECT_EQ(stats.requestsCompleted, 1u);
    EXPECT_GE(stats.recoveries, 1u);
    EXPECT_GT(stats.meanRecoverMs(), 0.0);
}

TEST(WorkerFleet, KillRandomWorkerRecovers) {
    FleetFixture fx;
    WorkerFleetConfig config;
    config.workers = 2;
    WorkerFleet fleet(config, fx.store);

    // Wait for at least one worker to come up, then murder it while idle.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (fleet.workerPids().empty() &&
           std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ASSERT_FALSE(fleet.workerPids().empty());
    ASSERT_TRUE(fleet.killRandomWorker(1234).has_value());

    // The fleet still serves — through the survivor or the respawn.
    const core::RemoteSynthesis remote =
        fleet.synthesize(fx.kernel, fx.directives, fx.key);
    EXPECT_EQ(hls::encodeHlsResult(remote.result),
              hls::encodeHlsResult(hls::HlsEngine().synthesize(fx.kernel, fx.directives)));
    EXPECT_GE(fleet.stats().kills, 1u);
}

TEST(WorkerFleet, UnspawnableWorkersDegradeToUnavailable) {
    FleetFixture fx;
    WorkerFleetConfig config;
    config.workers = 1;
    config.workerPath = "/no/such/socgen-worker";
    config.respawnBackoffBaseMs = 1;
    WorkerFleet fleet(config, fx.store);

    // Whether the request races the slot's death or not, the outcome is
    // the structured unavailability the flow degrades on — never a hang.
    EXPECT_THROW((void)fleet.synthesize(fx.kernel, fx.directives, fx.key),
                 WorkerUnavailableError);
    EXPECT_FALSE(fleet.available());
    EXPECT_GE(fleet.stats().spawnFailures, 1u);
}

TEST(WorkerFleet, StaleProtocolWorkerIsRefusedAtHello) {
    // A worker built before protocol v2 would reply with the older
    // HlsResult codec that still carried HDL text. It must be refused at
    // Hello, before any request reaches it: a stand-in script says Hello
    // v1 and then waits.
    FleetFixture fx;
    ASSERT_NE(wire::kProtocolVersion, 1u);
    const fs::path dir = fx.root + "_stale_worker";
    fs::create_directories(dir);
    wire::HelloFrame hello;
    hello.protocolVersion = 1;
    hello.pid = 1;
    writeBinaryFile((dir / "hello.bin").string(),
                    wire::encodeFrame(wire::FrameType::Hello, wire::encodeHello(hello)));
    const fs::path script = dir / "socgen-worker-v1";
    writeTextFile(script.string(), "#!/bin/sh\ncat '" + (dir / "hello.bin").string() +
                                       "'\nexec sleep 30\n");
    fs::permissions(script, fs::perms::owner_all);

    WorkerFleetConfig config;
    config.workers = 1;
    config.workerPath = script.string();
    config.respawnBackoffBaseMs = 1;
    {
        WorkerFleet fleet(config, fx.store);
        EXPECT_THROW((void)fleet.synthesize(fx.kernel, fx.directives, fx.key),
                     WorkerUnavailableError);
        EXPECT_FALSE(fleet.available());
        const WorkerFleetStats stats = fleet.stats();
        EXPECT_EQ(stats.spawns, 0u);
        EXPECT_GE(stats.spawnFailures, 1u);
        EXPECT_EQ(stats.requestsCompleted, 0u);
    }
    core::ArtifactStore::LoadDiag diag;
    EXPECT_FALSE(fx.store->load(fx.key, &diag).has_value());
    fs::remove_all(dir);
}

TEST(WorkerFleet, PausedWorkerLateCommitIsFencedNotApplied) {
    // The lease-fencing satellite: a worker paused past the dispatch
    // deadline resumes after the attempt was re-dispatched. Its late
    // result must be dropped (stale epoch) and the re-dispatch's result
    // committed — and a late *store* commit under the old lease must be
    // rejected by storeFenced.
    FleetFixture fx;
    WorkerFleetConfig config;
    config.workers = 1;
    config.requestDelayMsForTest = 600;  // first dispatch replies late...
    config.requestDeadlineMs = 200;      // ...well past the deadline
    config.killOnDeadline = false;       // leave the zombie alive
    config.maxRedispatch = 5;
    WorkerFleet fleet(config, fx.store);

    LogCapture capture;
    const core::RemoteSynthesis remote =
        fleet.synthesize(fx.kernel, fx.directives, fx.key);
    EXPECT_EQ(hls::encodeHlsResult(remote.result),
              hls::encodeHlsResult(hls::HlsEngine().synthesize(fx.kernel, fx.directives)));
    // The winner is a later dispatch, not the paused original.
    EXPECT_GT(remote.leaseEpoch, 1u);
    EXPECT_EQ(remote.leaseEpoch, fx.store->currentLease(fx.key));

    const WorkerFleetStats stats = fleet.stats();
    EXPECT_GE(stats.deadlineTimeouts, 1u);
    EXPECT_GE(stats.staleResultsDropped, 1u);
    EXPECT_EQ(stats.kills, 0u);  // the worker was never killed, only fenced
    EXPECT_TRUE(capture.contains("stale"));

    // Belt and braces: replaying the zombie's commit against the store
    // is rejected and logged, not applied.
    fx.store->storeFenced(fx.key, remote.result, remote.leaseEpoch);
    EXPECT_THROW(fx.store->storeFenced(fx.key, remote.result, 1), StaleLeaseError);
    EXPECT_EQ(fx.store->staleCommitsRejected(), 1u);
    EXPECT_TRUE(fx.store->load(fx.key).has_value());
}

TEST(WorkerFleet, ConcurrentDispatchesAllComplete) {
    FleetFixture fx;
    WorkerFleetConfig config;
    config.workers = 2;
    WorkerFleet fleet(config, fx.store);

    constexpr int kThreads = 6;
    std::vector<std::thread> threads;
    std::vector<std::string> encoded(kThreads);
    const std::vector<hls::Kernel> kernels = {apps::makeMulKernel(),
                                              apps::makeGaussKernel(64),
                                              apps::makeEdgeKernel(64)};
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&, i] {
            const hls::Kernel& kernel = kernels[static_cast<std::size_t>(i) % kernels.size()];
            const std::string key = core::ArtifactStore::deriveKey(
                kernel, fx.directives, soc::zedboard(), "socgen-hls-1");
            const core::RemoteSynthesis remote =
                fleet.synthesize(kernel, fx.directives, key);
            encoded[static_cast<std::size_t>(i)] = hls::encodeHlsResult(remote.result);
        });
    }
    for (auto& thread : threads) {
        thread.join();
    }
    const hls::HlsEngine engine;
    for (int i = 0; i < kThreads; ++i) {
        const hls::Kernel& kernel = kernels[static_cast<std::size_t>(i) % kernels.size()];
        EXPECT_EQ(encoded[static_cast<std::size_t>(i)],
                  hls::encodeHlsResult(engine.synthesize(kernel, fx.directives)));
    }
    EXPECT_EQ(fleet.stats().requestsCompleted, static_cast<std::size_t>(kThreads));
}

} // namespace
} // namespace socgen::svc
