// Property-based tests over randomly generated inputs:
//  1. random kernels: the VM output is invariant under optimize() and
//     unrollLoops() — the transforms preserve semantics by construction;
//  2. random task graphs: renderDsl() followed by parseDsl() is the
//     identity;
//  3. random stream pipelines: a generated multi-core system computes the
//     composition of its stages' software references;
//  4. random netlists: every corpus shape (wide buses, paired BRAM ports,
//     deep chains) is accepted by the emitters, simulators and tracer.

#include "netlist_gen.hpp"
#include "socgen/apps/kernels.hpp"
#include "socgen/common/error.hpp"
#include "socgen/common/hash.hpp"
#include "socgen/core/journal.hpp"
#include "socgen/hls/engine.hpp"
#include "socgen/hls/interpreter.hpp"
#include "socgen/hls/optimize.hpp"
#include "socgen/hls/serialize.hpp"
#include "socgen/hls/unroll.hpp"
#include "socgen/hls/verify.hpp"
#include "socgen/rtl/compiled_sim.hpp"
#include "socgen/rtl/sim_backend.hpp"
#include "socgen/rtl/vcd.hpp"
#include "socgen/rtl/verilog.hpp"
#include "socgen/rtl/vhdl.hpp"
#include "socgen/socgen.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <filesystem>
#include <map>

namespace socgen {
namespace {

/// xorshift64* PRNG for reproducible fuzzing.
class Rng {
public:
    explicit Rng(std::uint64_t seed) : state_(seed * 2654435761u + 1) {}
    std::uint64_t next() {
        state_ ^= state_ >> 12;
        state_ ^= state_ << 25;
        state_ ^= state_ >> 27;
        return state_ * 0x2545F4914F6CDD1DULL;
    }
    std::uint64_t below(std::uint64_t n) { return next() % n; }

private:
    std::uint64_t state_;
};

class FuzzIo : public hls::KernelIo {
public:
    std::map<hls::PortId, std::uint64_t> args;
    std::map<hls::PortId, std::uint64_t> results;
    std::map<hls::PortId, std::deque<std::uint64_t>> inputs;
    std::map<hls::PortId, std::vector<std::uint64_t>> outputs;

    std::uint64_t argValue(hls::PortId port) override { return args[port]; }
    void setResult(hls::PortId port, std::uint64_t value) override {
        results[port] = value;
    }
    bool streamRead(hls::PortId port, std::uint64_t& value) override {
        auto& q = inputs[port];
        if (q.empty()) {
            return false;
        }
        value = q.front();
        q.pop_front();
        return true;
    }
    bool streamWrite(hls::PortId port, std::uint64_t value) override {
        outputs[port].push_back(value);
        return true;
    }
};

/// Builds a random kernel: scalar args, local vars, one constant-trip
/// loop with a random straight-line body of assignments and stream
/// writes, and a final scalar result.
hls::Kernel randomKernel(std::uint64_t seed) {
    using namespace hls;
    Rng rng(seed);
    KernelBuilder kb("fuzz" + std::to_string(seed));
    const PortId argA = kb.scalarIn("argA", 32);
    const PortId argB = kb.scalarIn("argB", 16);
    const PortId out = kb.streamOut("out", 32);
    const PortId res = kb.scalarOut("res", 32);

    std::vector<VarId> vars;
    const std::size_t varCount = 2 + rng.below(4);
    for (std::size_t v = 0; v < varCount; ++v) {
        vars.push_back(kb.var("v" + std::to_string(v),
                              static_cast<unsigned>(8 + 8 * rng.below(4))));
    }
    const VarId i = kb.var("i", 32);

    // Random expression over available values; bounded depth.
    const std::function<ExprId(int)> randomExpr = [&](int depth) -> ExprId {
        if (depth <= 0 || rng.below(3) == 0) {
            switch (rng.below(4)) {
            case 0: return kb.c(static_cast<std::int64_t>(rng.below(1000)));
            case 1: return kb.v(vars[rng.below(vars.size())]);
            case 2: return kb.arg(rng.below(2) == 0 ? argA : argB);
            default: return kb.v(i);
            }
        }
        static constexpr std::array<BinOp, 12> kOps{
            BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::And, BinOp::Or,
            BinOp::Xor, BinOp::Shr, BinOp::Min, BinOp::Max, BinOp::Lt,
            BinOp::Div, BinOp::Mod};
        const BinOp op = kOps[rng.below(kOps.size())];
        ExprId lhs = randomExpr(depth - 1);
        ExprId rhs = randomExpr(depth - 1);
        if (op == BinOp::Shr) {
            rhs = kb.bin(BinOp::And, rhs, kb.c(15));  // keep shifts sane
        }
        if (op == BinOp::Div || op == BinOp::Mod) {
            rhs = kb.bin(BinOp::Max, rhs, kb.c(1));  // no division by zero
        }
        if (rng.below(5) == 0) {
            return kb.select(kb.gt(lhs, rhs), lhs, rhs);
        }
        return kb.bin(op, lhs, rhs);
    };

    // Preamble assignments.
    for (std::size_t s = 0; s < 1 + rng.below(3); ++s) {
        kb.assign(vars[rng.below(vars.size())], randomExpr(2));
    }
    // The loop.
    const std::int64_t trip = 3 + static_cast<std::int64_t>(rng.below(14));
    kb.forLoop(i, kb.c(trip));
    for (std::size_t s = 0; s < 2 + rng.below(4); ++s) {
        if (rng.below(3) == 0) {
            kb.write(out, randomExpr(2));
        } else {
            kb.assign(vars[rng.below(vars.size())], randomExpr(3));
        }
    }
    kb.write(out, kb.v(vars[rng.below(vars.size())]));
    kb.endLoop();
    kb.setResult(res, randomExpr(3));
    return kb.build();
}

struct RunOutput {
    std::vector<std::uint64_t> stream;
    std::uint64_t result = 0;
};

RunOutput runFuzz(const hls::Kernel& kernel, std::uint64_t argA, std::uint64_t argB) {
    hls::Directives d;
    d.enableOptimizer = false;
    const hls::Program p =
        hls::compileKernel(kernel, hls::scheduleKernel(kernel, d));
    FuzzIo io;
    io.args[kernel.portId("argA")] = argA;
    io.args[kernel.portId("argB")] = argB;
    hls::KernelVm vm(p, io);
    vm.start();
    std::uint64_t guard = 0;
    while (vm.running()) {
        vm.tick();
        if (++guard > 5'000'000) {
            throw SimulationError("fuzz kernel hung");
        }
    }
    return RunOutput{io.outputs[kernel.portId("out")],
                     io.results[kernel.portId("res")]};
}

class KernelFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KernelFuzz, OptimizerPreservesSemantics) {
    const hls::Kernel original = randomKernel(GetParam());
    ASSERT_NO_THROW(hls::verify(original));
    const hls::Kernel optimised = hls::optimize(original);
    ASSERT_NO_THROW(hls::verify(optimised));
    const std::vector<std::pair<std::uint64_t, std::uint64_t>> argSets{
        {0, 0}, {5, 9}, {0xFFFFFFFF, 1}, {12345, 54321}};
    for (const auto& [a, b] : argSets) {
        const RunOutput x = runFuzz(original, a, b);
        const RunOutput y = runFuzz(optimised, a, b);
        ASSERT_EQ(x.stream, y.stream) << "seed " << GetParam() << " args " << a;
        ASSERT_EQ(x.result, y.result) << "seed " << GetParam();
    }
}

TEST_P(KernelFuzz, UnrollPreservesSemantics) {
    const hls::Kernel original = randomKernel(GetParam());
    for (const int factor : {2, 3, 4}) {
        const hls::Kernel unrolled = hls::unrollLoops(original, {{"i", factor}});
        ASSERT_NO_THROW(hls::verify(unrolled));
        const RunOutput x = runFuzz(original, 77, 11);
        const RunOutput y = runFuzz(unrolled, 77, 11);
        ASSERT_EQ(x.stream, y.stream) << "seed " << GetParam() << " factor " << factor;
        ASSERT_EQ(x.result, y.result);
    }
}

TEST_P(KernelFuzz, FullHlsPipelineAccepts) {
    // Schedule, bind, lower to RTL — no crashes, valid netlists — and the
    // stored form keeps everything the HDL printers read, since written
    // HDL is printed from a decoded netlist on a store hit.
    const hls::HlsResult r =
        hls::HlsEngine{}.synthesize(randomKernel(GetParam()), hls::Directives{});
    const hls::HlsResult decoded = hls::decodeHlsResult(hls::encodeHlsResult(r));
    EXPECT_EQ(rtl::VhdlEmitter{}.emit(decoded.netlist), rtl::VhdlEmitter{}.emit(r.netlist))
        << "seed " << GetParam();
    EXPECT_EQ(rtl::VerilogEmitter{}.emit(decoded.netlist),
              rtl::VerilogEmitter{}.emit(r.netlist))
        << "seed " << GetParam();
    EXPECT_GT(r.resources.lut, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelFuzz,
                         ::testing::Range<std::uint64_t>(1, 21));

// ---------------------------------------------------------------------------
// Task-graph render/parse roundtrip

core::TaskGraph randomGraph(std::uint64_t seed) {
    Rng rng(seed);
    core::TaskGraph tg;
    const std::size_t chainLength = 1 + rng.below(5);
    // A stream chain soc -> n0 -> n1 -> ... -> soc.
    for (std::size_t n = 0; n < chainLength; ++n) {
        core::TgNode node;
        node.name = "N" + std::to_string(n);
        node.ports.push_back(core::TgPort{"in", hls::InterfaceProtocol::AxiStream});
        node.ports.push_back(core::TgPort{"out", hls::InterfaceProtocol::AxiStream});
        tg.addNode(std::move(node));
    }
    tg.addLink(core::TgLink{core::TgEndpoint::socEnd(), core::TgEndpoint::of("N0", "in")});
    for (std::size_t n = 0; n + 1 < chainLength; ++n) {
        tg.addLink(core::TgLink{core::TgEndpoint::of("N" + std::to_string(n), "out"),
                                core::TgEndpoint::of("N" + std::to_string(n + 1), "in")});
    }
    tg.addLink(core::TgLink{
        core::TgEndpoint::of("N" + std::to_string(chainLength - 1), "out"),
        core::TgEndpoint::socEnd()});
    // A few AXI-Lite nodes.
    const std::size_t liteCount = rng.below(4);
    for (std::size_t n = 0; n < liteCount; ++n) {
        core::TgNode node;
        node.name = "L" + std::to_string(n);
        const std::size_t portCount = 1 + rng.below(4);
        for (std::size_t p = 0; p < portCount; ++p) {
            node.ports.push_back(core::TgPort{"p" + std::to_string(p),
                                              hls::InterfaceProtocol::AxiLite});
        }
        tg.addNode(std::move(node));
        tg.addConnect(core::TgConnect{"L" + std::to_string(n)});
    }
    tg.validate();
    return tg;
}

class GraphFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GraphFuzz, RenderParseRoundTrip) {
    const core::TaskGraph tg = randomGraph(GetParam());
    const core::ParsedDsl parsed = core::parseDsl(tg.renderDsl("fuzz"));
    EXPECT_TRUE(parsed.graph == tg) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphFuzz, ::testing::Range<std::uint64_t>(1, 26));

// ---------------------------------------------------------------------------
// Random GAUSS/EDGE pipelines end to end

class PipelineFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineFuzz, RandomFilterChainsMatchComposedReferences) {
    Rng rng(GetParam());
    constexpr std::int64_t n = 96;
    const std::size_t stages = 1 + rng.below(4);

    // Random sequence of GAUSS/EDGE stages.
    std::vector<bool> isGauss;
    hls::KernelLibrary kernels;
    core::TaskGraph tg;
    std::vector<std::string> names;
    for (std::size_t s = 0; s < stages; ++s) {
        const bool gauss = rng.below(2) == 0;
        isGauss.push_back(gauss);
        const std::string name = (gauss ? "G" : "E") + std::to_string(s);
        names.push_back(name);
        // KernelLibrary keys by kernel name; rebuild the GAUSS/EDGE body
        // under this node's unique name.
        hls::KernelBuilder kb(name);
        const hls::PortId in = kb.streamIn("in", 8);
        const hls::PortId out = kb.streamOut("out", 8);
        const hls::VarId i = kb.var("i", 32);
        const hls::VarId cur = kb.var("cur", 8);
        const hls::VarId p1 = kb.var("p1", 8);
        const hls::VarId p2 = kb.var("p2", 8);
        kb.assign(p1, kb.c(0));
        kb.assign(p2, kb.c(0));
        kb.forLoop(i, kb.c(n));
        kb.assign(cur, kb.read(in));
        if (gauss) {
            kb.write(out, kb.shr(kb.add(kb.add(kb.v(p2), kb.shl(kb.v(p1), kb.c(1))),
                                        kb.v(cur)),
                                 kb.c(2)));
            kb.assign(p2, kb.v(p1));
            kb.assign(p1, kb.v(cur));
        } else {
            kb.write(out, kb.select(kb.gt(kb.v(cur), kb.v(p1)),
                                    kb.sub(kb.v(cur), kb.v(p1)),
                                    kb.sub(kb.v(p1), kb.v(cur))));
            kb.assign(p1, kb.v(cur));
        }
        kb.endLoop();
        kernels.add(kb.build());
        tg.addNode(core::TgNode{name,
                                {core::TgPort{"in", hls::InterfaceProtocol::AxiStream},
                                 core::TgPort{"out", hls::InterfaceProtocol::AxiStream}}});
    }
    tg.addLink(core::TgLink{core::TgEndpoint::socEnd(),
                            core::TgEndpoint::of(names.front(), "in")});
    for (std::size_t s = 0; s + 1 < stages; ++s) {
        tg.addLink(core::TgLink{core::TgEndpoint::of(names[s], "out"),
                                core::TgEndpoint::of(names[s + 1], "in")});
    }
    tg.addLink(core::TgLink{core::TgEndpoint::of(names.back(), "out"),
                            core::TgEndpoint::socEnd()});

    core::Flow flow(core::FlowOptions{}, kernels);
    const core::FlowResult result = flow.run("fuzzchain", tg);

    // Input and composed reference.
    std::vector<std::uint8_t> data(n);
    for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<std::uint8_t>(rng.below(256));
    }
    std::vector<std::uint8_t> expected = data;
    for (std::size_t s = 0; s < stages; ++s) {
        expected = isGauss[s] ? apps::gaussRef(expected) : apps::edgeRef(expected);
    }

    soc::SystemSimulator sim(result.design, result.programs);
    std::vector<std::uint32_t> words(data.begin(), data.end());
    sim.ps().task("stage", 10, [words](soc::Memory& mem) {
        mem.writeBlock(0x100, words);
    });
    sim.psArmReadDma("axi_dma_0", 0, 0x8000, n);
    sim.psWriteDma("axi_dma_0", 0, 0x100, n);
    sim.psWaitReadDma("axi_dma_0");
    (void)sim.run();
    const auto actual = sim.memory().readBlock(0x8000, n);
    for (std::size_t i = 0; i < expected.size(); ++i) {
        ASSERT_EQ(actual[i], expected[i])
            << "seed " << GetParam() << " stage-count " << stages << " at " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineFuzz, ::testing::Range<std::uint64_t>(1, 13));

// ---------------------------------------------------------------------------
// 4. Random netlists: the grown fuzz corpus (wide >64-bit buses, paired
//    BRAM ports with write collisions, deep serial combinational chains)
//    produces structurally sound netlists that every consumer accepts —
//    both HDL emitters, both simulation engines, and the VCD tracer.
// ---------------------------------------------------------------------------

class NetlistShapeFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NetlistShapeFuzz, CorpusShapesArePresentAndAllConsumersAcceptThem) {
    const std::uint64_t seed = GetParam();
    const auto opt = socgen::testing::sweepOptions(seed);
    const rtl::Netlist netlist = socgen::testing::randomNetlist(seed, opt);

    // The advertised shapes actually appear on their scheduled seeds.
    if (opt.wideBuses > 0) {
        bool sawWide = false;
        for (const auto& net : netlist.nets()) {
            EXPECT_LE(net.width, 128u) << "seed " << seed;
            sawWide = sawWide || net.width > 64;
        }
        EXPECT_TRUE(sawWide) << "seed " << seed << " scheduled wide buses";
    }
    if (opt.bramPairs > 0) {
        // Each pair is two Bram cells sharing address and write-data nets
        // (independent enables), so same-address collisions are reachable.
        unsigned brams = 0;
        bool sawSharedInputs = false;
        std::map<rtl::NetId, unsigned> addrUses;
        for (const auto& cell : netlist.cells()) {
            if (cell.kind != rtl::CellKind::Bram) {
                continue;
            }
            ++brams;
            if (++addrUses[cell.inputs.front()] > 1) {
                sawSharedInputs = true;
            }
        }
        EXPECT_GE(brams, opt.bramPairs * 2 + opt.brams) << "seed " << seed;
        EXPECT_TRUE(sawSharedInputs) << "seed " << seed << " scheduled BRAM pairs";
    }
    if (opt.chainDepth > 0) {
        // The chain is serial, so levelization depth must grow with it.
        rtl::CompiledSim sim(netlist);
        EXPECT_GE(sim.levelCount(), static_cast<std::size_t>(opt.chainDepth))
            << "seed " << seed;
    }

    // Both HDL emitters render the netlist, including >64-bit ranges.
    const std::string vhdl = rtl::VhdlEmitter{}.emit(netlist);
    const std::string verilog = rtl::VerilogEmitter{}.emit(netlist);
    EXPECT_NE(vhdl.find("entity"), std::string::npos) << "seed " << seed;
    EXPECT_NE(verilog.find("module"), std::string::npos) << "seed " << seed;

    // Both engines simulate it, and the VCD tracer renders wide values.
    auto sim = rtl::makeSimulator(netlist);
    rtl::VcdTrace trace(netlist, *sim);
    Rng rng(seed ^ 0x5e115e11u);
    for (unsigned cycle = 0; cycle < 8; ++cycle) {
        for (const auto& port : netlist.ports()) {
            if (port.dir == rtl::PortDir::In) {
                sim->setInput(port.name, rng.next());
            }
        }
        sim->step();
        sim->evaluate();
        trace.sample();
    }
    EXPECT_NE(trace.render().find("$enddefinitions"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetlistShapeFuzz,
                         ::testing::ValuesIn(socgen::testing::diffSimSeeds()));

// ---------------------------------------------------------------------------
// 5. FlowJournal torn-tail compaction, exhaustively: truncate a valid
//    journal at EVERY byte offset — every crash point a real writer
//    could leave behind. Opening must always succeed (or raise a
//    structured socgen::Error, never anything else), recover exactly the
//    longest prefix of complete records, compact idempotently, and keep
//    accepting appends.

TEST(JournalTornTailFuzz, EveryTruncationOffsetRecoversTheValidPrefix) {
    const std::string dir = ::testing::TempDir() + "/socgen_fuzz_journal";
    std::filesystem::remove_all(dir);
    const std::string path = dir + "/journal.jsonl";
    {
        core::FlowJournal journal = core::FlowJournal::open(path);
        journal.reset("fingerprint-abc", "fuzz seed journal");
        for (const char* stage : {"scala", "hls:GAUSS", "hls:EDGE", "integrate",
                                  "synth", "artifacts"}) {
            journal.begin(stage);
            journal.commit(stage, digest128(std::string_view(stage)).hex());
        }
        journal.noteEvent("flow", "done");
    }
    const std::string full = readTextFile(path);
    ASSERT_GT(full.size(), 100u);

    for (std::size_t cut = 0; cut <= full.size(); ++cut) {
        const std::string truncated = full.substr(0, cut);
        // Complete lines in the truncated image — what recovery must keep.
        const std::size_t completeLines =
            static_cast<std::size_t>(std::count(truncated.begin(), truncated.end(), '\n'));
        writeTextFile(path, truncated);
        try {
            core::FlowJournal reopened = core::FlowJournal::open(path);
            EXPECT_EQ(reopened.records().size(), completeLines) << "cut=" << cut;
            // Compaction is idempotent: the file now holds exactly the
            // recovered records, and a second open sees the same thing.
            EXPECT_EQ(readTextFile(path), reopened.renderText()) << "cut=" << cut;
            EXPECT_EQ(core::FlowJournal::open(path).records().size(), completeLines);
            // The journal still accepts appends after recovery.
            reopened.commit("extra", "deadbeefdeadbeefdeadbeefdeadbeef");
            EXPECT_TRUE(core::FlowJournal::open(path).isCommitted("extra"))
                << "cut=" << cut;
        } catch (const Error& e) {
            // A structured error is an acceptable outcome for a mangled
            // file; silent corruption or a non-socgen exception is not.
            EXPECT_FALSE(std::string(e.what()).empty());
        }
    }
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace socgen
