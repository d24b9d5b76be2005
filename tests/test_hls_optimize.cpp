#include "socgen/apps/otsu.hpp"
#include "socgen/common/error.hpp"
#include "socgen/hls/engine.hpp"
#include "socgen/hls/interpreter.hpp"
#include "socgen/hls/optimize.hpp"
#include "socgen/hls/verify.hpp"

#include <gtest/gtest.h>

#include <deque>
#include <map>

namespace socgen::hls {
namespace {

/// Vector-backed IO used to compare pre/post-optimisation semantics.
class VecIo : public KernelIo {
public:
    std::map<PortId, std::uint64_t> args;
    std::map<PortId, std::uint64_t> results;
    std::map<PortId, std::deque<std::uint64_t>> inputs;
    std::map<PortId, std::vector<std::uint64_t>> outputs;

    std::uint64_t argValue(PortId port) override { return args[port]; }
    void setResult(PortId port, std::uint64_t value) override { results[port] = value; }
    bool streamRead(PortId port, std::uint64_t& value) override {
        auto& q = inputs[port];
        if (q.empty()) {
            return false;
        }
        value = q.front();
        q.pop_front();
        return true;
    }
    bool streamWrite(PortId port, std::uint64_t value) override {
        outputs[port].push_back(value);
        return true;
    }
};

void runKernel(const Kernel& kernel, VecIo& io) {
    Directives d;
    d.enableOptimizer = false;  // run exactly the kernel given
    const Program p = compileKernel(kernel, scheduleKernel(kernel, d));
    KernelVm vm(p, io);
    vm.start();
    std::uint64_t guard = 0;
    while (vm.running() && ++guard < 10'000'000) {
        vm.tick();
    }
    ASSERT_TRUE(vm.finished());
}

TEST(Optimize, FoldsConstantExpressions) {
    KernelBuilder kb("fold");
    const PortId r = kb.scalarOut("r", 32);
    // (3 + 4) * 2 - 14 == 0; ~0 == all ones.
    kb.setResult(r, kb.sub(kb.mul(kb.add(kb.c(3), kb.c(4)), kb.c(2)), kb.c(14)));
    const Kernel k = kb.build();
    OptStats stats;
    const Kernel opt = optimize(k, &stats);
    EXPECT_GE(stats.foldedConstants, 2u);
    // The optimised body computes the same value.
    VecIo a;
    VecIo b;
    runKernel(k, a);
    runKernel(opt, b);
    EXPECT_EQ(a.results[0], b.results[0]);
    EXPECT_EQ(b.results[0], 0u);
}

TEST(Optimize, AlgebraicIdentities) {
    KernelBuilder kb("alg");
    const PortId x = kb.scalarIn("x", 32);
    const PortId r = kb.scalarOut("r", 32);
    // ((x + 0) * 1) >> 0  ==  x
    kb.setResult(r, kb.shr(kb.mul(kb.add(kb.arg(x), kb.c(0)), kb.c(1)), kb.c(0)));
    OptStats stats;
    const Kernel opt = optimize(kb.build(), &stats);
    EXPECT_GE(stats.simplifiedAlgebra, 3u);
    VecIo io;
    io.args[0] = 777;
    runKernel(opt, io);
    EXPECT_EQ(io.results[1], 777u);
}

TEST(Optimize, MulByZeroWithoutSideEffectsFolds) {
    KernelBuilder kb("zero");
    const PortId x = kb.scalarIn("x", 32);
    const PortId r = kb.scalarOut("r", 32);
    kb.setResult(r, kb.mul(kb.arg(x), kb.c(0)));
    OptStats stats;
    const Kernel opt = optimize(kb.build(), &stats);
    EXPECT_GE(stats.simplifiedAlgebra, 1u);
    VecIo io;
    io.args[0] = 123;
    runKernel(opt, io);
    EXPECT_EQ(io.results[1], 0u);
}

TEST(Optimize, MulByZeroKeepsStreamReads) {
    // read(in) * 0 must still consume the stream beat.
    KernelBuilder kb("sideeffect");
    const PortId in = kb.streamIn("in", 32);
    const PortId out = kb.streamOut("out", 32);
    kb.write(out, kb.mul(kb.read(in), kb.c(0)));
    kb.write(out, kb.read(in));  // sees the SECOND beat only if the first was consumed
    const Kernel opt = optimize(kb.build());
    VecIo io;
    io.inputs[0] = {11, 22};
    runKernel(opt, io);
    ASSERT_EQ(io.outputs[1].size(), 2u);
    EXPECT_EQ(io.outputs[1][0], 0u);
    EXPECT_EQ(io.outputs[1][1], 22u);
}

TEST(Optimize, DeadAssignRemoved) {
    KernelBuilder kb("dead");
    const PortId r = kb.scalarOut("r", 32);
    const VarId unused = kb.var("unused", 32);
    const VarId used = kb.var("used", 32);
    kb.assign(unused, kb.c(5));          // never read
    kb.assign(used, kb.c(6));
    kb.setResult(r, kb.v(used));
    OptStats stats;
    const Kernel opt = optimize(kb.build(), &stats);
    EXPECT_EQ(stats.removedStatements, 1u);
    EXPECT_EQ(opt.body().size(), 2u);
    VecIo io;
    runKernel(opt, io);
    EXPECT_EQ(io.results[0], 6u);
}

TEST(Optimize, DeadAssignWithStreamReadKept) {
    KernelBuilder kb("deadread");
    const PortId in = kb.streamIn("in", 32);
    const PortId out = kb.streamOut("out", 32);
    const VarId sink = kb.var("sink", 32);
    kb.assign(sink, kb.read(in));  // value unused, but the read must stay
    kb.write(out, kb.read(in));
    const Kernel opt = optimize(kb.build());
    VecIo io;
    io.inputs[0] = {1, 2};
    runKernel(opt, io);
    EXPECT_EQ(io.outputs[1], std::vector<std::uint64_t>{2});
}

TEST(Optimize, ConstantConditionIfFlattened) {
    KernelBuilder kb("constif");
    const PortId r = kb.scalarOut("r", 32);
    const VarId v = kb.var("v", 32);
    kb.ifBegin(kb.gt(kb.c(5), kb.c(3)));
    kb.assign(v, kb.c(100));
    kb.elseBegin();
    kb.assign(v, kb.c(200));
    kb.endIf();
    kb.setResult(r, kb.v(v));
    OptStats stats;
    const Kernel opt = optimize(kb.build(), &stats);
    // The if disappeared; only the taken branch and setResult remain.
    for (StmtId id : opt.body()) {
        EXPECT_NE(opt.stmt(id).kind, StmtKind::If);
    }
    VecIo io;
    runKernel(opt, io);
    EXPECT_EQ(io.results[0], 100u);
}

TEST(Optimize, EmptyLoopRemoved) {
    KernelBuilder kb("emptyloop");
    const PortId r = kb.scalarOut("r", 32);
    const VarId i = kb.var("i", 32);
    kb.forLoop(i, kb.c(100));
    kb.endLoop();
    kb.setResult(r, kb.c(9));
    OptStats stats;
    const Kernel opt = optimize(kb.build(), &stats);
    EXPECT_EQ(stats.removedStatements, 1u);
    EXPECT_EQ(opt.body().size(), 1u);
}

TEST(Optimize, OptimizedKernelsStillVerify) {
    for (const Kernel& k :
         {apps::makeGrayScaleKernel(256), apps::makeHistogramKernel(256),
          apps::makeOtsuKernel(256), apps::makeBinarizationKernel(256)}) {
        EXPECT_NO_THROW(verify(optimize(k))) << k.name();
    }
}

class OptimizerEquivalence : public testing::TestWithParam<std::uint64_t> {};

TEST_P(OptimizerEquivalence, OtsuKernelSemanticsPreserved) {
    // Property: the optimised otsu kernel produces the same threshold as
    // the original for arbitrary histograms.
    const apps::GrayImage img = apps::makeSyntheticGrayScene(24, 24, GetParam());
    const auto hist = apps::histogramRef(img);
    const Kernel original = apps::makeOtsuKernel(
        static_cast<std::int64_t>(img.pixelCount()));
    const Kernel optimised = optimize(original);

    const auto runOtsu = [&](const Kernel& k) {
        VecIo io;
        for (auto h : hist) {
            io.inputs[k.portId("histogram")].push_back(h);
        }
        runKernel(k, io);
        return io.outputs[k.portId("probability")].at(0);
    };
    EXPECT_EQ(runOtsu(original), runOtsu(optimised));
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizerEquivalence,
                         testing::Values(2u, 9u, 33u, 77u, 1001u));

TEST(Optimize, EngineReportsOptimizerStats) {
    KernelBuilder kb("report");
    const PortId r = kb.scalarOut("r", 32);
    kb.setResult(r, kb.add(kb.c(1), kb.c(2)));
    const HlsResult result = HlsEngine{}.synthesize(kb.build(), Directives{});
    EXPECT_NE(result.reportText.find("optimizer:"), std::string::npos);
    EXPECT_NE(result.hdl().verilog.find("module report"), std::string::npos);
}

TEST(Optimize, StrengthReductionMulByPowerOfTwo) {
    KernelBuilder kb("sr");
    const PortId x = kb.scalarIn("x", 32);
    const PortId r = kb.scalarOut("r", 32);
    kb.setResult(r, kb.mul(kb.arg(x), kb.c(8)));
    OptStats stats;
    const Kernel opt = optimize(kb.build(), &stats);
    EXPECT_EQ(stats.strengthReduced, 1u);
    VecIo io;
    io.args[0] = 13;
    runKernel(opt, io);
    EXPECT_EQ(io.results[1], 104u);
    // The engine stops charging a DSP for it.
    const auto makeKernel = [] {
        KernelBuilder b("sr2");
        const PortId xx = b.scalarIn("x", 32);
        const PortId rr = b.scalarOut("r", 32);
        b.setResult(rr, b.mul(b.arg(xx), b.c(8)));
        return b.build();
    };
    Directives d;
    const HlsResult withOpt = HlsEngine{}.synthesize(makeKernel(), d);
    d.enableOptimizer = false;
    const HlsResult withoutOpt = HlsEngine{}.synthesize(makeKernel(), d);
    EXPECT_LT(withOpt.resources.dsp, withoutOpt.resources.dsp);
}

TEST(Optimize, StrengthReductionDivMod) {
    KernelBuilder kb("dm");
    const PortId x = kb.scalarIn("x", 32);
    const PortId q = kb.scalarOut("q", 32);
    const PortId m = kb.scalarOut("m", 32);
    kb.setResult(q, kb.div(kb.arg(x), kb.c(16)));
    kb.setResult(m, kb.mod(kb.arg(x), kb.c(16)));
    OptStats stats;
    const Kernel opt = optimize(kb.build(), &stats);
    EXPECT_EQ(stats.strengthReduced, 2u);
    VecIo io;
    io.args[0] = 1234;
    runKernel(opt, io);
    EXPECT_EQ(io.results[1], 1234u / 16);
    EXPECT_EQ(io.results[2], 1234u % 16);
    // No iterative divider remains in the datapath.
    const HlsResult r = HlsEngine{}.synthesize(opt, Directives{});
    EXPECT_EQ(r.binding.divUnits, 0);
}

TEST(Optimize, NonPowerOfTwoLeftAlone) {
    KernelBuilder kb("np");
    const PortId x = kb.scalarIn("x", 32);
    const PortId r = kb.scalarOut("r", 32);
    kb.setResult(r, kb.mul(kb.arg(x), kb.c(7)));
    OptStats stats;
    const Kernel opt = optimize(kb.build(), &stats);
    EXPECT_EQ(stats.strengthReduced, 0u);
    VecIo io;
    io.args[0] = 6;
    runKernel(opt, io);
    EXPECT_EQ(io.results[1], 42u);
}

TEST(Optimize, CanBeDisabled) {
    KernelBuilder kb("off");
    const PortId r = kb.scalarOut("r", 32);
    kb.setResult(r, kb.add(kb.c(1), kb.c(2)));
    Directives d;
    d.enableOptimizer = false;
    const HlsResult result = HlsEngine{}.synthesize(kb.build(), d);
    EXPECT_EQ(result.reportText.find("optimizer:"), std::string::npos);
}

} // namespace
} // namespace socgen::hls
