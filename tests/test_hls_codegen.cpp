#include "socgen/apps/kernels.hpp"
#include "socgen/apps/otsu.hpp"
#include "socgen/hls/engine.hpp"
#include "socgen/rtl/sim_backend.hpp"

#include <gtest/gtest.h>

namespace socgen::hls {
namespace {

HlsResult synth(const Kernel& kernel, Directives d = {}) {
    return HlsEngine{}.synthesize(kernel, d);
}

TEST(Codegen, AllAppKernelNetlistsAreValid) {
    // generateRtl runs Netlist::check() internally; synthesize throws on
    // structural violations.
    EXPECT_NO_THROW(synth(apps::makeAddKernel()));
    EXPECT_NO_THROW(synth(apps::makeMulKernel()));
    EXPECT_NO_THROW(synth(apps::makeGaussKernel(256)));
    EXPECT_NO_THROW(synth(apps::makeEdgeKernel(256)));
    EXPECT_NO_THROW(synth(apps::makeGrayScaleKernel(1024), apps::grayScaleDirectives()));
    EXPECT_NO_THROW(synth(apps::makeHistogramKernel(1024)));
    EXPECT_NO_THROW(synth(apps::makeOtsuKernel(1024), apps::otsuDirectives()));
    EXPECT_NO_THROW(synth(apps::makeBinarizationKernel(1024)));
}

TEST(Codegen, PortSetsMatchKernelInterfaces) {
    const HlsResult r = synth(apps::makeBinarizationKernel(64));
    const rtl::Netlist& n = r.netlist;
    EXPECT_TRUE(n.hasPort("ap_start"));
    EXPECT_TRUE(n.hasPort("ap_done"));
    // Stream-in: tdata/tvalid in, tready out.
    EXPECT_TRUE(n.hasPort("grayScaleImage_tdata"));
    EXPECT_TRUE(n.hasPort("grayScaleImage_tvalid"));
    EXPECT_TRUE(n.hasPort("grayScaleImage_tready"));
    EXPECT_EQ(n.port("grayScaleImage_tready").dir, rtl::PortDir::Out);
    // Stream-out: tdata/tvalid out, tready in.
    EXPECT_TRUE(n.hasPort("segmentedGrayImage_tdata"));
    EXPECT_EQ(n.port("segmentedGrayImage_tdata").dir, rtl::PortDir::Out);
    EXPECT_EQ(n.port("segmentedGrayImage_tready").dir, rtl::PortDir::In);
}

TEST(Codegen, ScalarPortsOnAxiLiteCore) {
    const HlsResult r = synth(apps::makeAddKernel());
    EXPECT_TRUE(r.netlist.hasPort("A"));
    EXPECT_TRUE(r.netlist.hasPort("B"));
    EXPECT_TRUE(r.netlist.hasPort("return"));
    EXPECT_EQ(r.netlist.port("A").dir, rtl::PortDir::In);
    EXPECT_EQ(r.netlist.port("return").dir, rtl::PortDir::Out);
}

TEST(Codegen, FsmAndSharedUnitsPresent) {
    const HlsResult r = synth(apps::makeOtsuKernel(512), apps::otsuDirectives());
    EXPECT_EQ(r.netlist.countKind(rtl::CellKind::Fsm), 1u);
    EXPECT_GE(r.netlist.countKind(rtl::CellKind::Div), 1u);
    EXPECT_GE(r.netlist.countKind(rtl::CellKind::Mul), 1u);
    EXPECT_GE(r.netlist.countKind(rtl::CellKind::Bram), 1u);
}

/// Straight-line scalar kernels must be functionally identical between
/// the generated netlist (simulated at gate level) and the kernel
/// semantics: drive ap_start, clock until ap_done, read the result port.
class ScalarNetlistEquivalence
    : public testing::TestWithParam<std::pair<std::uint64_t, std::uint64_t>> {};

TEST_P(ScalarNetlistEquivalence, AddMatches) {
    const auto [a, b] = GetParam();
    const HlsResult r = synth(apps::makeAddKernel());
    const auto simPtr = rtl::makeSimulator(r.netlist);
    rtl::Simulator& sim = *simPtr;
    sim.setInput("ap_start", 1);
    sim.setInput("A", a);
    sim.setInput("B", b);
    for (int cycle = 0; cycle < 64; ++cycle) {
        sim.step();
        sim.evaluate();
        if (sim.output("ap_done") != 0) {
            break;
        }
    }
    EXPECT_EQ(sim.output("ap_done"), 1u);
    EXPECT_EQ(sim.output("return"), (a + b) & 0xFFFFFFFFu);
}

TEST_P(ScalarNetlistEquivalence, MulMatches) {
    const auto [a, b] = GetParam();
    const HlsResult r = synth(apps::makeMulKernel());
    const auto simPtr = rtl::makeSimulator(r.netlist);
    rtl::Simulator& sim = *simPtr;
    sim.setInput("ap_start", 1);
    sim.setInput("A", a);
    sim.setInput("B", b);
    for (int cycle = 0; cycle < 64; ++cycle) {
        sim.step();
        sim.evaluate();
        if (sim.output("ap_done") != 0) {
            break;
        }
    }
    EXPECT_EQ(sim.output("return"), (a * b) & 0xFFFFFFFFu);
}

INSTANTIATE_TEST_SUITE_P(Vectors, ScalarNetlistEquivalence,
                         testing::Values(std::make_pair(0ull, 0ull),
                                         std::make_pair(20ull, 22ull),
                                         std::make_pair(6ull, 7ull),
                                         std::make_pair(0xFFFFFFFFull, 2ull),
                                         std::make_pair(12345ull, 67890ull)));

TEST(Resources, DspForMulWidths) {
    EXPECT_EQ(dspForMul(8), 1);
    EXPECT_EQ(dspForMul(18), 1);
    EXPECT_EQ(dspForMul(25), 2);
    EXPECT_EQ(dspForMul(32), 2);
    EXPECT_EQ(dspForMul(64), 4);
}

TEST(Resources, Bram18Granularity) {
    EXPECT_EQ(bram18For(16, 32), 0);        // tiny -> LUTRAM
    EXPECT_EQ(bram18For(256, 32), 1);       // 8 Kb
    EXPECT_EQ(bram18For(1024, 32), 2);      // 32 Kb -> 2 blocks
    EXPECT_EQ(bram18For(65536, 8), 29);     // half a megabit
}

TEST(Resources, EstimateIncludesInterfaces) {
    const CostModel cost;
    const auto lite = cost.axiLitePortCost(32);
    const auto stream = cost.axiStreamPortCost(32);
    EXPECT_GT(lite.lut, 0);
    EXPECT_GT(lite.ff, 0);
    EXPECT_GT(stream.ff, 0);
    const auto overhead = cost.coreOverhead();
    EXPECT_GT(overhead.lut, 0);
}

TEST(Resources, OtsuCoreDominatesHistogramCore) {
    const HlsResult hist = synth(apps::makeHistogramKernel(4096));
    const HlsResult otsu = synth(apps::makeOtsuKernel(4096), apps::otsuDirectives());
    EXPECT_GT(otsu.resources.lut, hist.resources.lut);   // divider-heavy
    EXPECT_GT(otsu.resources.dsp, hist.resources.dsp);
    EXPECT_EQ(hist.resources.dsp, 0);
}

TEST(Resources, CaseStudyDspColumn) {
    // Table II: DSP usage is 0 (histogram), 2 (otsuMethod), 1 (grayScale),
    // 0 (binarization).
    EXPECT_EQ(synth(apps::makeHistogramKernel(1024)).resources.dsp, 0);
    EXPECT_EQ(synth(apps::makeOtsuKernel(1024), apps::otsuDirectives()).resources.dsp, 2);
    EXPECT_EQ(
        synth(apps::makeGrayScaleKernel(1024), apps::grayScaleDirectives()).resources.dsp,
        1);
    EXPECT_EQ(synth(apps::makeBinarizationKernel(1024)).resources.dsp, 0);
}

TEST(Engine, ResultCarriesAllArtifacts) {
    const HlsResult r = synth(apps::makeGaussKernel(128));
    EXPECT_EQ(r.kernelName, "GAUSS");
    EXPECT_FALSE(r.reportText.empty());
    EXPECT_FALSE(r.directiveText.empty());
    EXPECT_FALSE(r.program.instrs.empty());
    EXPECT_GT(r.toolSeconds, 0.0);
    EXPECT_NE(r.hdl().vhdl.find("entity GAUSS"), std::string::npos);
}

TEST(Engine, DeterministicAcrossRuns) {
    const HlsResult a = synth(apps::makeEdgeKernel(64));
    const HlsResult b = synth(apps::makeEdgeKernel(64));
    EXPECT_EQ(a.hdl().vhdl, b.hdl().vhdl);
    EXPECT_EQ(a.resources, b.resources);
    EXPECT_DOUBLE_EQ(a.toolSeconds, b.toolSeconds);
}

} // namespace
} // namespace socgen::hls
