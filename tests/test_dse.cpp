#include "socgen/apps/kernels.hpp"
#include "socgen/common/error.hpp"
#include "socgen/core/parser.hpp"
#include "socgen/dse/explorer.hpp"

#include <gtest/gtest.h>

namespace socgen::dse {
namespace {

/// Toy cost model: each of 3 units costs 100 LUT and saves cycles;
/// mask 5 is infeasible.
DsePoint toyEvaluate(unsigned mask) {
    if (mask == 5) {
        throw Error("does not fit");
    }
    DsePoint p;
    p.label = "mask" + std::to_string(mask);
    p.resources.lut = 100 * __builtin_popcount(mask);
    p.cycles = 1000 - 120 * static_cast<std::uint64_t>(__builtin_popcount(mask));
    return p;
}

TEST(Explorer, EnumeratesAllMasks) {
    const auto points = exploreExhaustive(3, toyEvaluate);
    ASSERT_EQ(points.size(), 8u);
    for (unsigned mask = 0; mask < 8; ++mask) {
        EXPECT_EQ(points[mask].mask, mask);
    }
}

TEST(Explorer, ExceptionsBecomeInfeasiblePoints) {
    const auto points = exploreExhaustive(3, toyEvaluate);
    EXPECT_FALSE(points[5].feasible);
    EXPECT_NE(points[5].infeasibleReason.find("does not fit"), std::string::npos);
    EXPECT_TRUE(points[4].feasible);
}

TEST(Explorer, TooManyUnitsRejected) {
    EXPECT_THROW((void)exploreExhaustive(24, toyEvaluate), Error);
}

TEST(Pareto, KeepsOnlyNonDominated) {
    std::vector<DsePoint> points(4);
    points[0].mask = 0;
    points[0].resources.lut = 100;
    points[0].cycles = 100;
    points[1].mask = 1;  // dominated by 0
    points[1].resources.lut = 200;
    points[1].cycles = 200;
    points[2].mask = 2;  // trade-off vs 0
    points[2].resources.lut = 50;
    points[2].cycles = 400;
    points[3].mask = 3;  // infeasible
    points[3].feasible = false;
    const auto front = paretoFront(points);
    ASSERT_EQ(front.size(), 2u);
    EXPECT_EQ(front[0].mask, 2u);  // sorted by LUT
    EXPECT_EQ(front[1].mask, 0u);
}

TEST(Pareto, MonotoneChainCollapsesToBest) {
    // With a strictly better point for every added unit, only the full
    // mask and the cheapest mask survive... here cost and cycles trade
    // monotonically, so ALL masks of distinct popcount are Pareto.
    const auto points = exploreExhaustive(3, toyEvaluate);
    const auto front = paretoFront(points);
    // All feasible points are mutually non-dominated here (equal-cost
    // masks of the same popcount both survive): 1 + 3 + 2 + 1.
    EXPECT_EQ(front.size(), 7u);
    EXPECT_EQ(front.front().resources.lut, 0);
    EXPECT_EQ(front.back().cycles, 1000u - 360u);
}

TEST(Pareto, EqualPointsBothSurvive) {
    std::vector<DsePoint> points(2);
    points[0].mask = 0;
    points[0].resources.lut = 10;
    points[0].cycles = 10;
    points[1].mask = 1;
    points[1].resources.lut = 10;
    points[1].cycles = 10;
    EXPECT_EQ(paretoFront(points).size(), 2u);
}

// ---------------------------------------------------------------------------
// Directive-space exploration on the stage-graph flow engine: variants
// share one HlsCache, so each sweep step re-synthesizes exactly the
// kernels whose directives changed.

core::TaskGraph dseGraph() {
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
    return core::parseDsl(dsl).graph;
}

TEST(Explorer, SweepResynthesizesOnlyInvalidatedKernels) {
    hls::KernelLibrary kernels;
    kernels.add(apps::makeMulKernel());
    kernels.add(apps::makeGaussKernel(64));
    kernels.add(apps::makeEdgeKernel(64));

    DirectiveVariant base;
    base.name = "base";
    DirectiveVariant unrolled;
    unrolled.name = "unroll4";
    unrolled.kernelDirectives["GAUSS"].unrollFactors["i"] = 4;
    DirectiveVariant repeat = base;
    repeat.name = "repeat";

    Explorer explorer(core::FlowOptions{}, kernels);
    const auto outcomes = explorer.sweep("dse", dseGraph(), {base, unrolled, repeat});
    ASSERT_EQ(outcomes.size(), 3u);

    // Cold start: every kernel is synthesized by the engine.
    EXPECT_EQ(outcomes[0].engineRuns, 3u);
    EXPECT_EQ(outcomes[0].cacheHits, 0u);

    // Only GAUSS's directives changed: exactly one re-synthesis, the
    // other two kernels come from the shared cache.
    EXPECT_EQ(outcomes[1].engineRuns, 1u);
    EXPECT_EQ(outcomes[1].cacheHits, 2u);

    // A repeated variant is free: zero engine runs, zero tool time for
    // the HLS phase (both GAUSS entries coexist under their own keys).
    EXPECT_EQ(outcomes[2].engineRuns, 0u);
    EXPECT_EQ(outcomes[2].cacheHits, 3u);
    EXPECT_EQ(explorer.cache()->size(), 4u);

    // Reuse never crosses directive boundaries: the unrolled GAUSS is a
    // different artifact than the base one.
    EXPECT_NE(outcomes[1].result.hlsResults.at("GAUSS").directiveText,
              outcomes[0].result.hlsResults.at("GAUSS").directiveText);
    EXPECT_EQ(outcomes[2].result.hlsResults.at("GAUSS").hdl().vhdl,
              outcomes[0].result.hlsResults.at("GAUSS").hdl().vhdl);
    EXPECT_LT(outcomes[2].toolSeconds, outcomes[0].toolSeconds);
}

TEST(RenderTable, ShowsSpeedupAndParetoMarks) {
    const auto points = exploreExhaustive(3, toyEvaluate);
    const std::string table = renderTable(points);
    EXPECT_NE(table.find("mask"), std::string::npos);
    EXPECT_NE(table.find("speedup"), std::string::npos);
    EXPECT_NE(table.find("infeasible: "), std::string::npos);
    EXPECT_NE(table.find("1.00x"), std::string::npos);  // the all-SW row
    EXPECT_NE(table.find("*"), std::string::npos);      // pareto marks
}

} // namespace
} // namespace socgen::dse
