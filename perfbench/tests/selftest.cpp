// Tests of the benchmark's own machinery: the seeded generator, the tail
// percentile rule and the span self-time arithmetic.

#include "generator.hpp"
#include "stats.hpp"
#include "trace.hpp"

#include "socgen/hls/serialize.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <set>

using namespace perfbench;

TEST(Generator, SameSeedGivesByteIdenticalProjects) {
    for (std::uint64_t i = 0; i < 40; ++i) {
        const GeneratedProject a = makeProject(7, i);
        const GeneratedProject b = makeProject(7, i);
        EXPECT_EQ(a.dslText, b.dslText);
        EXPECT_EQ(describeProject(a), describeProject(b));
        EXPECT_GE(a.nodeCount, 1u);
        EXPECT_LE(a.nodeCount, 8u);
    }
}

TEST(Generator, DifferentSeedGivesDifferentProjects) {
    std::size_t differing = 0;
    for (std::uint64_t i = 0; i < 40; ++i) {
        differing += describeProject(makeProject(7, i)) != describeProject(makeProject(8, i));
    }
    EXPECT_GE(differing, 38u);
}

TEST(Generator, ProjectsWithinASeedAreDistinct) {
    std::set<std::string> seen;
    for (std::uint64_t i = 0; i < 200; ++i) {
        seen.insert(describeProject(makeProject(3, i)));
    }
    EXPECT_EQ(seen.size(), 200u);
}

TEST(Generator, EveryBlockOfEightHoldsEachNodeCountOnce) {
    for (std::uint64_t block = 0; block < 5; ++block) {
        std::set<std::size_t> counts;
        for (std::uint64_t i = 0; i < 8; ++i) {
            counts.insert(makeProject(11, block * 8 + i).nodeCount);
        }
        EXPECT_EQ(counts, (std::set<std::size_t>{1, 2, 3, 4, 5, 6, 7, 8}));
    }
}

TEST(Generator, EveryProjectOfManySeedsIsDealt) {
    // A deal that leaves a project only kinds it already holds must still
    // finish (it fills the slot with a stream stage).
    for (std::uint64_t seed = 0; seed < 400; ++seed) {
        std::set<std::size_t> counts;
        for (std::uint64_t i = 0; i < 8; ++i) {
            counts.insert(makeProject(seed, i).nodeCount);
        }
        EXPECT_EQ(counts.size(), 8u) << "seed " << seed;
    }
}

TEST(Generator, ColdKernelsAreDeterministicPerSeed) {
    namespace hls = socgen::hls;
    EXPECT_EQ(hls::encodeKernel(makeColdKernel("K", 5, 3)),
              hls::encodeKernel(makeColdKernel("K", 5, 3)));
    EXPECT_NE(hls::encodeKernel(makeColdKernel("K", 5, 3)),
              hls::encodeKernel(makeColdKernel("K", 6, 3)));
    EXPECT_NE(hls::encodeKernel(makeColdKernel("K", 5, 3)),
              hls::encodeKernel(makeColdKernel("K", 5, 4)));
}

TEST(Generator, RngIsSplitmix64) {
    // Reference values of splitmix64 seeded with 0.
    Rng rng(0);
    EXPECT_EQ(rng.next(), 0xE220A8397B1DCDAFULL);
    EXPECT_EQ(rng.next(), 0x6E789E6AA1B965F4ULL);
}

namespace {

std::vector<double> iota(std::size_t n) {
    std::vector<double> v(n);
    std::iota(v.begin(), v.end(), 1.0);  // 1..n
    return v;
}

} // namespace

TEST(TailRule, EmptySample) {
    const Tail t = tailOf({});
    EXPECT_EQ(t.count, 0u);
    EXPECT_EQ(t.value, 0.0);
}

TEST(TailRule, TenOrFewerSamplesReportTheMaximumWithNothingBeyond) {
    for (std::size_t n = 1; n <= 10; ++n) {
        const Tail t = tailOf(iota(n));
        EXPECT_EQ(t.value, static_cast<double>(n));
        EXPECT_EQ(t.beyond, 0u);
        EXPECT_EQ(t.percentile, 100.0);
        EXPECT_EQ(t.count, n);
    }
}

TEST(TailRule, ElevenSamplesLeaveExactlyTenBeyondTheFirst) {
    const Tail t = tailOf(iota(11));
    EXPECT_EQ(t.value, 1.0);
    EXPECT_EQ(t.beyond, 10u);
    EXPECT_DOUBLE_EQ(t.percentile, 100.0 / 11.0);
}

TEST(TailRule, ThousandSamplesGiveP99) {
    std::vector<double> v = iota(1000);
    std::reverse(v.begin(), v.end());  // order must not matter
    const Tail t = tailOf(v);
    EXPECT_EQ(t.value, 990.0);
    EXPECT_DOUBLE_EQ(t.percentile, 99.0);
    EXPECT_EQ(t.beyond, 10u);
}

TEST(TailRule, TiesAtTheBoundary) {
    // 20 samples: ranks 1..10 are 1.0, ranks 11..20 are 5.0. Rank 10 is
    // the highest with ten samples beyond it.
    std::vector<double> v(10, 1.0);
    v.insert(v.end(), 10, 5.0);
    const Tail t = tailOf(v);
    EXPECT_EQ(t.value, 1.0);
    EXPECT_DOUBLE_EQ(t.percentile, 50.0);
}

TEST(Median, OddEvenAndEmpty) {
    EXPECT_EQ(median({}), 0.0);
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

namespace {

Span span(std::uint64_t id, std::uint64_t parent, std::int64_t start, std::int64_t end) {
    Span s;
    s.id = id;
    s.parent = parent;
    s.startNs = start;
    s.endNs = end;
    s.name = "x.y";
    return s;
}

} // namespace

TEST(SelfTime, LeafSpanOwnsItsWholeDuration) {
    const auto self = selfTimesNs({span(1, 0, 10, 50)});
    EXPECT_EQ(self[0], 40);
}

TEST(SelfTime, DisjointChildrenAreSubtracted) {
    const auto self = selfTimesNs(
        {span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 50, 70)});
    EXPECT_EQ(self[0], 60);
    EXPECT_EQ(self[1], 20);
    EXPECT_EQ(self[2], 20);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
    // Concurrent children [10,30] and [20,50] cover [10,50].
    const auto self = selfTimesNs(
        {span(1, 0, 0, 100), span(2, 1, 10, 30), span(3, 1, 20, 50)});
    EXPECT_EQ(self[0], 60);
}

TEST(SelfTime, ChildrenAreClippedToTheParent) {
    // A child outliving its parent covers only [90,100] of it.
    const auto self = selfTimesNs({span(1, 0, 0, 100), span(2, 1, 90, 120)});
    EXPECT_EQ(self[0], 90);
    EXPECT_EQ(self[1], 30);
}

TEST(SelfTime, GrandchildrenDoNotReduceTheGrandparent) {
    // root [0,100] > child [10,60] > grandchild [20,40]: the grandchild
    // is inside the child, so the root loses only the child's 50.
    const auto self = selfTimesNs(
        {span(1, 0, 0, 100), span(2, 1, 10, 60), span(3, 2, 20, 40)});
    EXPECT_EQ(self[0], 50);
    EXPECT_EQ(self[1], 30);
    EXPECT_EQ(self[2], 20);
}

TEST(SelfTime, LayerTotalsSumSelfTimesByPrefix) {
    std::vector<Span> spans = {span(1, 0, 0, 100), span(2, 1, 10, 60), span(3, 2, 20, 40)};
    spans[0].name = "bench.op";
    spans[1].name = "core.flow";
    spans[2].name = "core.parse";
    const auto layers = layerTimes(spans);
    EXPECT_DOUBLE_EQ(layers.at("bench").selfMs, 50e-6);
    EXPECT_DOUBLE_EQ(layers.at("core").selfMs, 50e-6);
    EXPECT_EQ(layers.at("core").spans, 2u);
}

TEST(Tracer, NestingFollowsTheCallingThread) {
    Tracer& tracer = Tracer::instance();
    tracer.clear();
    tracer.setEnabled(true);
    {
        ScopedSpan outer("bench.op", 42);
        ScopedSpan inner("core.parse");
    }
    tracer.setEnabled(false);
    const std::vector<Span> spans = tracer.snapshot();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].parent, 0u);
    EXPECT_EQ(spans[1].parent, spans[0].id);
    EXPECT_EQ(spans[1].request, 42u);
    EXPECT_LE(spans[0].startNs, spans[1].startNs);
    EXPECT_GE(spans[0].endNs, spans[1].endNs);
    tracer.clear();
}

TEST(Tracer, DisabledTracerRecordsNothing) {
    Tracer& tracer = Tracer::instance();
    tracer.clear();
    { ScopedSpan s("bench.op", 1); }
    EXPECT_TRUE(tracer.snapshot().empty());
}
