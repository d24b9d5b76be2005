#pragma once

// Seeded input generation for the benchmark workloads. Every input is a
// pure function of (seed, index): the same seed gives byte-identical DSL
// text, kernels and directives, so a run can be repeated exactly and a
// compiled project can be regenerated outside the timed region to check
// its bitstream.

#include "socgen/hls/directives.hpp"
#include "socgen/hls/ir.hpp"
#include "socgen/hls/network.hpp"

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

/// splitmix64 stream. Small, fast and fully specified, so generated
/// inputs do not depend on the standard library's distributions.
class Rng {
public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next();
    /// Uniform in [0, n); n must be non-zero.
    std::uint64_t below(std::uint64_t n);
    /// Uniform in [lo, hi].
    std::int64_t range(std::int64_t lo, std::int64_t hi);
    bool chance(unsigned num, unsigned den) { return below(den) < num; }

private:
    std::uint64_t state_;
};

/// Independent stream for (seed, purpose, index): inputs drawn for one
/// index never shift when another index draws more or fewer numbers.
[[nodiscard]] std::uint64_t streamSeed(std::uint64_t seed, std::uint64_t purpose,
                                       std::uint64_t index);

/// One compile-cold project: DSL text, the kernel sources its nodes name,
/// and per-node directives (FlowOptions::kernelDirectives).
struct GeneratedProject {
    std::string name;
    std::string dslText;
    socgen::hls::KernelLibrary kernels;
    std::map<std::string, socgen::hls::Directives> directives;
    std::size_t nodeCount = 0;
};

/// Project `index` of the compile-cold stream for `seed`: 1-8 nodes drawn
/// from the apps kernels (ADD, MUL, GAUSS, EDGE, SOBEL, the four Otsu
/// stages, stream stages and the three dataflow networks) with seeded
/// sizes, unroll factor, optimizer switch and scheduler.
[[nodiscard]] GeneratedProject makeProject(std::uint64_t seed, std::uint64_t index);

/// Canonical bytes of a project (DSL text, encoded kernel networks and
/// directives): equal bytes mean an identical input.
[[nodiscard]] std::string describeProject(const GeneratedProject& project);

/// A small stream-through kernel unique to (seed, index): the cold work
/// the service cannot dedupe. Named `name`; every one has the same shape.
[[nodiscard]] socgen::hls::Kernel makeColdKernel(const std::string& name, std::uint64_t seed,
                                         std::uint64_t index);

/// DSL of a one-node project streaming through kernel `node`.
[[nodiscard]] std::string soloDsl(const std::string& project, const std::string& node);

} // namespace perfbench
