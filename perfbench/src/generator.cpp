#include "generator.hpp"

#include "socgen/apps/dataflow.hpp"
#include "socgen/apps/kernels.hpp"
#include "socgen/apps/otsu.hpp"
#include "socgen/hls/serialize.hpp"

#include <algorithm>
#include <functional>
#include <vector>

namespace perfbench {

std::uint64_t Rng::next() {
    state_ += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

std::uint64_t Rng::below(std::uint64_t n) { return next() % n; }

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(below(static_cast<std::uint64_t>(hi - lo + 1)));
}

std::uint64_t streamSeed(std::uint64_t seed, std::uint64_t purpose, std::uint64_t index) {
    Rng rng(seed ^ (purpose * 0xD1B54A32D192ED03ULL));
    const std::uint64_t base = rng.next();
    Rng indexed(base ^ (index * 0x9E3779B97F4A7C15ULL));
    return indexed.next();
}

namespace {

using socgen::hls::Directives;
using socgen::hls::SchedulerKind;

struct PortSpec {
    std::string name;
    bool stream = true;
    bool input = true;
    unsigned width = 32;
};

/// One node the generator can place: its DSL ports and how to add its
/// kernel (or network) to the project's library under the node name.
struct NodeKind {
    const char* name;  ///< fixed node name; nullptr = stream stage (named per use)
    std::vector<PortSpec> ports;
    std::function<void(socgen::hls::KernelLibrary&, const std::string&, Rng&)> add;
    Directives baseDirectives;
    /// Largest unroll factor drawn for the kind. Caps keep every project
    /// inside the Zedboard's fabric: unrolled dividers and networks grow
    /// fastest.
    int maxUnroll = 4;
};

std::vector<NodeKind> nodeKinds() {
    namespace apps = socgen::apps;
    using Lib = socgen::hls::KernelLibrary;
    const std::vector<PortSpec> lite = {
        {"A", false, true, 32}, {"B", false, true, 32}, {"return", false, false, 32}};
    const std::vector<PortSpec> stream8 = {{"in", true, true, 8}, {"out", true, false, 8}};
    const std::vector<PortSpec> stream32 = {{"din", true, true, 32},
                                            {"dout", true, false, 32}};
    std::vector<NodeKind> kinds;
    kinds.push_back({"ADD", lite, [](Lib& l, const std::string&, Rng&) {
                         l.add(apps::makeAddKernel());
                     }, {}});
    kinds.push_back({"MUL", lite, [](Lib& l, const std::string&, Rng&) {
                         l.add(apps::makeMulKernel());
                     }, {}});
    kinds.push_back({"GAUSS", stream8, [](Lib& l, const std::string&, Rng& r) {
                         l.add(apps::makeGaussKernel(r.range(16, 4096)));
                     }, {}});
    kinds.push_back({"EDGE", stream8, [](Lib& l, const std::string&, Rng& r) {
                         l.add(apps::makeEdgeKernel(r.range(16, 4096)));
                     }, {}});
    kinds.push_back({"SOBEL", stream8, [](Lib& l, const std::string&, Rng& r) {
                         l.add(apps::makeSobelKernel(r.range(8, 128), r.range(8, 128)));
                     }, {}});
    kinds.push_back({"grayScale",
                     {{"imageIn", true, true, 32},
                      {"imageOutCH", true, false, 8},
                      {"imageOutSEG", true, false, 8}},
                     [](Lib& l, const std::string&, Rng& r) {
                         l.add(apps::makeGrayScaleKernel(r.range(64, 16384)));
                     },
                     apps::grayScaleDirectives()});
    kinds.push_back({"computeHistogram",
                     {{"grayScaleImage", true, true, 8}, {"histogram", true, false, 32}},
                     [](Lib& l, const std::string&, Rng& r) {
                         l.add(apps::makeHistogramKernel(r.range(64, 16384)));
                     },
                     apps::histogramDirectives()});
    kinds.push_back({"halfProbability",
                     {{"histogram", true, true, 32}, {"probability", true, false, 32}},
                     [](Lib& l, const std::string&, Rng& r) {
                         l.add(apps::makeOtsuKernel(r.range(64, 16384)));
                     },
                     apps::otsuDirectives(), 1});
    kinds.push_back({"segment",
                     {{"grayScaleImage", true, true, 8},
                      {"otsuThreshold", true, true, 32},
                      {"segmentedGrayImage", true, false, 8}},
                     [](Lib& l, const std::string&, Rng& r) {
                         l.add(apps::makeBinarizationKernel(r.range(64, 16384)));
                     },
                     apps::binarizationDirectives()});
    kinds.push_back({nullptr, stream32, [](Lib& l, const std::string& node, Rng& r) {
                         l.add(apps::makeStreamStageKernel(node, r.range(16, 4096),
                                                           r.range(0, 255)));
                     }, {}});
    // Dataflow networks stay small: a network's bypass FIFO is register
    // slots, so its size grows with the image.
    kinds.push_back({"otsuDataflow",
                     {{"imageIn", true, true, 32}, {"segmentedGrayImage", true, false, 8}},
                     [](Lib& l, const std::string&, Rng& r) {
                         const std::int64_t pixels = r.range(4, 32);
                         l.add(apps::makeOtsuDataflowNetwork(
                             pixels, static_cast<std::uint32_t>(pixels)));
                     },
                     {}, 1});
    kinds.push_back({"streamTriad", {{"checksum", false, false, 32}},
                     [](Lib& l, const std::string&, Rng& r) {
                         l.add(apps::makeStreamTriadNetwork(r.range(16, 4096)));
                     },
                     {}, 2});
    kinds.push_back({"triStagePipe", stream32, [](Lib& l, const std::string&, Rng& r) {
                         l.add(apps::makeStreamPipelineNetwork(r.range(16, 4096)));
                     }, {}, 2});
    return kinds;
}

const std::vector<NodeKind>& kindTable() {
    static const std::vector<NodeKind> kinds = nodeKinds();
    return kinds;
}

std::string q(const std::string& s) { return "\"" + s + "\""; }

struct PlacedPort {
    std::string node;
    std::size_t order = 0;  ///< node position; links only run forward
    PortSpec spec;
};

/// Projects come in blocks of kBlock. Within a block every node count
/// 1..kBlock occurs once and the node kinds are dealt from a shuffled deck
/// holding every kind equally often, so each seed draws the same mix of
/// work and seeds differ only in which projects combine what.
constexpr std::size_t kBlock = 8;

/// Node-kind indices of every project of `block`, in project order.
std::vector<std::vector<std::size_t>> dealBlock(std::uint64_t seed, std::uint64_t blockIndex) {
    const auto& kinds = kindTable();
    Rng rng(streamSeed(seed, 7, blockIndex));
    const auto shuffle = [&rng](auto& v) {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::swap(v[i - 1], v[rng.below(i)]);
        }
    };
    std::vector<std::size_t> counts(kBlock);
    for (std::size_t i = 0; i < kBlock; ++i) {
        counts[i] = i + 1;
    }
    shuffle(counts);
    std::vector<std::size_t> deck;
    while (deck.size() < kBlock * (kBlock + 1) / 2) {
        for (std::size_t k = 0; k < kinds.size(); ++k) {
            deck.push_back(k);
        }
    }
    shuffle(deck);

    // The stream stage is the one kind a project may hold twice.
    std::size_t stage = 0;
    while (kinds[stage].name != nullptr) {
        ++stage;
    }
    std::vector<std::vector<std::size_t>> block(kBlock);
    for (std::size_t p = 0; p < kBlock; ++p) {
        // Fixed-name kernels appear once per project: a card this
        // project already holds goes to the back of the deck. When only
        // such cards are left, a stream stage fills the slot.
        std::size_t rejected = 0;
        while (block[p].size() < counts[p]) {
            if (deck.empty() || rejected == deck.size()) {
                block[p].push_back(stage);
                continue;
            }
            const std::size_t k = deck.front();
            deck.erase(deck.begin());
            const bool repeat = kinds[k].name != nullptr &&
                                std::find(block[p].begin(), block[p].end(), k) != block[p].end();
            if (repeat) {
                deck.push_back(k);
                ++rejected;
            } else {
                block[p].push_back(k);
                rejected = 0;
            }
        }
    }
    return block;
}

} // namespace

GeneratedProject makeProject(std::uint64_t seed, std::uint64_t index) {
    Rng rng(streamSeed(seed, 1, index));
    const auto& kinds = kindTable();
    const std::vector<std::size_t> kindIndices = dealBlock(seed, index / kBlock)[index % kBlock];

    GeneratedProject project;
    project.name = "cc" + std::to_string(index);
    project.nodeCount = kindIndices.size();

    std::vector<std::pair<std::string, const NodeKind*>> nodes;
    unsigned stages = 0;
    for (const std::size_t k : kindIndices) {
        const NodeKind& kind = kinds[k];
        const std::string node =
            kind.name != nullptr ? kind.name : "stage" + std::to_string(stages++);
        nodes.emplace_back(node, &kind);
        kind.add(project.kernels, node, rng);

        Directives d = kind.baseDirectives;
        static constexpr int kUnroll[] = {1, 1, 2, 4};
        const int unroll = std::min(kind.maxUnroll, kUnroll[rng.below(4)]);
        if (unroll > 1) {
            d.unrollFactors["i"] = unroll;
        }
        d.enableOptimizer = !rng.chance(1, 4);
        d.scheduler = rng.chance(1, 4) ? SchedulerKind::Asap : SchedulerKind::List;
        project.directives[node] = d;
    }

    // Streams: an output may feed a later node's input of equal width;
    // everything left over is linked to the PS ('soc).
    std::vector<PlacedPort> outs;
    std::vector<PlacedPort> ins;
    for (std::size_t n = 0; n < nodes.size(); ++n) {
        for (const PortSpec& p : nodes[n].second->ports) {
            if (p.stream) {
                (p.input ? ins : outs).push_back({nodes[n].first, n, p});
            }
        }
    }
    std::vector<std::string> links;
    std::vector<bool> inLinked(ins.size(), false);
    for (const PlacedPort& o : outs) {
        bool chained = false;
        if (rng.chance(1, 2)) {
            for (std::size_t i = 0; i < ins.size(); ++i) {
                if (!inLinked[i] && ins[i].order > o.order &&
                    ins[i].spec.width == o.spec.width) {
                    links.push_back("(" + q(o.node) + "," + q(o.spec.name) + ") to (" +
                                    q(ins[i].node) + "," + q(ins[i].spec.name) + ")");
                    inLinked[i] = true;
                    chained = true;
                    break;
                }
            }
        }
        if (!chained) {
            links.push_back("(" + q(o.node) + "," + q(o.spec.name) + ") to 'soc");
        }
    }
    for (std::size_t i = 0; i < ins.size(); ++i) {
        if (!inLinked[i]) {
            links.push_back("'soc to (" + q(ins[i].node) + "," + q(ins[i].spec.name) + ")");
        }
    }

    std::string dsl = "object " + project.name + " extends App {\n  tg nodes;\n";
    for (const auto& [node, kind] : nodes) {
        dsl += "    tg node " + q(node);
        for (const PortSpec& p : kind->ports) {
            dsl += (p.stream ? " is " : " i ") + q(p.name);
        }
        dsl += " end;\n";
    }
    dsl += "  tg end_nodes;\n  tg edges;\n";
    for (const std::string& link : links) {
        dsl += "    tg link " + link + " end;\n";
    }
    for (const auto& [node, kind] : nodes) {
        for (const PortSpec& p : kind->ports) {
            if (!p.stream) {
                dsl += "    tg connect " + q(node) + ";\n";
                break;
            }
        }
    }
    dsl += "  tg end_edges;\n}\n";
    project.dslText = std::move(dsl);
    return project;
}

std::string describeProject(const GeneratedProject& project) {
    std::string out = project.dslText;
    for (const auto& [node, directives] : project.directives) {
        out += "\n#node " + node + "\n";
        out += socgen::hls::encodeProcessNetwork(project.kernels.network(node));
        out += socgen::hls::encodeDirectives(directives);
    }
    return out;
}

socgen::hls::Kernel makeColdKernel(const std::string& name, std::uint64_t seed,
                                   std::uint64_t index) {
    using namespace socgen::hls;
    Rng rng(streamSeed(seed, 2, index));
    KernelBuilder kb(name);
    const PortId in = kb.streamIn("in", 8);
    const PortId out = kb.streamOut("out", 8);
    const VarId i = kb.var("i", 32);
    const VarId acc = kb.var("acc", 32);
    kb.forLoop(i, kb.c(rng.range(16, 1024)));
    kb.assign(acc, kb.read(in));
    // A fixed statement count: every cold kernel costs the same to
    // synthesize; only its trip count and constants are unique.
    for (int s = 0; s < 6; ++s) {
        kb.assign(acc, kb.add(kb.mul(kb.v(acc), kb.c(rng.range(3, 1000))),
                              kb.c(rng.range(1, 1000))));
    }
    kb.write(out, kb.v(acc));
    kb.endLoop();
    return kb.build();
}

std::string soloDsl(const std::string& project, const std::string& node) {
    return "object " + project + " extends App {\n  tg nodes;\n    tg node " + q(node) +
           " is \"in\" is \"out\" end;\n  tg end_nodes;\n  tg edges;\n    tg link 'soc to (" +
           q(node) + ",\"in\") end;\n    tg link (" + q(node) +
           ",\"out\") to 'soc end;\n  tg end_edges;\n}\n";
}

} // namespace perfbench
