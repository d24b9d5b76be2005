#include "stats.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <map>

namespace perfbench {

double median(std::vector<double> values) {
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail tailOf(std::vector<double> values) {
    Tail tail;
    tail.count = values.size();
    if (values.empty()) {
        return tail;
    }
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    if (n <= kTailBeyond) {
        tail.value = values.back();
        tail.percentile = 100.0;
        return tail;
    }
    const std::size_t rank = n - kTailBeyond;  // 1-based
    tail.value = values[rank - 1];
    tail.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
    tail.beyond = kTailBeyond;
    return tail;
}

double nowSeconds() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double peakRssMb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

volatile std::uint64_t probeSink = 0;

/// Best of three runs of `kernel`, in ms.
template <class Kernel>
double bestOfThreeMs(Kernel kernel) {
    double best = 1e300;
    for (int rep = 0; rep < 3; ++rep) {
        const double t0 = nowSeconds();
        probeSink = kernel();
        best = std::min(best, (nowSeconds() - t0) * 1e3);
    }
    return best;
}

/// Random read-modify-write over a 1 MiB table (cache and memory).
std::uint64_t probeMemory() {
    static std::vector<std::uint32_t> table(1u << 18);
    std::uint32_t x = 0x12345678u;
    std::uint64_t acc = 0;
    for (int i = 0; i < 120000; ++i) {
        x = x * 1664525u + 1013904223u;
        std::uint32_t& slot = table[(x >> 8) & (table.size() - 1)];
        slot += x;
        acc += (slot & 1) != 0 ? slot >> 3 : slot << 1;
    }
    return acc;
}

/// A switch-dispatched bytecode loop (indirect branches, like an interpreter).
std::uint64_t probeDispatch() {
    static const std::vector<std::uint8_t> code = [] {
        std::vector<std::uint8_t> c;
        std::uint32_t x = 5;
        for (int i = 0; i < 4096; ++i) {
            x = x * 1664525u + 1013904223u;
            c.push_back(static_cast<std::uint8_t>((x >> 24) % 6));
        }
        return c;
    }();
    std::uint64_t r[4] = {1, 2, 3, 4};
    for (int rep = 0; rep < 10; ++rep) {
        for (const std::uint8_t op : code) {
            switch (op) {
            case 0: r[0] += r[1]; break;
            case 1: r[1] ^= r[2] << 1; break;
            case 2: r[2] = r[2] * 3 + r[3]; break;
            case 3: r[3] -= r[0] >> 2; break;
            case 4: (r[0] & 1) != 0 ? ++r[1] : --r[2]; break;
            default: r[0] = r[3] ^ r[1]; break;
            }
        }
    }
    return r[0] + r[1] + r[2] + r[3];
}

/// Node-based map inserts and a walk (allocation and pointer chasing).
std::uint64_t probeMap() {
    std::map<std::uint32_t, std::uint32_t> m;
    std::uint32_t x = 7;
    for (std::uint32_t i = 0; i < 2500; ++i) {
        x = x * 1664525u + 1013904223u;
        m[x % 20000] += i;
    }
    std::uint64_t acc = 0;
    for (const auto& [k, v] : m) {
        acc += k ^ v;
    }
    return acc;
}

} // namespace

double probeSlowness() {
    // Each kernel's time over its nominal (its typical time on the host
    // this benchmark was defined on), averaged.
    return (bestOfThreeMs(probeMemory) / kProbeNominalMs[0] +
            bestOfThreeMs(probeDispatch) / kProbeNominalMs[1] +
            bestOfThreeMs(probeMap) / kProbeNominalMs[2]) /
           3.0;
}

double normalisedSeconds(const std::function<void()>& fn, double* rawSeconds) {
    const double s0 = probeSlowness();
    const double t0 = nowSeconds();
    fn();
    const double raw = nowSeconds() - t0;
    const double s1 = probeSlowness();
    if (rawSeconds != nullptr) {
        *rawSeconds = raw;
    }
    return raw / (0.5 * (s0 + s1));
}

void Measurement::endWindow(double ops, double seconds, bool scaleRate) {
    const double now = probeSlowness();
    const double s = 0.5 * (previous_ + now);
    previous_ = now;
    for (const double ms : pending_) {
        rawLatenciesMs.push_back(ms);
        latenciesMs.push_back(ms / s);
    }
    pending_.clear();
    if (seconds > 0.0 && ops > 0.0) {
        rawWindowRates.push_back(ops / seconds);
        windowRates.push_back(scaleRate ? ops / seconds * s : ops / seconds);
    }
    slowness.push_back(s);
}

void WorkloadReport::fail(const std::string& why) {
    ++failed;
    if (failures.size() < 8) {
        failures.push_back(why);
    }
}

void WorkloadReport::line(const char* fmt, ...) {
    char buf[1024];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, args);
    va_end(args);
    lines.emplace_back(buf);
}

std::string jsonNumber(double value) {
    if (!std::isfinite(value)) {
        return "0";
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

std::string jsonString(const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

} // namespace perfbench
