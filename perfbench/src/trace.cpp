#include "trace.hpp"

#include "stats.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {

namespace {

std::int64_t nowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct ThreadState {
    std::vector<std::uint64_t> open;      ///< innermost last
    std::vector<std::uint64_t> requests;  ///< request of each open span
    std::uint32_t thread = 0;
    bool named = false;
};

thread_local ThreadState tls;

} // namespace

Tracer& Tracer::instance() {
    static Tracer tracer;
    return tracer;
}

std::uint64_t Tracer::begin(std::string_view name, std::uint64_t request) {
    if (!tls.named) {
        tls.thread = nextThread_.fetch_add(1, std::memory_order_relaxed);
        tls.named = true;
    }
    Span span;
    span.name = std::string(name);
    span.parent = tls.open.empty() ? 0 : tls.open.back();
    span.request = request != 0 || tls.requests.empty() ? request : tls.requests.back();
    span.thread = tls.thread;
    span.startNs = nowNs();
    const std::uint64_t spanRequest = span.request;
    std::uint64_t id = 0;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        id = spans_.size() + 1;
        span.id = id;
        spans_.push_back(std::move(span));
    }
    tls.open.push_back(id);
    tls.requests.push_back(spanRequest);
    return id;
}

void Tracer::end(std::uint64_t id) {
    const std::int64_t t = nowNs();
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (id == 0 || id > spans_.size()) {
            return;
        }
        spans_[id - 1].endNs = t;
    }
    if (!tls.open.empty() && tls.open.back() == id) {
        tls.open.pop_back();
        tls.requests.pop_back();
    }
}

std::vector<Span> Tracer::snapshot() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

void Tracer::clear() {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.clear();
}

void Tracer::writeJson(const std::string& path) const {
    const std::vector<Span> spans = snapshot();
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
        throw std::runtime_error("cannot write span file " + path);
    }
    const std::int64_t origin = spans.empty() ? 0 : spans.front().startNs;
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        out << (i == 0 ? "\n" : ",\n") << "{\"name\":" << jsonString(s.name)
            << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
            << ",\"ts\":" << jsonNumber(static_cast<double>(s.startNs - origin) / 1e3)
            << ",\"dur\":" << jsonNumber(static_cast<double>(s.endNs - s.startNs) / 1e3)
            << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
            << ",\"request\":" << s.request << "}}";
    }
    out << "\n]}\n";
}

ScopedSpan::ScopedSpan(std::string_view name, std::uint64_t request) {
    Tracer& tracer = Tracer::instance();
    if (tracer.enabled()) {
        id_ = tracer.begin(name, request);
    }
}

ScopedSpan::~ScopedSpan() {
    if (id_ != 0) {
        Tracer::instance().end(id_);
    }
}

std::vector<std::int64_t> selfTimesNs(const std::vector<Span>& spans) {
    std::unordered_map<std::uint64_t, std::size_t> index;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        index[spans[i].id] = i;
    }
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
    for (const Span& s : spans) {
        const auto it = index.find(s.parent);
        if (s.parent != 0 && it != index.end()) {
            children[it->second].emplace_back(s.startNs, s.endNs);
        }
    }
    std::vector<std::int64_t> self(spans.size(), 0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::int64_t lo = spans[i].startNs;
        const std::int64_t hi = std::max(lo, spans[i].endNs);
        auto& kids = children[i];
        std::sort(kids.begin(), kids.end());
        std::int64_t covered = 0;
        std::int64_t cursor = lo;  // end of the covered prefix so far
        for (const auto& [start, end] : kids) {
            const std::int64_t a = std::max(start, cursor);
            const std::int64_t b = std::min(end, hi);
            if (b > a) {
                covered += b - a;
                cursor = b;
            }
        }
        self[i] = (hi - lo) - covered;
    }
    return self;
}

namespace {

std::map<std::string, LayerTime> aggregate(const std::vector<Span>& spans, bool byLayer) {
    const std::vector<std::int64_t> self = selfTimesNs(spans);
    std::map<std::string, LayerTime> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::string& name = spans[i].name;
        const std::string key = byLayer ? name.substr(0, name.find('.')) : name;
        LayerTime& t = out[key];
        t.selfMs += static_cast<double>(self[i]) / 1e6;
        t.totalMs += static_cast<double>(spans[i].endNs - spans[i].startNs) / 1e6;
        ++t.spans;
    }
    return out;
}

} // namespace

std::map<std::string, LayerTime> layerTimes(const std::vector<Span>& spans) {
    return aggregate(spans, true);
}

std::map<std::string, LayerTime> nameTimes(const std::vector<Span>& spans) {
    return aggregate(spans, false);
}

} // namespace perfbench
