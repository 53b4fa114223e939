#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <new>
#include <unordered_map>

#include "support/stats.hpp"

// ---------------------------------------------------------------------------
// Process-wide allocation counter, counted the way bench_network counts
// it: the global allocation functions are replaced as a matched set, so
// every operator new in every thread (server, engine, clients) lands
// here.  The count is gated so end-to-end windows pay one relaxed load.

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_allocs{0};

void*
counted_alloc(std::size_t n)
{
    if (g_counting.load(std::memory_order_relaxed)) {
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    }
    void* p = std::malloc(n == 0 ? 1 : n);
    if (p == nullptr) throw std::bad_alloc();
    return p;
}

void*
counted_alloc(std::size_t n, std::align_val_t align)
{
    if (g_counting.load(std::memory_order_relaxed)) {
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    }
    size_t a = static_cast<size_t>(align);
    size_t rounded = ((n == 0 ? 1 : n) + a - 1) / a * a;
    void* p = std::aligned_alloc(a, rounded);
    if (p == nullptr) throw std::bad_alloc();
    return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a)
{
    return counted_alloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a)
{
    return counted_alloc(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace perfbench {

void
set_alloc_counting(bool on)
{
    g_counting.store(on, std::memory_order_relaxed);
}

uint64_t
alloc_count()
{
    return g_allocs.load(std::memory_order_relaxed);
}

HostUsage
host_usage()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    HostUsage u;
    u.cpu_us = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) *
                   1e6 +
               static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
    u.ctx_switches = static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
    return u;
}

HostTicks
host_ticks()
{
    HostTicks t;
    FILE* f = fopen("/proc/stat", "r");
    if (f == nullptr) return t;
    unsigned long long v[8] = {};
    int n = fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                   &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]);
    fclose(f);
    if (n != 8) return t;
    t.steal = v[7];
    for (unsigned long long x : v) t.total += x;
    return t;
}

double
peak_rss_mib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t
clock_ns()
{
    return bitc::now_ns();
}

double
median(std::vector<double> values)
{
    if (values.empty()) return 0;
    std::sort(values.begin(), values.end());
    size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// ---------------------------------------------------------------------------

std::string
RunResult::to_json() const
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        char value[64];
        double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
        snprintf(value, sizeof value, "%.17g", v);
        if (i != 0) out += ", ";
        out += "\"" + metrics[i].name + "\": {\"value\": " + value +
               ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    out += "}}";
    return out;
}

// ---------------------------------------------------------------------------

LatencyHistogram::LatencyHistogram()
    : counts_(kLinear + (64 - kSubBits - 1) * (uint64_t{1} << kSubBits), 0)
{
}

size_t
LatencyHistogram::index(uint64_t ns)
{
    if (ns < kLinear) return static_cast<size_t>(ns);
    unsigned top = 63u - static_cast<unsigned>(__builtin_clzll(ns));
    unsigned shift = top - kSubBits;
    uint64_t mantissa = (ns >> shift) - (uint64_t{1} << kSubBits);
    return static_cast<size_t>(kLinear +
                               (top - kSubBits - 1) * (uint64_t{1} << kSubBits) +
                               mantissa);
}

uint64_t
LatencyHistogram::lower_bound(size_t idx)
{
    if (idx < kLinear) return idx;
    uint64_t rel = idx - kLinear;
    unsigned top = static_cast<unsigned>(rel >> kSubBits) + kSubBits + 1;
    uint64_t mantissa = (rel & ((uint64_t{1} << kSubBits) - 1)) +
                        (uint64_t{1} << kSubBits);
    return mantissa << (top - kSubBits);
}

uint64_t
LatencyHistogram::width(size_t idx)
{
    if (idx < kLinear) return 1;
    unsigned top =
        static_cast<unsigned>((idx - kLinear) >> kSubBits) + kSubBits + 1;
    return uint64_t{1} << (top - kSubBits);
}

void
LatencyHistogram::merge(const LatencyHistogram& other)
{
    for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
    total_ += other.total_;
}

double
LatencyHistogram::percentile_ns(double q) const
{
    if (total_ == 0) return 0;
    double rank = q * static_cast<double>(total_);
    double seen = 0;
    for (size_t i = 0; i < counts_.size(); ++i) {
        if (counts_[i] == 0) continue;
        double c = static_cast<double>(counts_[i]);
        if (seen + c >= rank) {
            double frac = (rank - seen) / c;
            return static_cast<double>(lower_bound(i)) +
                   frac * static_cast<double>(width(i));
        }
        seen += c;
    }
    return 0;
}

double
LatencyHistogram::mean_ns() const
{
    if (total_ == 0) return 0;
    double sum = 0;
    for (size_t i = 0; i < counts_.size(); ++i) {
        if (counts_[i] == 0) continue;
        sum += static_cast<double>(counts_[i]) *
               (static_cast<double>(lower_bound(i)) +
                static_cast<double>(width(i) - 1) / 2);
    }
    return sum / static_cast<double>(total_);
}

// ---------------------------------------------------------------------------

SpanBuffer::SpanBuffer(uint32_t slot, size_t capacity)
    : slot_(slot), capacity_(capacity)
{
    spans_.reserve(capacity);
}

void
SpanBuffer::close(uint64_t id, const char* name, uint64_t parent,
                  uint64_t subject, uint64_t start_ns, uint64_t end_ns)
{
    if (spans_.size() >= capacity_) {
        ++dropped_;
        return;
    }
    spans_.push_back({name, id, parent, subject, start_ns, end_ns});
}

SpanBuffer*
SpanLog::buffer(size_t capacity)
{
    buffers_.push_back(std::make_unique<SpanBuffer>(
        static_cast<uint32_t>(buffers_.size() + 1), capacity));
    return buffers_.back().get();
}

uint64_t
SpanLog::recorded() const
{
    uint64_t n = 0;
    for (const auto& b : buffers_) n += b->spans().size();
    return n;
}

uint64_t
SpanLog::dropped() const
{
    uint64_t n = 0;
    for (const auto& b : buffers_) n += b->dropped();
    return n;
}

std::vector<SpanLog::LayerTime>
SpanLog::self_times() const
{
    // Children of each parent, as intervals, so a span's self time is
    // its duration minus the union of its children clipped to it.
    std::unordered_map<uint64_t, std::vector<std::pair<uint64_t, uint64_t>>>
        children;
    for (const auto& b : buffers_) {
        for (const Span& s : b->spans()) {
            if (s.parent != 0) {
                children[s.parent].emplace_back(s.start_ns, s.end_ns);
            }
        }
    }
    std::map<std::string, LayerTime> by_name;
    for (const auto& b : buffers_) {
        for (const Span& s : b->spans()) {
            LayerTime& t = by_name[s.name];
            t.name = s.name;
            double dur = static_cast<double>(s.end_ns - s.start_ns);
            double covered = 0;
            auto it = children.find(s.id);
            if (it != children.end()) {
                auto& iv = it->second;
                std::sort(iv.begin(), iv.end());
                uint64_t cur_lo = 0, cur_hi = 0;
                bool open = false;
                for (auto [lo, hi] : iv) {
                    lo = std::max(lo, s.start_ns);
                    hi = std::min(hi, s.end_ns);
                    if (hi <= lo) continue;
                    if (open && lo <= cur_hi) {
                        cur_hi = std::max(cur_hi, hi);
                    } else {
                        if (open) covered += static_cast<double>(cur_hi - cur_lo);
                        cur_lo = lo;
                        cur_hi = hi;
                        open = true;
                    }
                }
                if (open) covered += static_cast<double>(cur_hi - cur_lo);
            }
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur - covered;
        }
    }
    std::vector<LayerTime> out;
    for (auto& [name, t] : by_name) out.push_back(t);
    return out;
}

bool
SpanLog::write(const std::string& path) const
{
    FILE* f = fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    fprintf(f, "id\tparent\tname\tsubject\tstart_ns\tend_ns\n");
    for (const auto& b : buffers_) {
        for (const Span& s : b->spans()) {
            fprintf(f, "%llu\t%llu\t%s\t%llu\t%llu\t%llu\n",
                    static_cast<unsigned long long>(s.id),
                    static_cast<unsigned long long>(s.parent), s.name,
                    static_cast<unsigned long long>(s.subject),
                    static_cast<unsigned long long>(s.start_ns),
                    static_cast<unsigned long long>(s.end_ns));
        }
    }
    return fclose(f) == 0;
}

}  // namespace perfbench
