/**
 * @file
 * Pieces every perfbench workload shares: the result record printed
 * as the run's last line, a constant-memory latency histogram, the
 * process counters (allocations, rusage, peak RSS) and the in-memory
 * span log of the traced run.
 */
#ifndef PERFBENCH_COMMON_HPP
#define PERFBENCH_COMMON_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/** Command line of one run. */
struct Args {
    std::string workload;
    uint64_t seed = 1;
    int seconds = 10;
    bool trace = false;
    std::string trace_dir;  ///< Where the traced run writes its spans.
};

/** One reported metric. */
struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

/** What a run prints as its final JSON line. */
struct RunResult {
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;

    void add(const std::string& name, double value,
             const std::string& unit) {
        metrics.push_back({name, value, unit});
    }
    /** Adds a failure count (and clears correct when nonzero). */
    void fail(uint64_t n) {
        failed += n;
        if (n != 0) correct = false;
    }
    std::string to_json() const;
};

/**
 * Latency histogram over nanoseconds with 1/256 relative bucket
 * width: exact below 512 ns, log-linear above.  Constant memory
 * (≈115 KiB), so recording millions of frames does not grow the
 * process and peak RSS stays a property of the program under test.
 */
class LatencyHistogram {
  public:
    LatencyHistogram();
    void record(uint64_t ns) {
        counts_[index(ns)] += 1;
        total_ += 1;
    }
    void merge(const LatencyHistogram& other);
    uint64_t count() const { return total_; }
    /** Percentile @p q in [0, 1], interpolated inside its bucket. */
    double percentile_ns(double q) const;
    double mean_ns() const;

  private:
    static constexpr unsigned kSubBits = 8;
    static constexpr uint64_t kLinear = uint64_t{2} << kSubBits;
    static size_t index(uint64_t ns);
    static uint64_t lower_bound(size_t idx);
    static uint64_t width(size_t idx);
    std::vector<uint64_t> counts_;
    uint64_t total_ = 0;
};

/** Median of @p values (mean of the middle two when even). */
double median(std::vector<double> values);

/** Process operator-new count; counting is off until enabled. */
void set_alloc_counting(bool on);
uint64_t alloc_count();

/** getrusage(RUSAGE_SELF) totals for the whole process. */
struct HostUsage {
    double cpu_us = 0;          ///< User + system CPU time.
    uint64_t ctx_switches = 0;  ///< Voluntary + involuntary.
};
HostUsage host_usage();

/** Guest-wide CPU time from /proc/stat, in clock ticks: the time the
 *  hypervisor ran other guests while this one had work (steal), and
 *  all time.  Both stay 0 where /proc/stat cannot be read. */
struct HostTicks {
    uint64_t steal = 0;
    uint64_t total = 0;
};
HostTicks host_ticks();

/** Peak resident set size of the process, in MiB. */
double peak_rss_mib();

/** Monotonic clock in ns (the runtime's own now_ns()). */
uint64_t clock_ns();

/** One closed span: a timed interval at a layer boundary. */
struct Span {
    const char* name = "";
    uint64_t id = 0;
    uint64_t parent = 0;   ///< 0 = root.
    uint64_t subject = 0;  ///< Frame or program id the span worked on.
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
};

/**
 * Spans of one thread, kept in a preallocated buffer (spans past the
 * capacity are counted, not stored).  Ids are unique across buffers.
 */
class SpanBuffer {
  public:
    SpanBuffer(uint32_t slot, size_t capacity);
    /** Reserves the id of a span that closes later. */
    uint64_t open() { return (uint64_t{slot_} << 40) | ++next_; }
    void close(uint64_t id, const char* name, uint64_t parent,
               uint64_t subject, uint64_t start_ns, uint64_t end_ns);
    const std::vector<Span>& spans() const { return spans_; }
    uint64_t dropped() const { return dropped_; }

  private:
    uint32_t slot_;
    uint64_t next_ = 0;
    size_t capacity_;
    std::vector<Span> spans_;
    uint64_t dropped_ = 0;
};

/**
 * Times one span on @p buffer; a null buffer makes it a no-op, so
 * untraced runs pay one branch.
 */
class ScopedSpan {
  public:
    ScopedSpan(SpanBuffer* buffer, const char* name, uint64_t parent,
               uint64_t subject = 0)
        : buffer_(buffer), name_(name), parent_(parent),
          subject_(subject) {
        if (buffer_ != nullptr) {
            id_ = buffer_->open();
            start_ = clock_ns();
        }
    }
    ~ScopedSpan() {
        if (buffer_ != nullptr) {
            buffer_->close(id_, name_, parent_, subject_, start_,
                           clock_ns());
        }
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;
    uint64_t id() const { return id_; }

  private:
    SpanBuffer* buffer_;
    const char* name_;
    uint64_t parent_;
    uint64_t subject_;
    uint64_t id_ = 0;
    uint64_t start_ = 0;
};

/** The traced run's span buffers, one per recording thread. */
class SpanLog {
  public:
    /** A new buffer for one thread; the log keeps ownership. */
    SpanBuffer* buffer(size_t capacity);

    /** Per-name totals: count, wall time and self time. */
    struct LayerTime {
        std::string name;
        uint64_t count = 0;
        double total_ns = 0;
        double self_ns = 0;  ///< Total minus the time children cover.
    };
    std::vector<LayerTime> self_times() const;

    /** Writes every span as TSV; false when the file cannot be made. */
    bool write(const std::string& path) const;

    uint64_t recorded() const;
    uint64_t dropped() const;

  private:
    std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_HPP
