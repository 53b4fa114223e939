/**
 * @file
 * The edge workloads: net::NetServer on loopback, driven by an
 * in-process load generator (one thread, four connections), every
 * answer checked against a reference computed from interop::legacy_*
 * on the same 24 bytes.
 *
 *  - edge-cpu: legacy stages, workers 1:1:1:1, no payload, no lookup
 *    sleep, uniform flows (each frame takes the next flow id), closed
 *    loop of 4 connections x 16 frames in flight.
 *  - edge-skew: BitC stages (one VM per worker), workers 4:4:4:4,
 *    1024 payload bytes, Zipf flows (s = 1.1 over 1024 ids per
 *    connection), closed loop of 4 connections x 4 frames in flight.
 *
 * The traced run adds a short open-loop session of the same shape at a
 * fixed rate, each frame timed from its scheduled send: the latency
 * below saturation and how late the generator ran.
 *
 * Zipf flows repeat while earlier frames of the same flow are still in
 * flight, so answers are matched to send stamps through a FIFO per
 * (connection, flow): the server keeps per-flow order, so the oldest
 * outstanding frame of a flow is the one answered.
 */
#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <thread>
#include <vector>

#include "concurrency/pipeline.hpp"
#include "interop/marshal.hpp"
#include "interop/packet_stages.hpp"
#include "memory/region_heap.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "support/buffer_pool.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "support/trace.hpp"
#include "vm/pipeline.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace bitc;

constexpr size_t kConns = 4;
constexpr size_t kPacketPool = 4096;  ///< Distinct packets per connection.
constexpr size_t kFlowSeq = 1u << 16; ///< Flow draws per connection.
constexpr size_t kZipfFlows = 1024;
constexpr double kZipfS = 1.1;
constexpr size_t kAnswerMax = conc::kPipeWireBytes + 8;
constexpr int kSetups = 3;    ///< Timed set-ups per session.
/** The measured window is cut into slices; throughput and latency
 *  percentiles are the median over slices, so one stall burst moves
 *  one slice, not the run. */
constexpr size_t kSlices = 10;
/** The traced run keeps one span in this many per-frame and per-call
 *  spans, so a traced session's span log stays a few MiB. */
constexpr uint64_t kSpanSample = 16;

struct Shape {
    std::string name;
    std::array<size_t, 4> workers;
    bool migrated;
    size_t payload_bytes;
    bool zipf;
    size_t inflight;  ///< Closed loop: frames in flight per conn.
    double warmup_s;
    int sessions;  ///< Server sessions per end-to-end run.
    bool open_loop = false;  ///< The traced run's open-loop session only.
    double rate_per_s = 0;   ///< Open loop: offered frames/s over all conns.
};

/**
 * Both workloads run closed loops.  Paced at 10-50k frames/s, edge-skew
 * lost its tail whenever the host stole CPU from this guest: one
 * stalled stage worker queued every frame behind it and the p95 jumped
 * from ~150 us to 2-5 ms, so runs could not be compared.  A closed loop
 * cannot pile up frames behind a stall.  edge-skew keeps 4 frames in
 * flight per connection, about half its closed-loop capacity with 16.
 * Many short sessions keep one thread placement or one stall from
 * setting a run.
 */
Shape
shape_for(const std::string& name)
{
    if (name == "edge-skew") {
        return {name, {4, 4, 4, 4}, true, 1024, true, 4, 0.2, 20};
    }
    return {"edge-cpu", {1, 1, 1, 1}, false, 0, false, 16, 0.2, 10};
}

/** The traced run's open-loop session: @p shape paced at a fixed rate,
 *  far below either shape's capacity. */
Shape
open_loop_shape(Shape shape)
{
    shape.open_loop = true;
    shape.rate_per_s = 10000;
    shape.warmup_s = 0.1;
    return shape;
}

conc::PipelineConfig
pipeline_config(const Shape& shape, uint64_t seed)
{
    options::PipelineSpec spec;
    spec.workers = shape.workers;
    spec.payload_bytes = shape.payload_bytes;
    spec.migrated = shape.migrated;
    spec.lookup_latency_us = 0;
    spec.seed = seed;
    return conc::config_from_spec(spec);
}

/** The reference answer to one data frame. */
struct Answer {
    net::FrameType type = net::FrameType::kResponse;
    uint8_t len = 0;
    std::array<uint8_t, kAnswerMax> bytes{};  ///< The answer's payload.
    int64_t bucket = conc::kPipeDropBucket;   ///< Route bucket, or drop.
};

/** The server's flow word: connection id (1-based, in connect order)
 *  in the high half, the client's flow id in the low half. */
uint32_t
flow_word(size_t conn, uint16_t flow)
{
    return static_cast<uint32_t>((conn + 1) << 16) | flow;
}

Answer
reference_answer(std::array<uint8_t, conc::kPipeWireBytes> wire)
{
    Answer a;
    std::memcpy(a.bytes.data(), wire.data(), wire.size());
    a.len = static_cast<uint8_t>(wire.size());
    if (interop::legacy_validate(wire) == 0) {
        a.type = net::FrameType::kDrop;
        return a;
    }
    interop::legacy_decrement_ttl(wire);
    interop::legacy_checksum(wire);
    a.bucket = interop::legacy_classify(wire);
    std::memcpy(a.bytes.data(), wire.data(), wire.size());
    for (int shift = 56; shift >= 0; shift -= 8) {
        a.bytes[a.len++] =
            static_cast<uint8_t>(static_cast<uint64_t>(a.bucket) >> shift);
    }
    return a;
}

/** One connection's generated frames: frame i carries packet
 *  i % kPacketPool on flow flows[i % kFlowSeq]. */
struct Traffic {
    std::vector<std::array<uint8_t, conc::kPipeWireBytes>> packets;
    std::vector<Answer> answers;
    std::vector<uint16_t> flows;
};

std::vector<Traffic>
make_traffic(const Shape& shape, uint64_t seed)
{
    std::vector<double> cdf;
    if (shape.zipf) {
        double sum = 0;
        for (size_t k = 1; k <= kZipfFlows; ++k) {
            sum += 1.0 / std::pow(static_cast<double>(k), kZipfS);
            cdf.push_back(sum);
        }
        for (double& c : cdf) c /= sum;
    }
    std::vector<Traffic> all(kConns);
    for (size_t c = 0; c < kConns; ++c) {
        Traffic& t = all[c];
        Rng rng(seed * 0x9e3779b97f4a7c15ull + c + 1);
        t.packets.resize(kPacketPool);
        t.answers.resize(kPacketPool);
        for (size_t i = 0; i < kPacketPool; ++i) {
            interop::generate_packet(rng, t.packets[i]);
            t.answers[i] = reference_answer(t.packets[i]);
        }
        t.flows.resize(kFlowSeq);
        for (size_t i = 0; i < kFlowSeq; ++i) {
            if (shape.zipf) {
                double u = rng.next_double();
                size_t rank = static_cast<size_t>(
                    std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
                t.flows[i] = static_cast<uint16_t>(
                    std::min(rank, kZipfFlows - 1) + 1);
            } else {
                t.flows[i] = static_cast<uint16_t>(i % 0xfffe + 1);
            }
        }
    }
    return all;
}

// ---------------------------------------------------------------------------
// Load generator.  Each connection is a non-blocking socket that sends
// on the schedule (open loop) or whenever one of its window slots is
// free (closed loop), and receives into a pooled FrameDecoder.  One
// thread drives all four connections, so the generator adds one
// runnable thread next to the server's.  With one thread per
// connection the closed loop ran ~10 % slower: four generator threads
// competed with the server's for the host's four vCPUs.

struct Schedule {
    uint64_t start_ns = 0;
    uint64_t measure_from = 0;
    uint64_t measure_to = 0;   ///< Also the end of sending.
    uint64_t drain_until = 0;  ///< Frames unanswered by then fail.

    /** Slice of the window holding @p t (measure_from <= t < measure_to). */
    size_t slice(uint64_t t) const {
        return static_cast<size_t>((t - measure_from) * kSlices /
                                   (measure_to - measure_from));
    }
};

struct ClientStats {
    uint64_t sent = 0;
    uint64_t answered = 0;
    uint64_t mismatched = 0;  ///< Wrong type/bytes, incl. error frames.
    uint64_t unexpected = 0;  ///< Answer on a flow with nothing in flight.
    uint64_t unanswered = 0;
    bool hard_failure = false;
    std::string error;
    /** Frames stamped inside the window, per slice of it. */
    std::vector<LatencyHistogram> latency =
        std::vector<LatencyHistogram>(kSlices);
    /** Answers received inside the window, per slice of it. */
    std::array<uint64_t, kSlices> answers{};
    LatencyHistogram lateness;  ///< Open loop: send time minus due time.
    double client_ns = 0;       ///< Time in send/recv calls (traced).
};

/** One connection of the load generator. */
class LoadConn {
  public:
    LoadConn(net::NetClient& client, const Shape& shape,
             const Traffic& traffic, size_t conn, const Schedule& sched,
             SpanBuffer* spans, ClientStats& st)
        : fd_(client.fd()), shape_(shape), traffic_(traffic), conn_(conn),
          sched_(sched), spans_(spans), st_(st), slots_(kSlots),
          free_slots_(kSlots), head_(1u << 16, kNil), tail_(1u << 16, kNil),
          out_(1u << 16) {
        fcntl(fd_, F_SETFL, fcntl(fd_, F_GETFL) | O_NONBLOCK);
        for (uint32_t i = 0; i < kSlots; ++i) free_slots_[i] = kSlots - 1 - i;
        interval_ = shape.open_loop ? 1e9 * static_cast<double>(kConns) /
                                          shape.rate_per_s
                                    : 0;
        next_due_ = static_cast<double>(sched.start_ns) +
                    interval_ * static_cast<double>(conn) /
                        static_cast<double>(kConns);
    }

    int fd() const { return fd_; }
    bool failed() const { return st_.hard_failure; }
    bool wants_write() const { return out_off_ < out_len_; }
    uint64_t answered() const { return st_.answered; }

    /** True once sending has ended and nothing is outstanding. */
    bool done(uint64_t now) const {
        return st_.hard_failure ||
               (now >= sched_.measure_to && inflight_ == 0 && !wants_write());
    }

    /** When this connection next has something to send. */
    uint64_t next_wake(uint64_t now) const {
        if (now >= sched_.measure_to) return sched_.drain_until;
        return shape_.open_loop
                   ? std::min<uint64_t>(static_cast<uint64_t>(next_due_),
                                        sched_.measure_to)
                   : sched_.measure_to;
    }

    /** Queues every frame that is due (open) or fits the window
     *  (closed), then writes what the socket takes. */
    void send(uint64_t now) {
        if (st_.hard_failure) return;
        if (now < sched_.measure_to) {
            if (out_off_ == out_len_) out_off_ = out_len_ = 0;
            size_t room = (out_.size() - out_len_) / kFrameBytes;
            if (shape_.open_loop) {
                while (static_cast<double>(now) >= next_due_ && room > 0 &&
                       !free_slots_.empty()) {
                    uint64_t due = static_cast<uint64_t>(next_due_);
                    st_.lateness.record(now - std::min(now, due));
                    enqueue(due);
                    next_due_ += interval_;
                    --room;
                }
            } else {
                while (inflight_ < shape_.inflight && room > 0 &&
                       !free_slots_.empty()) {
                    enqueue(now);
                    --room;
                }
            }
        }
        if (!wants_write()) return;
        uint64_t t0 = spans_ != nullptr ? clock_ns() : 0;
        ssize_t n = ::send(fd_, out_.data() + out_off_, out_len_ - out_off_,
                           MSG_NOSIGNAL);
        if (spans_ != nullptr) {
            uint64_t t1 = clock_ns();
            if (++sends_ % kSpanSample == 0) {
                spans_->close(spans_->open(), "client.send", 0, conn_, t0, t1);
            }
            st_.client_ns += static_cast<double>(t1 - t0);
        }
        if (n > 0) {
            out_off_ += static_cast<size_t>(n);
        } else if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
            fail(std::string("send: ") + std::strerror(errno));
        }
    }

    /** Reads until the socket is drained, matching every answer. */
    void receive() {
        while (!st_.hard_failure) {
            auto room = decoder_.tail(16 * 1024);
            if (!room.is_ok()) {
                fail(room.status().to_string());
                return;
            }
            uint64_t t0 = spans_ != nullptr ? clock_ns() : 0;
            ssize_t n = recv(fd_, room.value().data(), room.value().size(), 0);
            if (n == 0) {
                // The server only closes after we do: anything else
                // is a teardown.
                fail("server closed the connection");
                return;
            }
            if (n < 0) {
                if (errno != EAGAIN && errno != EWOULDBLOCK) {
                    fail(std::string("recv: ") + std::strerror(errno));
                }
                return;
            }
            decoder_.commit(static_cast<size_t>(n));
            uint64_t arrived = clock_ns();
            while (true) {
                auto next = decoder_.next_view();
                if (!next.is_ok()) {
                    fail(next.status().to_string());
                    return;
                }
                if (!next.value().has_value()) break;
                on_answer(*next.value(), arrived);
            }
            if (spans_ != nullptr) {
                uint64_t t1 = clock_ns();
                if (++recvs_ % kSpanSample == 0) {
                    spans_->close(spans_->open(), "client.recv", 0, conn_, t0,
                                  t1);
                }
                st_.client_ns += static_cast<double>(t1 - t0);
            }
            if (static_cast<size_t>(n) < room.value().size()) return;
        }
    }

    /** Frames still unanswered count as failures. */
    void finish() { st_.unanswered = inflight_; }

  private:
    static constexpr uint32_t kNil = UINT32_MAX;
    static constexpr uint32_t kSlots = 1u << 15;
    static constexpr size_t kFrameBytes =
        net::encoded_frame_size(conc::kPipeWireBytes);

    /** A frame in flight; slots of one flow form a FIFO list. */
    struct Slot {
        uint64_t stamp = 0;
        uint64_t span = 0;
        uint64_t frame = 0;
        uint32_t packet = 0;
        uint32_t next = kNil;
    };

    void fail(std::string error) {
        st_.hard_failure = true;
        st_.error = std::move(error);
    }

    void enqueue(uint64_t stamp) {
        uint32_t pkt = static_cast<uint32_t>(frame_ % kPacketPool);
        uint16_t flow = traffic_.flows[frame_ % kFlowSeq];
        uint32_t s = free_slots_.back();
        free_slots_.pop_back();
        bool sampled = spans_ != nullptr && frame_ % kSpanSample == 0;
        slots_[s] = {stamp, sampled ? spans_->open() : 0, frame_, pkt, kNil};
        if (tail_[flow] == kNil) {
            head_[flow] = s;
        } else {
            slots_[tail_[flow]].next = s;
        }
        tail_[flow] = s;
        net::encode_frame_into(
            net::FrameType::kData, flow, 0,
            std::span<const uint8_t>(traffic_.packets[pkt].data(),
                                     conc::kPipeWireBytes),
            std::span<uint8_t>(out_.data() + out_len_, kFrameBytes));
        out_len_ += kFrameBytes;
        ++frame_;
        ++inflight_;
        ++st_.sent;
    }

    void on_answer(const net::FrameView& view, uint64_t now) {
        uint32_t s = view.flow < head_.size() ? head_[view.flow] : kNil;
        if (s == kNil) {
            ++st_.unexpected;
            return;
        }
        head_[view.flow] = slots_[s].next;
        if (head_[view.flow] == kNil) tail_[view.flow] = kNil;
        const Slot& slot = slots_[s];
        const Answer& want = traffic_.answers[slot.packet];
        if (view.type != want.type || view.payload.size() != want.len ||
            std::memcmp(view.payload.data(), want.bytes.data(), want.len) !=
                0) {
            ++st_.mismatched;
        }
        if (slot.stamp >= sched_.measure_from &&
            slot.stamp < sched_.measure_to) {
            st_.latency[sched_.slice(slot.stamp)].record(
                now - std::min(now, slot.stamp));
        }
        if (now >= sched_.measure_from && now < sched_.measure_to) {
            ++st_.answers[sched_.slice(now)];
        }
        if (slot.span != 0) {
            spans_->close(slot.span, "client.frame", 0,
                          (uint64_t{conn_} << 40) | slot.frame, slot.stamp,
                          now);
        }
        free_slots_.push_back(s);
        --inflight_;
        ++st_.answered;
    }

    int fd_;
    const Shape& shape_;
    const Traffic& traffic_;
    size_t conn_;
    const Schedule& sched_;
    SpanBuffer* spans_;
    ClientStats& st_;

    std::vector<Slot> slots_;
    std::vector<uint32_t> free_slots_;
    std::vector<uint32_t> head_, tail_;  ///< Per-flow FIFO of slots.
    net::FrameDecoder decoder_;
    std::vector<uint8_t> out_;
    size_t out_len_ = 0, out_off_ = 0;
    uint64_t frame_ = 0;
    uint64_t sends_ = 0;  ///< send() calls, for span sampling.
    uint64_t recvs_ = 0;  ///< recv() calls, for span sampling.
    uint64_t inflight_ = 0;
    double interval_ = 0;
    double next_due_ = 0;
};

uint64_t
thread_cpu_ns()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull +
           static_cast<uint64_t>(ts.tv_nsec);
}

/**
 * Drives @p conns from the calling thread until all are done or the
 * drain deadline passes.  Returns the CPU time the thread itself spent
 * inside the measured window, so the generator's own cost can be taken
 * out of the process's.
 */
uint64_t
drive(std::vector<LoadConn*> conns, const Schedule& sched)
{
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    std::vector<pollfd> fds(conns.size());
    uint64_t cpu_from = 0, cpu_to = 0;
    while (true) {
        uint64_t now = clock_ns();
        if (cpu_from == 0 && now >= sched.measure_from) {
            cpu_from = thread_cpu_ns();
        }
        if (cpu_to == 0 && now >= sched.measure_to) cpu_to = thread_cpu_ns();
        bool progress = false;
        bool all_done = true;
        for (LoadConn* c : conns) {
            c->send(now);
            uint64_t before = c->answered();
            c->receive();
            progress |= c->answered() != before;
            all_done &= c->done(clock_ns());
        }
        now = clock_ns();
        if (all_done || now >= sched.drain_until) break;
        // Answers free closed-loop slots: send before waiting again.
        if (progress) continue;

        uint64_t wake = now + 10'000'000;  // re-check at least every 10 ms
        size_t n = 0;
        for (LoadConn* c : conns) {
            if (c->failed()) continue;
            wake = std::min(wake, c->next_wake(now));
            fds[n++] = {c->fd(),
                        static_cast<short>(POLLIN |
                                           (c->wants_write() ? POLLOUT : 0)),
                        0};
        }
        if (wake <= now) continue;
        timespec ts{static_cast<time_t>((wake - now) / 1'000'000'000),
                    static_cast<long>((wake - now) % 1'000'000'000)};
        ppoll(fds.data(), n, &ts, nullptr);
    }
    for (LoadConn* c : conns) c->finish();
    if (cpu_to == 0) cpu_to = thread_cpu_ns();
    return cpu_to - std::min(cpu_to, cpu_from);
}

// ---------------------------------------------------------------------------
// A server session: set-up (create, start, connect; repeated), traffic,
// window snapshots, teardown and the ledger check.

struct Window {
    HostUsage usage;
    HostTicks ticks;
    uint64_t allocs = 0;
    pool::BufferPoolStats pool;
    metrics::Snapshot registry;
};

Window
take_window()
{
    Window w;
    w.usage = host_usage();
    w.ticks = host_ticks();
    w.allocs = alloc_count();
    w.pool = pool::frame_pool().stats();
    w.registry = metrics::snapshot();
    return w;
}

struct Session {
    std::vector<double> setup_samples;
    uint64_t sent = 0;
    uint64_t failed = 0;
    double window_s = 0;
    std::vector<LatencyHistogram> slice_latency =
        std::vector<LatencyHistogram>(kSlices);
    std::array<uint64_t, kSlices> slice_answers{};
    LatencyHistogram latency;  ///< The whole window.
    LatencyHistogram lateness;
    double client_ns = 0;
    double generator_cpu_us = 0;  ///< The load generator's own CPU.
    Window w0, w1;
    net::ServerStats stats;

    /** CPU the process spent per answered frame in the window, the
     *  load generator's thread excluded. */
    double server_cpu_us_per_frame() const {
        double cpu = w1.usage.cpu_us - w0.usage.cpu_us - generator_cpu_us;
        return cpu / static_cast<double>(std::max<uint64_t>(window_answers(), 1));
    }

    /** Share of the guest's CPU time the host stole in the window. */
    double steal_share() const {
        uint64_t total = w1.ticks.total - w0.ticks.total;
        return total == 0 ? 0
                          : static_cast<double>(w1.ticks.steal - w0.ticks.steal) /
                                static_cast<double>(total);
    }

    uint64_t window_answers() const {
        uint64_t n = 0;
        for (uint64_t a : slice_answers) n += a;
        return n;
    }
    /** Median over slices of answered frames per second. */
    double throughput() const {
        std::vector<double> rates;
        for (uint64_t a : slice_answers) {
            rates.push_back(static_cast<double>(a) * kSlices / window_s);
        }
        return median(rates);
    }
    /** Median over slices of the slice's latency percentile, in us. */
    double latency_us(double q) const {
        std::vector<double> values;
        for (const LatencyHistogram& h : slice_latency) {
            values.push_back(h.percentile_ns(q) / 1e3);
        }
        return median(values);
    }
};

bool
connect_all(uint16_t port, std::vector<net::NetClient>& clients)
{
    clients.clear();
    for (size_t c = 0; c < kConns; ++c) {
        auto client = net::NetClient::connect("127.0.0.1", port);
        if (!client.is_ok()) {
            fprintf(stderr, "perfbench: connect: %s\n",
                    client.status().to_string().c_str());
            return false;
        }
        clients.push_back(std::move(client).take());
    }
    return true;
}

/** Counts every way the ledger or the answers went wrong. */
uint64_t
ledger_failures(const Session& s)
{
    const net::ServerStats& st = s.stats;
    uint64_t bad = 0;
    if (!st.conserved()) bad += 1;
    uint64_t gap = st.generated > s.sent ? st.generated - s.sent
                                         : s.sent - st.generated;
    bad += gap;
    bad += st.rejected + st.fault_dropped + st.shed + st.edge_rejects +
           st.protocol_errors + st.teardowns_sick;
    if (bad != 0) {
        fprintf(stderr, "perfbench: ledger (sent %llu):\n%s\n",
                static_cast<unsigned long long>(s.sent),
                st.to_string().c_str());
    }
    return bad;
}

Session
run_session(const Shape& shape, const std::vector<Traffic>& traffic,
            uint64_t seed, double seconds, int setups, bool traced,
            SpanLog* log)
{
    Session s;
    std::unique_ptr<net::NetServer> server;
    std::vector<net::NetClient> clients;
    for (int k = 0; k < setups; ++k) {
        if (server != nullptr) {
            clients.clear();
            server->stop();
            server.reset();
        }
        uint64_t t0 = clock_ns();
        auto created = net::NetServer::create(options::ServeSpec{},
                                              pipeline_config(shape, seed));
        if (!created.is_ok()) {
            fprintf(stderr, "perfbench: server create: %s\n",
                    created.status().to_string().c_str());
            s.failed = 1;
            return s;
        }
        server = std::move(created).take();
        Status started = server->start();
        if (!started.is_ok() || !connect_all(server->port(), clients)) {
            fprintf(stderr, "perfbench: server start: %s\n",
                    started.to_string().c_str());
            s.failed = 1;
            return s;
        }
        s.setup_samples.push_back(static_cast<double>(clock_ns() - t0) /
                                  1e9);
    }

    std::vector<SpanBuffer*> span_buffers(kConns, nullptr);
    if (traced) {
        for (auto& b : span_buffers) b = log->buffer(1u << 18);
        metrics::reset();
        metrics::enable();
        trace::start();
    }
    Schedule sched;
    sched.start_ns = clock_ns() + 1'000'000;
    sched.measure_from =
        sched.start_ns + static_cast<uint64_t>(shape.warmup_s * 1e9);
    sched.measure_to = sched.measure_from + static_cast<uint64_t>(seconds * 1e9);
    sched.drain_until = sched.measure_to + 10'000'000'000ull;

    std::vector<ClientStats> stats(kConns);
    std::vector<std::unique_ptr<LoadConn>> conns;
    for (size_t c = 0; c < kConns; ++c) {
        conns.push_back(std::make_unique<LoadConn>(
            clients[c], shape, traffic[c], c, sched, span_buffers[c],
            stats[c]));
    }
    uint64_t gen_cpu_ns = 0;
    std::thread generator([&] {
        std::vector<LoadConn*> all;
        for (auto& c : conns) all.push_back(c.get());
        gen_cpu_ns = drive(all, sched);
    });
    auto sleep_until = [](uint64_t t) {
        uint64_t now = clock_ns();
        if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
    };
    sleep_until(sched.measure_from);
    s.w0 = take_window();
    sleep_until(sched.measure_to);
    s.w1 = take_window();
    generator.join();
    if (traced) {
        trace::stop();
        metrics::disable();
    }
    clients.clear();
    server->stop();
    s.stats = server->stats();
    server.reset();

    s.window_s = static_cast<double>(sched.measure_to - sched.measure_from) / 1e9;
    s.generator_cpu_us = static_cast<double>(gen_cpu_ns) / 1e3;
    for (size_t c = 0; c < kConns; ++c) {
        const ClientStats& st = stats[c];
        if (st.hard_failure) {
            fprintf(stderr, "perfbench: connection %zu: %s\n", c,
                    st.error.c_str());
        }
        s.sent += st.sent;
        s.failed += st.mismatched + st.unexpected + st.unanswered +
                    (st.hard_failure ? 1 : 0);
        for (size_t k = 0; k < kSlices; ++k) {
            s.slice_answers[k] += st.answers[k];
            s.slice_latency[k].merge(st.latency[k]);
            s.latency.merge(st.latency[k]);
        }
        s.lateness.merge(st.lateness);
        s.client_ns += st.client_ns;
    }
    s.failed += ledger_failures(s);
    printf("%s session: sent %llu, %.0f frames/s, p50 %.1f us, p95 %.1f us "
           "(%llu samples), %.3f server cpu-us/frame, steal %.1f %%, "
           "failed %llu\n",
           shape.name.c_str(), static_cast<unsigned long long>(s.sent),
           s.throughput(), s.latency_us(0.5), s.latency_us(0.95),
           static_cast<unsigned long long>(s.latency.count()),
           s.server_cpu_us_per_frame(), 100 * s.steal_share(),
           static_cast<unsigned long long>(s.failed));
    return s;
}

// ---------------------------------------------------------------------------
// Registry helpers: deltas of a histogram over the window.

metrics::HistogramSnapshot
hist_delta(const Window& a, const Window& b, metrics::Histogram h)
{
    metrics::HistogramSnapshot d;
    const auto& x = a.registry.histogram(h);
    const auto& y = b.registry.histogram(h);
    d.count = y.count - x.count;
    d.sum = y.sum - x.sum;
    for (size_t i = 0; i < metrics::kNumBuckets; ++i) {
        d.buckets[i] = y.buckets[i] - x.buckets[i];
    }
    return d;
}

/** Percentile of a power-of-two histogram, interpolated in-bucket. */
double
hist_percentile(const metrics::HistogramSnapshot& h, double q)
{
    if (h.count == 0) return 0;
    double rank = q * static_cast<double>(h.count);
    double seen = 0;
    for (size_t i = 0; i < metrics::kNumBuckets; ++i) {
        double c = static_cast<double>(h.buckets[i]);
        if (c == 0) continue;
        if (seen + c >= rank) {
            double lo = static_cast<double>(metrics::bucket_lower_bound(i));
            double hi = i == 0 ? 1 : 2 * std::max(lo, 1.0);
            return lo + (rank - seen) / c * (hi - lo);
        }
        seen += c;
    }
    return 0;
}

// ---------------------------------------------------------------------------
// Outside-in layer probes over the shape's own frames.

/** Repeats @p pass until @p budget_s has elapsed (at least 3 times);
 *  returns the median of the per-item ns it reports. */
template <typename Pass>
double
median_of_passes(double budget_s, Pass&& pass)
{
    std::vector<double> samples;
    uint64_t end = clock_ns() + static_cast<uint64_t>(budget_s * 1e9);
    while (samples.size() < 3 || clock_ns() < end) samples.push_back(pass());
    return median(samples);
}

double
probe_decode(const Shape& shape, const Traffic& t, SpanBuffer* spans,
             uint64_t parent, RunResult& result)
{
    // The byte stream the server reads, in recv-sized chunks: one
    // connection's window of frames in flight.
    constexpr size_t kFrames = 2 * kPacketPool;
    std::vector<uint8_t> wire;
    for (size_t i = 0; i < kFrames; ++i) {
        net::Frame f;
        f.flow = t.flows[i % kFlowSeq];
        f.payload.assign(t.packets[i % kPacketPool].begin(),
                         t.packets[i % kPacketPool].end());
        net::encode_frame(f, wire);
    }
    size_t frame_bytes = net::encoded_frame_size(conc::kPipeWireBytes);
    size_t chunk = frame_bytes * shape.inflight;
    uint64_t bad = 0;
    double ns = median_of_passes(0.3, [&] {
        ScopedSpan span(spans, "net.decode", parent);
        net::FrameDecoder decoder;
        size_t frames = 0;
        uint64_t t0 = clock_ns();
        for (size_t off = 0; off < wire.size(); off += chunk) {
            size_t n = std::min(chunk, wire.size() - off);
            auto room = decoder.tail(n);
            if (!room.is_ok()) break;
            std::memcpy(room.value().data(), wire.data() + off, n);
            decoder.commit(n);
            while (true) {
                auto v = decoder.next_view();
                if (!v.is_ok() || !v.value().has_value()) break;
                frames += v.value()->payload.size() == conc::kPipeWireBytes;
            }
        }
        uint64_t t1 = clock_ns();
        if (frames != kFrames) ++bad;
        return static_cast<double>(t1 - t0) / static_cast<double>(kFrames);
    });
    result.fail(bad);
    return ns;
}

double
probe_encode(const Traffic& t, SpanBuffer* spans, uint64_t parent)
{
    std::vector<uint8_t> slab(kPacketPool * net::encoded_frame_size(kAnswerMax));
    return median_of_passes(0.2, [&] {
        ScopedSpan span(spans, "net.encode", parent);
        size_t off = 0;
        uint64_t t0 = clock_ns();
        for (size_t i = 0; i < kPacketPool; ++i) {
            const Answer& a = t.answers[i];
            size_t n = net::encoded_frame_size(a.len);
            net::encode_frame_into(a.type, t.flows[i], 0,
                                   std::span<const uint8_t>(a.bytes.data(), a.len),
                                   std::span<uint8_t>(slab.data() + off, n));
            off += n;
        }
        uint64_t t1 = clock_ns();
        return static_cast<double>(t1 - t0) / static_cast<double>(kPacketPool);
    });
}

struct EngineProbe {
    double mean_ns = 0;
    double p50_ns = 0;
    double batch_fill = 0;
    double depth_high_water = 0;
    double shard_share_max = 0;
};

/**
 * The shape's packets pushed through PipelineEngine::try_submit ->
 * sink_channel().recv() with the server's config and no sockets,
 * stamped through PipePacket::ingress_ns, grouped per shard the way
 * the server groups a read.
 */
EngineProbe
probe_engine(const Shape& shape, const std::vector<Traffic>& traffic,
             uint64_t seed, double seconds, SpanBuffer* spans, uint64_t parent,
             RunResult& result)
{
    EngineProbe probe;
    conc::PipelineConfig config = pipeline_config(shape, seed);
    config.forward_drops = true;  // as the server runs it
    auto created = conc::PipelineEngine::create(config);
    if (!created.is_ok()) {
        result.fail(1);
        return probe;
    }
    std::unique_ptr<conc::PipelineEngine> engine = std::move(created).take();

    // Exact shard shares of the generated flows.
    std::vector<uint64_t> per_shard(engine->shard_count(), 0);
    for (size_t c = 0; c < kConns; ++c) {
        for (uint16_t f : traffic[c].flows) {
            per_shard[engine->shard_for(flow_word(c, f))] += 1;
        }
    }
    probe.shard_share_max =
        static_cast<double>(*std::max_element(per_shard.begin(), per_shard.end())) /
        static_cast<double>(kConns * kFlowSeq);

    engine->start();
    std::atomic<uint64_t> inflight{0};
    std::atomic<uint64_t> bad{0};
    LatencyHistogram latency;
    uint64_t submitted = 0, received = 0;
    std::thread sink([&] {
        auto& ch = engine->sink_channel();
        while (true) {
            auto got = ch.recv();
            if (!got.is_ok()) break;
            uint64_t now = clock_ns();
            for (const conc::PipePacket& p : got.value().packets) {
                latency.record(now - p.ingress_ns);
                if (spans != nullptr && p.flow_seq % kSpanSample == 0) {
                    spans->close(spans->open(), "concurrency.engine", parent,
                                 p.flow_seq, p.ingress_ns, now);
                }
                size_t conn = (p.flow >> 16) - 1;
                const Answer& want =
                    traffic[conn].answers[p.flow_seq % kPacketPool];
                if (p.bucket != want.bucket ||
                    std::memcmp(p.wire.data(), want.bytes.data(),
                                conc::kPipeWireBytes) != 0) {
                    bad.fetch_add(1, std::memory_order_relaxed);
                }
                ++received;
            }
            inflight.fetch_sub(got.value().packets.size(),
                               std::memory_order_release);
            conc::recycle_packet_vec(std::move(got.value().packets));
        }
    });

    std::vector<conc::PipeBatch> groups(engine->shard_count());
    auto submit = [&](size_t shard) {
        conc::PipeBatch& g = groups[shard];
        if (g.packets.empty()) return;
        size_t n = g.packets.size();
        while (true) {
            Status st = engine->try_submit(shard, std::move(g));
            if (st.is_ok()) break;
            if (st.code() != StatusCode::kUnavailable) {
                bad.fetch_add(n, std::memory_order_relaxed);
                conc::recycle_packet_vec(std::move(g.packets));
                break;
            }
            std::this_thread::yield();
        }
        g = conc::PipeBatch{};
    };
    uint64_t end = clock_ns() + static_cast<uint64_t>(seconds * 1e9);
    // Frames sent so far per connection: each read carries the next
    // frames of that connection's own packet and flow sequence.
    std::array<uint64_t, kConns> sent{};
    size_t reads = 0;
    while (clock_ns() < end) {
        if (inflight.load(std::memory_order_acquire) + shape.inflight >
            kConns * shape.inflight) {
            std::this_thread::yield();
            continue;
        }
        // One "read": a connection's window of frames, grouped per
        // shard, then every non-empty group submitted.
        size_t conn = reads++ % kConns;
        const Traffic& t = traffic[conn];
        for (size_t k = 0; k < shape.inflight; ++k) {
            uint64_t i = sent[conn]++;
            uint32_t flow = flow_word(conn, t.flows[i % kFlowSeq]);
            size_t shard = engine->shard_for(flow);
            conc::PipeBatch& g = groups[shard];
            if (g.packets.capacity() == 0) {
                g.packets = conc::acquire_packet_vec(config.batch_packets);
            }
            g.packets.emplace_back();
            conc::PipePacket& p = g.packets.back();
            p.wire = t.packets[i % kPacketPool];
            p.flow = flow;
            p.flow_seq = i;
            p.ingress_ns = clock_ns();
        }
        inflight.fetch_add(shape.inflight, std::memory_order_acq_rel);
        submitted += shape.inflight;
        for (size_t shard = 0; shard < groups.size(); ++shard) submit(shard);
    }
    engine->close_input();
    sink.join();
    engine->finish();
    conc::PipelineReport report;
    engine->fill_stage_reports(report);
    if (received != submitted) bad.fetch_add(submitted - received);
    bad.fetch_add(engine->fault_dropped() + engine->shed() + engine->dropped());
    result.attempted += submitted;
    result.fail(bad.load());

    probe.mean_ns = latency.mean_ns();
    probe.p50_ns = latency.percentile_ns(0.5);
    const conc::PipelineStageReport& first = report.stages[0];
    probe.batch_fill = first.batches != 0
                           ? static_cast<double>(first.packets) /
                                 static_cast<double>(first.batches)
                           : 0;
    size_t depth = report.sink_depth_high_water;
    for (const auto& st : report.stages) depth = std::max(depth, st.depth_high_water);
    probe.depth_high_water = static_cast<double>(depth);
    return probe;
}

/** Legacy stage functions per packet, stage by stage over the pool. */
void
probe_legacy_stages(const Traffic& t, SpanBuffer* spans, uint64_t parent,
                    RunResult& result)
{
    static const char* kSpanNames[] = {"interop.stage.validate",
                                       "interop.stage.dec-ttl",
                                       "interop.stage.checksum",
                                       "interop.stage.classify"};
    std::vector<std::vector<double>> ns(interop::kStageCount);
    uint64_t bad = 0;
    auto wires = t.packets;
    std::vector<uint8_t> keep(kPacketPool);
    std::vector<int64_t> bucket(kPacketPool, conc::kPipeDropBucket);
    uint64_t end = clock_ns() + 300'000'000;
    for (int pass = 0; pass < 3 || clock_ns() < end; ++pass) {
        wires = t.packets;
        size_t kept = 0;
        for (size_t s = 0; s < interop::kStageCount; ++s) {
            ScopedSpan span(spans, kSpanNames[s], parent);
            uint64_t t0 = clock_ns();
            for (size_t i = 0; i < kPacketPool; ++i) {
                switch (s) {
                  case interop::kValidate:
                    keep[i] = interop::legacy_validate(wires[i]) != 0;
                    kept += keep[i];
                    break;
                  case interop::kDecrementTtl:
                    if (keep[i]) interop::legacy_decrement_ttl(wires[i]);
                    break;
                  case interop::kChecksum:
                    if (keep[i]) interop::legacy_checksum(wires[i]);
                    break;
                  default:
                    if (keep[i]) bucket[i] = interop::legacy_classify(wires[i]);
                    break;
                }
            }
            uint64_t t1 = clock_ns();
            size_t n = s == interop::kValidate ? kPacketPool : kept;
            ns[s].push_back(static_cast<double>(t1 - t0) /
                            static_cast<double>(std::max<size_t>(n, 1)));
        }
        for (size_t i = 0; i < kPacketPool; ++i) {
            if (bucket[i] != t.answers[i].bucket ||
                std::memcmp(wires[i].data(), t.answers[i].bytes.data(),
                            conc::kPipeWireBytes) != 0) {
                ++bad;
            }
        }
    }
    result.fail(bad);
    for (size_t s = 0; s < interop::kStageCount; ++s) {
        result.add(std::string("interop.stage_ns.") + interop::stage_name(s),
                   median(ns[s]), "ns");
    }
}

/** Vm::call of each migrated stage function per packet. */
void
probe_migrated_stages(const Traffic& t, SpanBuffer* spans, uint64_t parent,
                      RunResult& result)
{
    static const char* kSpanNames[] = {"interop.migrated.validate",
                                       "interop.migrated.dec-ttl",
                                       "interop.migrated.checksum",
                                       "interop.migrated.classify"};
    auto built = vm::build_program(interop::migrated_stage_source());
    if (!built.is_ok()) {
        result.fail(1);
        return;
    }
    conc::PipelineConfig config;  // the VM config stage workers use
    auto vm = built.value()->instantiate(config.vm);
    auto* region = dynamic_cast<mem::RegionHeap*>(&vm->heap());
    std::vector<std::array<int64_t, interop::kFieldCount>> fields(kPacketPool);
    std::vector<uint8_t> keep(kPacketPool);
    std::vector<std::vector<double>> ns(interop::kStageCount);
    uint64_t bad = 0;
    uint64_t end = clock_ns() + 300'000'000;
    for (int pass = 0; pass < 3 || clock_ns() < end; ++pass) {
        for (size_t i = 0; i < kPacketPool; ++i) {
            if (!interop::unmarshal_record(interop::packet_codec(), t.packets[i],
                                           fields[i])
                     .is_ok()) {
                ++bad;
            }
        }
        size_t kept = 0;
        for (size_t s = 0; s < interop::kStageCount; ++s) {
            const std::string fn = interop::migrated_stage_function(s);
            ScopedSpan span(spans, kSpanNames[s], parent);
            uint64_t t0 = clock_ns();
            size_t calls = 0;
            for (size_t i = 0; i < kPacketPool; ++i) {
                if (s != interop::kValidate && !keep[i]) continue;
                auto r = vm->call_with_buffer(fn, fields[i]);
                if (region != nullptr) region->reset_region();
                ++calls;
                if (!r.is_ok()) {
                    ++bad;
                    continue;
                }
                if (s == interop::kValidate) {
                    keep[i] = r.value() != 0;
                    kept += keep[i];
                } else if (s == interop::kClassify &&
                           r.value() != t.answers[i].bucket) {
                    ++bad;
                }
            }
            uint64_t t1 = clock_ns();
            ns[s].push_back(static_cast<double>(t1 - t0) /
                            static_cast<double>(std::max<size_t>(calls, 1)));
        }
        for (size_t i = 0; i < kPacketPool; ++i) {
            std::array<uint8_t, conc::kPipeWireBytes> wire = t.packets[i];
            if (keep[i] &&
                (!interop::marshal_record(interop::packet_codec(), fields[i], wire)
                      .is_ok() ||
                 std::memcmp(wire.data(), t.answers[i].bytes.data(),
                             conc::kPipeWireBytes) != 0)) {
                ++bad;
            }
        }
    }
    result.fail(bad);
    for (size_t s = 0; s < interop::kStageCount; ++s) {
        result.add(std::string("interop.migrated_stage_ns.") +
                       interop::stage_name(s),
                   median(ns[s]), "ns");
    }
}

/** What the end-to-end metrics need from one session.  Sessions are
 *  reduced to this as they end, so the process's peak RSS is the
 *  server's, not a pile of finished sessions' histograms. */
struct SessionFigures {
    double steal_share = 0;
    double cpu_us_per_frame = 0;
    std::vector<double> rates, p50, p95;  ///< Per slice.
    std::vector<double> setups;
};

SessionFigures
figures(const Session& s)
{
    SessionFigures f;
    f.steal_share = s.steal_share();
    f.cpu_us_per_frame = s.server_cpu_us_per_frame();
    for (size_t k = 0; k < kSlices; ++k) {
        f.rates.push_back(static_cast<double>(s.slice_answers[k]) * kSlices /
                          s.window_s);
        f.p50.push_back(s.slice_latency[k].percentile_ns(0.50) / 1e3);
        f.p95.push_back(s.slice_latency[k].percentile_ns(0.95) / 1e3);
    }
    f.setups = s.setup_samples;
    return f;
}

/**
 * The end-to-end metrics over several sessions (fresh server, threads
 * and connections each): medians over every slice of every session,
 * so neither one stall nor one unlucky thread placement moves them.
 */
void
add_e2e_metrics(const std::vector<SessionFigures>& sessions, RunResult& result)
{
    std::vector<double> rates, p50, p95, setups, cpu;
    for (const SessionFigures& f : sessions) {
        cpu.push_back(f.cpu_us_per_frame);
        rates.insert(rates.end(), f.rates.begin(), f.rates.end());
        p50.insert(p50.end(), f.p50.begin(), f.p50.end());
        p95.insert(p95.end(), f.p95.begin(), f.p95.end());
        setups.insert(setups.end(), f.setups.begin(), f.setups.end());
    }
    result.add("throughput_per_s", median(rates), "1/s");
    result.add("latency_p50_us", median(p50), "us");
    result.add("latency_p95_us", median(p95), "us");
    result.add("cpu_us_per_op", median(cpu), "us");
    result.add("setup_s", median(setups), "s");
}

}  // namespace

bool
is_edge_workload(const std::string& workload)
{
    return workload == "edge-cpu" || workload == "edge-skew";
}

/**
 * The run measures shape.sessions sessions.  A session during which the
 * host stole more than kStealMax of the guest's CPU time is repeated,
 * until shape.sessions sessions are clean or the repeats have measured
 * half of --seconds more; the metrics then come from the shape.sessions
 * least-stolen sessions.  Steal phases on a shared host last minutes
 * and cut the edge's throughput by up to 5x, more than any change a
 * program makes.  Every frame of every session is checked, repeated
 * ones too.
 */
void
edge_e2e(const Args& args, RunResult& result)
{
    constexpr double kStealMax = 0.02;
    Shape shape = shape_for(args.workload);
    std::vector<Traffic> traffic = make_traffic(shape, args.seed);
    std::vector<SessionFigures> sessions;
    int clean = 0;
    while (static_cast<int>(sessions.size()) < shape.sessions ||
           (clean < shape.sessions &&
            static_cast<int>(sessions.size()) < shape.sessions * 3 / 2)) {
        Session s = run_session(shape, traffic, args.seed,
                                static_cast<double>(args.seconds) /
                                    shape.sessions,
                                kSetups, false, nullptr);
        result.attempted += s.sent;
        result.fail(s.failed);
        if (s.sent == 0) result.fail(1);
        sessions.push_back(figures(s));
        clean += sessions.back().steal_share <= kStealMax ? 1 : 0;
    }
    std::stable_sort(sessions.begin(), sessions.end(),
                     [](const SessionFigures& a, const SessionFigures& b) {
                         return a.steal_share < b.steal_share;
                     });
    sessions.resize(static_cast<size_t>(shape.sessions));
    printf("%s: %zu sessions kept, %d of them with steal <= %.0f %%\n",
           shape.name.c_str(), sessions.size(), std::min(clean, shape.sessions),
           100 * kStealMax);
    add_e2e_metrics(sessions, result);
}

void
edge_layers(const Args& args, RunResult& result, SpanLog& log)
{
    Shape shape = shape_for(args.workload);
    std::vector<Traffic> traffic = make_traffic(shape, args.seed);
    double half = std::max(1.0, args.seconds / 2.0);

    // The same shape paced open loop, far below capacity: the latency
    // of a frame that finds the pipeline idle, and how late the
    // generator ran (a check on the run, not a program metric).
    Session open = run_session(open_loop_shape(shape), traffic, args.seed,
                               2.0, 1, false, nullptr);
    result.attempted += open.sent;
    result.fail(open.failed);
    if (open.sent == 0) result.fail(1);
    result.add("gen.late_p99_us", open.lateness.percentile_ns(0.99) / 1e3, "us");
    result.add("gen.open_loop_p50_us", open.latency_us(0.5), "us");
    result.add("gen.open_loop_p95_us", open.latency_us(0.95), "us");

    // Untraced then traced session of the same traffic: the difference
    // is the tracing overhead.  Host, allocation and pool counts come
    // from the untraced one; registry readings from the traced one.
    set_alloc_counting(true);
    Session plain = run_session(shape, traffic, args.seed, half, 1, false,
                                nullptr);
    set_alloc_counting(false);
    Session traced = run_session(shape, traffic, args.seed, half, 1, true, &log);
    result.attempted += plain.sent + traced.sent;
    result.fail(plain.failed + traced.failed);
    if (plain.sent == 0 || traced.sent == 0) result.fail(1);

    double frames = static_cast<double>(std::max<uint64_t>(plain.window_answers(), 1));
    result.add("trace.overhead_throughput_per_s",
               plain.throughput() - traced.throughput(), "1/s");
    result.add("trace.overhead_latency_p50_us",
               traced.latency_us(0.5) - plain.latency_us(0.5), "us");
    result.add("host.cpu_us_per_frame", plain.server_cpu_us_per_frame(), "us");
    result.add("host.ctx_switches_per_frame",
               static_cast<double>(plain.w1.usage.ctx_switches -
                                   plain.w0.usage.ctx_switches) / frames,
               "count");
    result.add("net.allocs_per_frame",
               static_cast<double>(plain.w1.allocs - plain.w0.allocs) / frames,
               "count");
    result.add("net.pool_misses",
               static_cast<double>(plain.w1.pool.misses - plain.w0.pool.misses),
               "count");

    double traced_frames =
        static_cast<double>(std::max<uint64_t>(traced.window_answers(), 1));
    auto writev = hist_delta(traced.w0, traced.w1,
                             metrics::Histogram::kNetWritevFramesPerCall);
    result.add("net.frames_per_writev",
               writev.count != 0 ? static_cast<double>(writev.sum) /
                                       static_cast<double>(writev.count)
                                 : 0,
               "count");
    result.add("net.server_latency_p50_us",
               hist_percentile(hist_delta(traced.w0, traced.w1,
                                          metrics::Histogram::kNetFrameLatencyNs),
                               0.5) / 1e3,
               "us");
    result.add("concurrency.channel_blocked_ns_per_pkt",
               static_cast<double>(
                   hist_delta(traced.w0, traced.w1,
                              metrics::Histogram::kChanBlockedNs).sum) /
                   traced_frames,
               "ns");
    result.add("concurrency.batch_ns_p50",
               hist_percentile(hist_delta(traced.w0, traced.w1,
                                          metrics::Histogram::kPipeBatchNs),
                               0.5),
               "ns");

    // Layer probes, each a span under one probe root.
    SpanBuffer* spans = log.buffer(1u << 18);
    ScopedSpan root(spans, "probe.edge", 0);
    double decode_ns = probe_decode(shape, traffic[0], spans, root.id(), result);
    double encode_ns = probe_encode(traffic[0], spans, root.id());
    EngineProbe engine =
        probe_engine(shape, traffic, args.seed, 1.0, spans, root.id(), result);
    probe_legacy_stages(traffic[0], spans, root.id(), result);
    probe_migrated_stages(traffic[0], spans, root.id(), result);

    result.add("net.decode_ns", decode_ns, "ns");
    result.add("net.encode_ns", encode_ns, "ns");
    double client_per_frame =
        traced.client_ns / static_cast<double>(std::max<uint64_t>(traced.sent, 1));
    result.add("net.residual_ns",
               traced.latency.mean_ns() - client_per_frame - decode_ns -
                   engine.mean_ns,
               "ns");
    result.add("concurrency.engine_ns", engine.mean_ns, "ns");
    result.add("concurrency.engine_p50_us", engine.p50_ns / 1e3, "us");
    result.add("concurrency.batch_fill", engine.batch_fill, "count");
    result.add("concurrency.depth_high_water", engine.depth_high_water, "count");
    result.add("concurrency.shard_share_max", engine.shard_share_max, "count");
}

}  // namespace perfbench
