/**
 * @file
 * The toolchain layer probes of the traced run: a fixed BitC program
 * set built phase by phase (parse -> resolve -> typecheck -> verify ->
 * compile) and every entry run in unboxed+region and
 * boxed+generational mode (threaded dispatch, bounds-check
 * elimination on), single threaded and network-free, every result
 * checked against its native C++ oracle.
 *
 * Programs that are built but not run (the examples and the
 * wrapping-BCE probe) only feed the build phases.  The seed picks the
 * value arguments (sort seed, queue burst, search key), never the
 * amount of work.
 */
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>

#include "kernels.hpp"
#include "lang/parser.hpp"
#include "lang/resolver.hpp"
#include "memory/region_heap.hpp"
#include "support/diagnostics.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "test_programs.hpp"
#include "vm/pipeline.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace bitc;

// The unsound-BCE repro from the roadmap: verified as safe, but the
// VM wraps the int8 sum and the elided bounds check lets it read out
// of bounds.  Built and verified, never run.
constexpr const char* kProbeSource = R"bitc(
(define (probe a : (array int64 200) k : int8) : int64
  (require (>= k 0))
  (let ((i (+ k 100))) (assert (>= i 0)) (array-ref a i)))
(define (main) : int64 (probe (array-make 200 7) 100))
)bitc";

constexpr const char* kExamples[] = {"bounded_buffer", "fib",
                                     "saturating_add"};

// Work sizes are fixed; only value arguments come from the seed.
constexpr int64_t kChecksumRounds = 4;
constexpr int64_t kSieveLimit = 16384;
constexpr int64_t kHashOps = 1000;
constexpr int64_t kMatmulN = 16;
constexpr int64_t kQueueSteps = 4000;

struct Mode {
    const char* name;
    vm::ValueMode mode;
    vm::HeapPolicy heap;
};
constexpr Mode kModes[] = {
    {"unboxed", vm::ValueMode::kUnboxed, vm::HeapPolicy::kRegion},
    {"boxed", vm::ValueMode::kBoxed, vm::HeapPolicy::kGenerational},
};

vm::VmConfig
vm_config(const Mode& m)
{
    vm::VmConfig config;
    config.mode = m.mode;
    config.heap = m.heap;
    config.dispatch = vm::DispatchMode::kThreaded;
    return config;
}

/** bitcc's defaults: verify, and elide the checks it proved. */
vm::BuildOptions
build_options()
{
    vm::BuildOptions options;
    options.compiler.elide_proved_checks = true;
    return options;
}

struct Entry {
    std::string label;
    std::string function;
    std::vector<int64_t> args;
    int64_t expected = 0;
};

/** One program of the set; no entries means build-only. */
struct Program {
    std::string label;
    std::string source;
    std::vector<Entry> entries;
};

/** A program built at set-up, with one VM (and heap) per mode. */
struct Prepared {
    std::unique_ptr<vm::BuiltProgram> built;
    std::vector<std::unique_ptr<vm::Vm>> vms;  ///< Parallel to kModes.
};

struct ProgramSet {
    std::vector<Program> programs;
    std::vector<Prepared> prepared;
};

bool
read_file(const std::string& path, std::string& out)
{
    std::ifstream in(path);
    if (!in) return false;
    std::ostringstream text;
    text << in.rdbuf();
    out = text.str();
    return true;
}

/** Loads the program set and computes every oracle.  Paths are
 *  relative to the checkout root (the working directory). */
bool
load_programs(uint64_t seed, std::vector<Program>& programs)
{
    namespace tp = vm::testprog;
    Rng rng(seed ^ 0x746f6f6c636861ull);
    programs.push_back(
        {"kernels", bench::kernel_source(),
         {{"checksum", "checksum", {kChecksumRounds},
           bench::native_checksum(kChecksumRounds)},
          {"sieve", "sieve", {kSieveLimit}, bench::native_sieve(kSieveLimit)},
          {"hash-churn", "hash-churn", {kHashOps},
           bench::native_hash_churn(kHashOps)}}});
    int64_t sort_seed = static_cast<int64_t>(1 + rng.next_below(1u << 30));
    programs.push_back({"quicksort", tp::kQuicksort,
                        {{"quicksort", "sort-main", {sort_seed},
                          tp::native_sort_checksum(sort_seed)}}});
    programs.push_back({"matmul", tp::kMatMul,
                        {{"matmul", "matmul-main", {kMatmulN},
                          tp::native_matmul_checksum(kMatmulN)}}});
    int64_t burst = static_cast<int64_t>(1 + rng.next_below(16));
    programs.push_back({"queue-sim", tp::kQueueSim,
                        {{"queue-sim", "sim", {kQueueSteps, burst},
                          tp::native_sim(kQueueSteps, burst)}}});
    int64_t key = static_cast<int64_t>(rng.next_below(3 * 128));
    programs.push_back({"bsearch", tp::kBinarySearch,
                        {{"bsearch", "bsearch-main", {key},
                          tp::native_bsearch(key)}}});
    for (const char* name : kExamples) {
        std::string text;
        std::string path = std::string("examples/bitc/") + name + ".bitc";
        if (!read_file(path, text)) {
            fprintf(stderr, "perfbench: cannot read %s\n", path.c_str());
            return false;
        }
        programs.push_back({name, std::move(text), {}});
    }
    programs.push_back({"bce-probe", kProbeSource, {}});
    return true;
}

/** One call of @p entry on @p vm, region heaps reset afterwards as
 *  the pipeline's stage workers do.  Returns true when it matched. */
bool
call_entry(vm::Vm& vm, const Entry& entry, const Mode& mode)
{
    auto got = vm.call(entry.function, entry.args);
    if (mode.heap == vm::HeapPolicy::kRegion) {
        static_cast<mem::RegionHeap&>(vm.heap()).reset_region();
    }
    if (got.is_ok() && got.value() == entry.expected) return true;
    fprintf(stderr, "perfbench: %s (%s) gave %s, oracle %lld\n",
            entry.label.c_str(), mode.name,
            got.is_ok() ? std::to_string(got.value()).c_str()
                        : got.status().to_string().c_str(),
            static_cast<long long>(entry.expected));
    return false;
}

/** Set-up: load sources and oracles, build every program once and
 *  create its VMs and heaps.  False when anything fails. */
bool
prepare(uint64_t seed, ProgramSet& set)
{
    set = ProgramSet{};
    if (!load_programs(seed, set.programs)) return false;
    for (const Program& program : set.programs) {
        auto built = vm::build_program(program.source, build_options());
        if (!built.is_ok()) return false;
        Prepared p;
        p.built = std::move(built).take();
        if (!program.entries.empty()) {
            for (const Mode& mode : kModes) {
                p.vms.push_back(p.built->instantiate(vm_config(mode)));
            }
        }
        set.prepared.push_back(std::move(p));
    }
    return true;
}

/** Build phases, each timed around its public entry point, summed
 *  over the program set; the median of several passes. */
void
build_phase_metrics(const ProgramSet& set, SpanBuffer* spans,
                    RunResult& result)
{
    constexpr int kPasses = 9;
    constexpr size_t kPhases = 5;
    static const char* kSpanNames[kPhases] = {
        "lang.parse", "lang.resolve", "types.check", "verify.verify",
        "vm.compile"};
    static const char* kMetricNames[kPhases] = {
        "lang.parse_us", "lang.resolve_us", "types.check_us",
        "verify.verify_us", "vm.compile_us"};
    std::vector<std::vector<double>> phase_us(kPhases);
    uint64_t obligations = 0, proved = 0;
    for (int pass = 0; pass < kPasses; ++pass) {
        double sums[kPhases] = {};
        for (size_t i = 0; i < set.programs.size(); ++i) {
            ScopedSpan build(spans, "toolchain.build", 0, i);
            DiagnosticEngine diags;
            uint64_t t[kPhases + 1];
            t[0] = clock_ns();
            auto parsed = lang::parse_program(set.programs[i].source, diags);
            t[1] = clock_ns();
            Status resolved = parsed.is_ok()
                                  ? lang::resolve_program(parsed.value(), diags)
                                  : parsed.status();
            t[2] = clock_ns();
            if (!resolved.is_ok()) {
                result.fail(1);
                continue;
            }
            auto typed =
                types::check_program(std::move(parsed).take(), diags);
            t[3] = clock_ns();
            if (!typed.is_ok()) {
                result.fail(1);
                continue;
            }
            verify::VerifyReport report =
                verify::verify_program(typed.value(), build_options().solver);
            t[4] = clock_ns();
            vm::CompilerOptions copts = build_options().compiler;
            copts.proofs = &report;
            auto code = vm::compile_program(typed.value(), copts);
            t[5] = clock_ns();
            if (!code.is_ok()) {
                result.fail(1);
                continue;
            }
            for (size_t p = 0; p < kPhases; ++p) {
                if (spans != nullptr) {
                    spans->close(spans->open(), kSpanNames[p], build.id(), i,
                                 t[p], t[p + 1]);
                }
                sums[p] += static_cast<double>(t[p + 1] - t[p]) / 1e3;
            }
            if (pass == 0) {
                obligations += report.total();
                proved += report.proved();
            }
        }
        for (size_t p = 0; p < kPhases; ++p) phase_us[p].push_back(sums[p]);
    }
    for (size_t p = 0; p < kPhases; ++p) {
        result.add(kMetricNames[p], median(phase_us[p]), "us");
    }
    result.add("verify.obligations_total", static_cast<double>(obligations),
               "count");
    result.add("verify.obligations_proved", static_cast<double>(proved),
               "count");
}

/** Entries whose boxed run collects on a fresh default heap; only
 *  they report a GC pause time. */
bool
collects(const std::string& label)
{
    return label == "checksum" || label == "sieve";
}

/**
 * Per entry and mode: the median call time on the set-up VM.  Counts
 * come from one extra call on a fresh VM (vm::run_built's RunReport),
 * so they are exact and independent of what the warm heap did before:
 * instructions, and in boxed mode allocations, collections and the
 * GC pause time the registry recorded.
 */
void
run_metrics(ProgramSet& set, SpanBuffer* spans, RunResult& result)
{
    constexpr int kReps = 9;
    for (size_t i = 0; i < set.programs.size(); ++i) {
        const vm::BuiltProgram& built = *set.prepared[i].built;
        for (const Entry& entry : set.programs[i].entries) {
            for (size_t m = 0; m < std::size(kModes); ++m) {
                const Mode& mode = kModes[m];
                vm::Vm& vm = *set.prepared[i].vms[m];
                std::vector<double> ns;
                for (int rep = 0; rep < kReps; ++rep) {
                    ScopedSpan span(spans, "vm.run", 0, i);
                    uint64_t t0 = clock_ns();
                    bool ok = call_entry(vm, entry, mode);
                    ns.push_back(static_cast<double>(clock_ns() - t0));
                    result.attempted += 1;
                    if (!ok) result.fail(1);
                }
                result.add("vm.run_ns." + entry.label + "." + mode.name,
                           median(ns), "ns");

                vm::RunReport report;
                metrics::reset();
                metrics::enable();
                auto got = vm::run_built(built, entry.function, entry.args,
                                         vm_config(mode), nullptr, &report);
                metrics::disable();
                result.attempted += 1;
                if (!got.is_ok() || got.value() != entry.expected) {
                    result.fail(1);
                }
                if (mode.mode == vm::ValueMode::kUnboxed) {
                    result.add("vm.instructions." + entry.label,
                               static_cast<double>(report.instructions),
                               "count");
                    continue;
                }
                result.add("memory.allocations." + entry.label,
                           static_cast<double>(report.heap.allocations),
                           "count");
                result.add("memory.gc_collections." + entry.label,
                           static_cast<double>(report.heap.collections +
                                               report.heap.minor_collections),
                           "count");
                if (collects(entry.label)) {
                    result.add(
                        "memory.gc_pause_ns." + entry.label,
                        static_cast<double>(
                            metrics::snapshot()
                                .histogram(metrics::Histogram::kGcPauseNs)
                                .sum),
                        "ns");
                }
            }
        }
    }
}

}  // namespace

void
toolchain_layers(const Args& args, RunResult& result, SpanLog& log)
{
    ProgramSet set;
    if (!prepare(args.seed, set)) {
        result.fail(1);
        return;
    }
    SpanBuffer* spans = log.buffer(1u << 16);
    build_phase_metrics(set, spans, result);
    run_metrics(set, spans, result);
}

}  // namespace perfbench
