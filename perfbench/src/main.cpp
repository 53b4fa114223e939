/**
 * @file
 * perfbench — the repository benchmark.
 *
 *   perfbench --workload edge-cpu|edge-skew --seed N
 *             --seconds S --trace 0|1 [--trace-dir DIR]
 *
 * --trace 0 runs the end-to-end measurement with the metrics registry
 * and all tracing off.  --trace 1 runs the per-layer measurement: an
 * open-loop session of the workload's shape, the workload's own
 * traced-vs-untraced sessions (the tracing overhead), then every layer
 * timed from outside through its public functions.
 * Spans are kept in memory and written to DIR at exit.  Every metric
 * is printed by name and unit; the last line is one JSON object.  The
 * exit code is nonzero on any correctness failure.
 */
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

void
usage()
{
    fprintf(stderr,
            "usage: perfbench --workload edge-cpu|edge-skew "
            "--seed N --seconds S --trace 0|1 [--trace-dir DIR]\n");
}

bool
parse_args(int argc, char** argv, Args& args)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string key = argv[i];
        const char* value = argv[i + 1];
        char* end = nullptr;
        if (key == "--workload") {
            args.workload = value;
        } else if (key == "--seed") {
            args.seed = std::strtoull(value, &end, 10);
            if (*end != '\0') return false;
        } else if (key == "--seconds") {
            args.seconds = static_cast<int>(std::strtol(value, &end, 10));
            if (*end != '\0' || args.seconds < 1 || args.seconds > 600) {
                return false;
            }
        } else if (key == "--trace") {
            if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
                return false;
            }
            args.trace = value[0] == '1';
        } else if (key == "--trace-dir") {
            args.trace_dir = value;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && is_edge_workload(args.workload);
}

void
print_table(const SpanLog& log)
{
    printf("%-28s %10s %14s %14s %12s\n", "span", "count", "total_ms",
           "self_ms", "self_ns/span");
    for (const SpanLog::LayerTime& t : log.self_times()) {
        printf("%-28s %10llu %14.3f %14.3f %12.1f\n", t.name.c_str(),
               static_cast<unsigned long long>(t.count), t.total_ns / 1e6,
               t.self_ns / 1e6,
               t.count != 0 ? t.self_ns / static_cast<double>(t.count) : 0);
    }
    printf("spans recorded %llu, dropped %llu\n",
           static_cast<unsigned long long>(log.recorded()),
           static_cast<unsigned long long>(log.dropped()));
}

}  // namespace

int
main(int argc, char** argv)
{
    Args args;
    if (!parse_args(argc, argv, args)) {
        usage();
        return 2;
    }
    setvbuf(stdout, nullptr, _IOLBF, 0);

    RunResult result;
    if (!args.trace) {
        edge_e2e(args, result);
        result.add("peak_rss_mb", peak_rss_mib(), "MiB");
    } else {
        SpanLog log;
        edge_layers(args, result, log);
        toolchain_layers(args, result, log);
        print_table(log);
        if (!args.trace_dir.empty()) {
            mkdir(args.trace_dir.c_str(), 0755);
            std::string path = args.trace_dir + "/" + args.workload +
                               "-seed" + std::to_string(args.seed) +
                               ".spans.tsv";
            if (!log.write(path)) {
                fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
            } else {
                printf("spans written to %s\n", path.c_str());
            }
        }
    }

    for (const Metric& m : result.metrics) {
        printf("  %-44s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    printf("attempted %llu failed %llu correct %s\n",
           static_cast<unsigned long long>(result.attempted),
           static_cast<unsigned long long>(result.failed),
           result.correct ? "yes" : "NO");
    printf("%s\n", result.to_json().c_str());
    return result.correct ? 0 : 1;
}
