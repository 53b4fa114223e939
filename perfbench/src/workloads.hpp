/**
 * @file
 * The benchmark's workloads.  Each has an end-to-end run (registry and
 * tracing off) and a traced run that times the layers from outside.
 */
#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <string>

#include "common.hpp"

namespace perfbench {

/** True when @p workload is one of the benchmark's workloads. */
bool is_edge_workload(const std::string& workload);

/** edge-cpu / edge-skew: the end-to-end metrics. */
void edge_e2e(const Args& args, RunResult& result);

/**
 * Traced edge run: an untraced and a traced server session (the
 * tracing overhead), then the outside-in layer probes over the
 * workload's own frames.
 */
void edge_layers(const Args& args, RunResult& result, SpanLog& log);

/**
 * The toolchain layers, timed on a fixed program set: per-phase build
 * times, per-program run times, instruction and heap counts.
 */
void toolchain_layers(const Args& args, RunResult& result, SpanLog& log);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_HPP
