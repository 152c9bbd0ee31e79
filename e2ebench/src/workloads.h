// The three workloads. Each run function does one whole run of its
// workload: set-up, timed rounds until `seconds` have been measured (at
// least one), then the output checks, and fills in the end-to-end metrics.
// Each trace function replays its workload once in-process with the obs
// sink attached and fills in that workload's per-layer metrics.
#pragma once

#include <cstdint>
#include <string>

#include "common.h"

namespace e2e {

struct RunOptions {
    std::string workload;
    std::uint64_t seed = 1;  // request ids and file names; see README
    double seconds = 10.0;
    bool trace = false;
    std::string bench_dir;   // the benchmark's own directory (fixed inputs)
    std::string serve_bin;   // hermes_serve
    std::string run_dir;     // this run's scratch directory
};

void run_serve_churn(const RunOptions& options, Report& report);
void run_paper_deploy(const RunOptions& options, Report& report);
void run_traffic_sim(const RunOptions& options, Report& report);

// The workload's set-up alone, in a fresh process: seconds from process
// start to where the first timed operation would begin.
double serve_churn_setup(const RunOptions& options);
double paper_deploy_setup(const RunOptions& options);
double traffic_sim_setup(const RunOptions& options);

void trace_serve_churn(const RunOptions& options, Report& report);
void trace_paper_deploy(const RunOptions& options, Report& report);
void trace_traffic_sim(const RunOptions& options, Report& report);

// Fixed inputs kept as files: the ten library programs the exact instances
// draw from, resources scaled x1.5, written as .prog text into `dir`.
void write_library_inputs(const std::string& dir);

}  // namespace e2e
