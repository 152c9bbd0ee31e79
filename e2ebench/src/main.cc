// e2ebench — the end-to-end benchmark program for Hermes (see ../README.md).
//
//   e2ebench --workload <serve-churn|paper-deploy|traffic-sim> --seed <n>
//            --seconds <s> --trace <0|1> --bench-dir <dir> --serve-bin <path>
//            --run-dir <dir>
//   e2ebench --write-library <dir>     regenerate inputs/library
//   e2ebench --setup-probe 1 ...       run only the workload's set-up and
//                                      print its seconds (used for setup_s)
//
// Prints informational lines, then a `work:` line with the counts that must
// repeat across runs, then the result object as the last stdout line.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>

#include "checker.h"
#include "child.h"
#include "common.h"
#include "workloads.h"

namespace {

int usage() {
    std::cerr << "usage: e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
                 " --bench-dir <dir> --serve-bin <path> --run-dir <dir>\n"
                 "       e2ebench --write-library <dir>\n";
    return 2;
}

// Cold set-ups of the workload in fresh processes, one per CPU in turn:
// with the run's own set-up, these are the samples setup_s takes the best
// decile of (a single cold set-up lands on whichever speed its vCPU has).
constexpr int kSetupProbes = 7;

double probe_setup(const e2e::RunOptions& options) {
    if (options.workload == "serve-churn") return e2e::serve_churn_setup(options);
    if (options.workload == "paper-deploy") return e2e::paper_deploy_setup(options);
    return e2e::traffic_sim_setup(options);
}

void add_setup_probes(const e2e::RunOptions& options, e2e::Report& report) {
    const auto own = report.metrics.find("setup_s");
    if (own == report.metrics.end()) return;  // the workload stopped before its timed phase
    std::vector<double> setups{own->second.first};
    const e2e::CpuRotation cpus;
    for (int k = 0; k < kSetupProbes; ++k) {
        const std::string dir = options.run_dir + "/setup" + std::to_string(k);
        std::filesystem::create_directories(dir);
        (void)cpus.pin(static_cast<std::size_t>(k));
        e2e::Child probe({"/proc/self/exe", "--setup-probe", "1", "--workload",
                          options.workload, "--seed", std::to_string(options.seed),
                          "--bench-dir", options.bench_dir, "--serve-bin", options.serve_bin,
                          "--run-dir", dir},
                         options.run_dir + "/probe.stderr");
        setups.push_back(std::stod(probe.receive()));
        (void)probe.finish();
    }
    cpus.unpin();
    report.set("setup_s", e2e::best_time(setups), "s");
}

}  // namespace

int main(int argc, char** argv) {
    (void)e2e::process_start_s();
    e2e::install_signal_reaper();
    e2e::RunOptions options;
    bool setup_probe = false;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string flag = argv[i];
            if (i + 1 >= argc) return usage();
            const std::string value = argv[++i];
            if (flag == "--write-library") {
                e2e::write_library_inputs(value);
                return 0;
            }
            if (flag == "--workload") options.workload = value;
            else if (flag == "--seed") options.seed = std::stoull(value);
            else if (flag == "--seconds") options.seconds = std::stod(value);
            else if (flag == "--trace") options.trace = value == "1";
            else if (flag == "--bench-dir") options.bench_dir = value;
            else if (flag == "--serve-bin") options.serve_bin = value;
            else if (flag == "--run-dir") options.run_dir = value;
            else if (flag == "--setup-probe") setup_probe = value == "1";
            else return usage();
        }
    } catch (const std::exception&) {
        return usage();
    }
    if (options.workload != "serve-churn" && options.workload != "paper-deploy" &&
        options.workload != "traffic-sim") {
        return usage();
    }
    if (options.bench_dir.empty() || options.serve_bin.empty() || options.run_dir.empty()) {
        return usage();
    }

    if (setup_probe) {
        try {
            std::printf("%.17g\n", probe_setup(options));
            return 0;
        } catch (const std::exception& ex) {
            std::cerr << "error: set-up probe: " << ex.what() << "\n";
            return 1;
        }
    }

    e2e::Report report;
    try {
        const double self_test_start = e2e::now_s();
        e2e::self_test();
        e2e::exclude_from_setup(e2e::now_s() - self_test_start);
        if (options.trace) {
            // The traced run replays every workload once, so each per-layer
            // metric comes from the workload that exercises its layer.
            e2e::trace_serve_churn(options, report);
            e2e::trace_paper_deploy(options, report);
            e2e::trace_traffic_sim(options, report);
        } else if (options.workload == "serve-churn") {
            e2e::run_serve_churn(options, report);
        } else if (options.workload == "paper-deploy") {
            e2e::run_paper_deploy(options, report);
        } else {
            e2e::run_traffic_sim(options, report);
        }
        if (!options.trace) add_setup_probes(options, report);
    } catch (const e2e::CheckFailure& failure) {
        std::cerr << "check failed: " << failure.what() << "\n";
        report.correct = false;
    } catch (const e2e::ProgramError& error) {
        // An operation the workload could not count itself: the run stops
        // there and reports what it measured before.
        std::cerr << "operation failed: " << error.what() << "\n";
        ++report.failed;
    } catch (const std::exception& ex) {
        std::cerr << "error: " << ex.what() << "\n";
        return 1;
    }
    report.attempted = std::max<std::int64_t>({report.attempted, report.failed, 1});
    std::cout << "work: " << report.work_json() << "\n";
    std::cout << report.result_json() << std::endl;
    return 0;
}
