// paper-deploy: the paper's one-shot path in-process, one thread.
//  - Greedy: a 50-program paper-style workload, as program text, goes
//    through try_parse_program -> analyze -> try_deploy_greedy -> verify ->
//    evaluate on each of the ten Table III WANs.
//  - Exact: P#1 on library programs 1-3 (resources x1.5, kept as fixed
//    files) on the 3-switch testbed with 6 and with 5 stages, proved
//    optimal; on both the greedy stays above the optimum.
#include <algorithm>
#include <filesystem>
#include <iostream>
#include <optional>

#include "checker.h"
#include "core/hermes.h"
#include "core/objective.h"
#include "core/verifier.h"
#include "inputs.h"
#include "net/topozoo.h"
#include "prog/library.h"
#include "prog/parser.h"
#include "sim/testbed.h"
#include "spans.h"
#include "workloads.h"

namespace e2e {

namespace {

namespace obs = hermes::obs;

constexpr std::uint64_t kWorkloadSeed = 0xde91'0a7e;
// Ten small programs in the style of the library (3-6 MATs), then forty
// synthetic ones: the paper's 50-program mix (§VI-A).
constexpr int kSmallPrograms = 10;
constexpr int kPrograms = 50;
constexpr int kLibraryFiles = 10;
constexpr int kExactFirst = 1;  // library files [first, last)
constexpr int kExactLast = 4;
constexpr int kExactStages[] = {6, 5};
// Each pass solves the exact set this many times (samples for best_time).
constexpr int kExactRepeats = 3;
constexpr double kExactBudgetSeconds = 60.0;

struct Exact {
    tdg::Tdg t;
    hermes::net::Network testbed;
    std::int64_t greedy_amax = 0;
};

struct Inputs {
    std::vector<std::string> texts;
    std::vector<hermes::net::Network> wans;
    std::vector<Exact> exact;
};

hermes::core::HermesOptions deploy_options(obs::Sink* sink) {
    hermes::core::HermesOptions o;
    o.threads = 1;
    o.sink = sink;
    o.milp.threads = 1;
    o.milp.time_limit_seconds = kExactBudgetSeconds;
    return o;
}

Inputs make_inputs(const RunOptions& options) {
    Inputs in;
    in.texts = program_texts("lib", kWorkloadSeed, kSmallPrograms, 3, 6);
    for (std::string& text : program_texts("app", kWorkloadSeed + 1, kPrograms - kSmallPrograms)) {
        in.texts.push_back(std::move(text));
    }
    for (int id = 1; id <= hermes::net::kTopologyCount; ++id) {
        in.wans.push_back(hermes::net::table3_topology(id));
    }
    std::vector<std::string> files;
    for (const auto& entry :
         std::filesystem::directory_iterator(options.bench_dir + "/inputs/library")) {
        files.push_back(entry.path().string());
    }
    std::sort(files.begin(), files.end());
    expect(files.size() == kLibraryFiles, "inputs/library must hold the ten library programs");
    std::vector<hermes::prog::Program> programs;
    for (int i = kExactFirst; i < kExactLast; ++i) {
        auto p = hermes::prog::try_parse_program(read_file(files[static_cast<std::size_t>(i)]));
        expect(p.ok(), "library input does not parse: " + p.status().to_string());
        programs.push_back(std::move(p).value());
    }
    for (const int stages : kExactStages) {
        hermes::sim::TestbedConfig tb;
        tb.switch_count = 3;
        tb.stages = stages;
        Exact e{hermes::core::analyze(programs), hermes::sim::make_testbed(tb), 0};
        const auto greedy =
            hermes::core::try_deploy_greedy(e.t, e.testbed, deploy_options(nullptr));
        if (!greedy.ok()) {
            throw ProgramError("greedy failed on an exact instance: " +
                               greedy.status().to_string());
        }
        e.greedy_amax = greedy.value().metrics.max_pair_metadata_bytes;
        in.exact.push_back(std::move(e));
    }
    return in;
}

// A_max recorded for an operation the program failed.
constexpr std::int64_t kFailed = -1;

struct Pass {
    std::vector<std::vector<double>> greedy_ms;  // per WAN (one sample, or none if it failed)
    std::vector<std::vector<double>> exact_ms;   // per exact instance, per repeat
    std::vector<std::int64_t> greedy_amax;       // per WAN, kFailed if it failed
    std::vector<std::int64_t> exact_amax;        // per exact instance
    std::int64_t failed = 0;                     // operations the program failed
    // Traced-pass breakdown.
    std::vector<double> parse_ms, analyze_ms, deploy_ms, verify_ms, evaluate_ms;
    std::vector<std::size_t> nodes, edges;
};

// The greedy path on one WAN, timed stage by stage into `pass`; throws
// ProgramError when the program fails it.
void deploy_on(const Inputs& in, const hermes::net::Network& wan, obs::Sink* sink, Pass& pass) {
    const double t0 = now_s();
    std::vector<hermes::prog::Program> programs;
    programs.reserve(in.texts.size());
    for (const std::string& text : in.texts) {
        auto p = hermes::prog::try_parse_program(text);
        if (!p.ok()) {
            throw ProgramError("program text does not parse: " + p.status().to_string());
        }
        programs.push_back(std::move(p).value());
    }
    const double t1 = now_s();
    const tdg::Tdg t = hermes::core::analyze(programs, sink);
    const double t2 = now_s();
    auto outcome = hermes::core::try_deploy_greedy(t, wan, deploy_options(sink));
    const double t3 = now_s();
    if (!outcome.ok()) {
        throw ProgramError("greedy deployment failed: " + outcome.status().to_string());
    }
    hermes::core::VerifyOptions vopts;
    vopts.sink = sink;
    const hermes::core::VerificationReport report =
        hermes::core::verify(t, wan, outcome.value().deployment, vopts);
    const double t4 = now_s();
    const hermes::core::DeploymentMetrics metrics =
        hermes::core::evaluate(t, wan, outcome.value().deployment);
    const double t5 = now_s();
    pass.greedy_ms.back().push_back((t5 - t0) * 1e3);
    pass.parse_ms.push_back((t1 - t0) * 1e3);
    pass.analyze_ms.push_back((t2 - t1) * 1e3);
    pass.deploy_ms.push_back((t3 - t2) * 1e3);
    pass.verify_ms.push_back((t4 - t3) * 1e3);
    pass.evaluate_ms.push_back((t5 - t4) * 1e3);
    pass.nodes.push_back(t.node_count());
    pass.edges.push_back(t.edge_count());
    expect(report.ok, "verifier rejected a greedy deployment");
    expect(metrics.max_pair_metadata_bytes == outcome.value().metrics.max_pair_metadata_bytes,
           "evaluate and deploy disagree on A_max");
    require_clean(t, wan, outcome.value().deployment, metrics.max_pair_metadata_bytes,
                  "greedy deployment");
    pass.greedy_amax.back() = metrics.max_pair_metadata_bytes;
}

// P#1 on one exact instance, proved optimal; returns its A_max and adds
// the solve time to `ms`. Throws ProgramError when the program fails it.
std::int64_t solve_exact(const Exact& e, obs::Sink* sink, std::vector<double>& ms) {
    const double t0 = now_s();
    auto outcome = hermes::core::try_deploy_optimal(e.t, e.testbed, deploy_options(sink));
    const double t1 = now_s();
    if (!outcome.ok()) throw ProgramError("exact solve failed: " + outcome.status().to_string());
    if (!outcome.value().optimal) {
        throw ProgramError("exact solve stopped before proving optimality (" +
                           outcome.value().solver_status + ")");
    }
    const std::int64_t amax = outcome.value().metrics.max_pair_metadata_bytes;
    require_clean(e.t, e.testbed, outcome.value().deployment, amax, "exact deployment");
    expect(amax <= e.greedy_amax, "proven optimum above the greedy A_max");
    ms.push_back((t1 - t0) * 1e3);
    return amax;
}

// One pass over every WAN and `exact_repeats` times over the exact set.
// Checks run outside the timed regions; an operation the program fails is
// counted in Pass::failed and the pass goes on. With `cpus`, each
// operation runs on the next CPU in turn, counted by `op`, and `speed` is
// sampled after each one on its CPU.
Pass run_pass(const Inputs& in, obs::Sink* sink, int exact_repeats,
              const CpuRotation* cpus = nullptr, std::size_t* op = nullptr,
              SpeedReference* speed = nullptr) {
    auto next_cpu = [&] {
        if (cpus == nullptr) return;
        if (*op > 0) speed->sample();
        (void)cpus->pin((*op)++);
    };
    Pass pass;
    for (const hermes::net::Network& wan : in.wans) {
        next_cpu();
        pass.greedy_ms.emplace_back();
        pass.greedy_amax.push_back(kFailed);
        try {
            deploy_on(in, wan, sink, pass);
        } catch (const ProgramError& error) {
            std::cerr << "operation failed: " << error.what() << "\n";
            ++pass.failed;
        }
    }
    pass.exact_ms.resize(in.exact.size());
    pass.exact_amax.assign(in.exact.size(), kFailed);
    for (int r = 0; r < exact_repeats; ++r) {
        for (std::size_t i = 0; i < in.exact.size(); ++i) {
            next_cpu();
            try {
                const std::int64_t amax = solve_exact(in.exact[i], sink, pass.exact_ms[i]);
                expect(pass.exact_amax[i] == kFailed || pass.exact_amax[i] == amax,
                       "repeated exact solves disagree on A_max");
                pass.exact_amax[i] = amax;
            } catch (const ProgramError& error) {
                std::cerr << "operation failed: " << error.what() << "\n";
                ++pass.failed;
            }
        }
    }
    return pass;
}

}  // namespace

void write_library_inputs(const std::string& dir) {
    std::filesystem::create_directories(dir);
    const std::vector<std::string> names = hermes::prog::program_names();
    for (int i = 0; i < kLibraryFiles; ++i) {
        const std::string& name = names[static_cast<std::size_t>(i)];
        const hermes::prog::Program p =
            hermes::prog::make_program(name).with_scaled_resources(1.5);
        write_file(dir + "/" + std::to_string(i) + "_" + name + ".prog",
                   hermes::prog::to_text(p));
    }
}

double paper_deploy_setup(const RunOptions& options) {
    (void)make_inputs(options);
    return now_s() - process_start_s();
}

void run_paper_deploy(const RunOptions& options, Report& report) {
    const Inputs in = make_inputs(options);
    const double setup_s = now_s() - process_start_s();
    const CpuRotation cpus;
    std::size_t op = 0;
    SpeedReference speed;
    std::vector<std::vector<double>> greedy_ms(in.wans.size());  // per WAN
    std::vector<std::vector<double>> exact_ms(in.exact.size());  // per instance
    std::optional<Pass> first;
    const double start = now_s();
    while (!first || now_s() - start < options.seconds) {
        Pass p = run_pass(in, nullptr, kExactRepeats, &cpus, &op, &speed);
        if (!first) first = p;
        expect(p.greedy_amax == first->greedy_amax && p.exact_amax == first->exact_amax,
               "passes disagree on A_max");
        for (std::size_t w = 0; w < in.wans.size(); ++w) {
            const std::vector<double>& ms = p.greedy_ms[w];
            greedy_ms[w].insert(greedy_ms[w].end(), ms.begin(), ms.end());
        }
        for (std::size_t i = 0; i < in.exact.size(); ++i) {
            exact_ms[i].insert(exact_ms[i].end(), p.exact_ms[i].begin(), p.exact_ms[i].end());
        }
        report.attempted +=
            static_cast<std::int64_t>(in.wans.size() + kExactRepeats * in.exact.size());
        report.failed += p.failed;
    }
    cpus.unpin();
    // Read before the counted pass, whose sink buffers every span.
    const double peak_rss_mb = self_peak_rss_mb();
    // One more pass with the sink attached records the run's work: B&B
    // nodes and pivots must repeat exactly.
    obs::Sink sink;
    const Pass counted = run_pass(in, &sink, 1);
    expect(counted.greedy_amax == first->greedy_amax && counted.exact_amax == first->exact_amax,
           "the counted pass placed differently");
    report.work["bb.nodes"] = counter_value(sink, "bb.nodes");
    report.work["bb.lp_iterations"] = counter_value(sink, "bb.lp_iterations");
    report.work["greedy.anchors_tried"] = counter_value(sink, "greedy.anchors_tried");

    // A_max of the operations that did not fail.
    auto sum = [](const std::vector<std::int64_t>& v) {
        std::int64_t total = 0;
        for (const std::int64_t a : v) total += a == kFailed ? 0 : a;
        return total;
    };
    std::int64_t exact_greedy_amax = 0;
    for (const Exact& e : in.exact) exact_greedy_amax += e.greedy_amax;
    const std::int64_t amax = sum(first->greedy_amax) + exact_greedy_amax;
    // Each WAN's and each exact instance's best decile: the mean over WANs,
    // and the sum over the exact set, at the reference core's speed
    // (SpeedReference, sampled between the operations).
    const double scale = speed.scale();
    double greedy_total = 0.0;
    for (const std::vector<double>& ms : greedy_ms) greedy_total += best_time(ms);
    const double op_ms = greedy_total / static_cast<double>(in.wans.size()) * scale;
    double exact_total = 0.0;
    for (const std::vector<double>& ms : exact_ms) exact_total += best_time(ms);
    exact_total *= scale;

    report.set("setup_s", setup_s, "s");
    report.set("peak_rss_mb", peak_rss_mb, "MB");
    report.set("op_ms", op_ms, "ms");
    report.set("heavy_ms", exact_total, "ms");
    report.set("rate_per_s", static_cast<double>(in.texts.size()) / (op_ms / 1e3), "1/s");
    report.set("amax_bytes", static_cast<double>(amax), "B");
    std::cout << "info: paper-deploy passes=" << greedy_ms[0].size() << " wan_ms=";
    for (std::size_t w = 0; w < greedy_ms.size(); ++w) {
        std::cout << (w ? "/" : "") << best_time(greedy_ms[w]);
    }
    std::cout << " exact_solves=" << exact_ms[0].size()
              << " exact_amax_sum=" << sum(first->exact_amax)
              << " exact_greedy_amax_sum=" << exact_greedy_amax
              << " reference_ms=" << speed.best_ms() << "\n";
}

void trace_paper_deploy(const RunOptions& options, Report& report) {
    const Inputs in = make_inputs(options);
    const double p0 = now_s();
    const Pass plain = run_pass(in, nullptr, 1);
    const double p1 = now_s();
    obs::Sink sink;
    const Pass traced = run_pass(in, &sink, 1);
    const double p2 = now_s();
    report.attempted += static_cast<std::int64_t>(2 * (in.wans.size() + in.exact.size()));
    report.failed += plain.failed + traced.failed;
    expect(plain.greedy_amax == traced.greedy_amax && plain.exact_amax == traced.exact_amax,
           "traced pass placed differently");
    const std::vector<obs::TraceEvent> events = sink.events();
    const double wans = static_cast<double>(in.wans.size());
    std::size_t text_bytes = 0;
    for (const std::string& t : in.texts) text_bytes += t.size();

    report.set("prog.parse_ms", median(traced.parse_ms), "ms");
    report.set("prog.text_bytes", static_cast<double>(text_bytes), "B");
    report.set("tdg.analyze_ms", median(traced.analyze_ms), "ms");
    report.set("analyzer.nodes", traced.nodes.empty() ? 0.0 : static_cast<double>(traced.nodes[0]),
               "count");
    report.set("analyzer.edges", traced.edges.empty() ? 0.0 : static_cast<double>(traced.edges[0]),
               "count");
    report.set("greedy.ms", median(traced.deploy_ms), "ms");
    report.set("greedy.split_ms", total_ms(events, "greedy.split") / wans, "ms");
    report.set("greedy.anchor_search_ms", total_ms(events, "greedy.anchor_search") / wans, "ms");
    report.set("greedy.coalesce_ms", total_ms(events, "greedy.coalesce") / wans, "ms");
    for (const char* name :
         {"greedy.anchors_tried", "greedy.segments", "oracle.tree_hits", "oracle.tree_misses"}) {
        report.set(name, static_cast<double>(counter_value(sink, name)), "count");
    }
    report.set("verify_ms", median(traced.verify_ms), "ms");
    report.set("evaluate_ms", median(traced.evaluate_ms), "ms");
    report.set("formulation_ms", median(durations_ms(spans_named(events, "formulation"))), "ms");
    report.set("formulation.variables",
               static_cast<double>(counter_value(sink, "formulation.variables")), "count");
    report.set("formulation.constraints",
               static_cast<double>(counter_value(sink, "formulation.constraints")), "count");
    report.set("milp.solve_ms", median(durations_ms(spans_named(events, "milp.solve"))), "ms");
    for (const char* name : {"bb.nodes", "bb.lp_iterations", "lp.warm_hits", "lp.warm_attempts",
                             "lp.factor_refactorizations"}) {
        report.set(name, static_cast<double>(counter_value(sink, name)), "count");
    }
    report.work["bb.nodes"] = counter_value(sink, "bb.nodes");
    report.work["bb.lp_iterations"] = counter_value(sink, "bb.lp_iterations");
    report.work["greedy.anchors_tried"] = counter_value(sink, "greedy.anchors_tried");
    report.set("obs.overhead_pct.deploy", ((p2 - p1) - (p1 - p0)) / (p1 - p0) * 100.0, "%");
}

}  // namespace e2e
