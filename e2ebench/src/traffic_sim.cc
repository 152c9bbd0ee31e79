// traffic-sim: set-up deploys a fixed program set on the largest Table III
// WAN; the timed passes simulate a fixed flow set over that deployment's
// routes with sim::Engine at one thread, each flow carrying its switch
// pair's metadata bytes as per-packet overhead. The set mixes flows that
// contend on shared routes, paced trains on shared routes, and flows on
// private routes.
#include <algorithm>
#include <cstring>
#include <iostream>

#include "checker.h"
#include "core/hermes.h"
#include "inputs.h"
#include "net/topozoo.h"
#include "obs/obs.h"
#include "prog/parser.h"
#include "sim/engine.h"
#include "workloads.h"

namespace e2e {

namespace {

namespace obs = hermes::obs;

constexpr std::uint64_t kWorkloadSeed = 0x51a7'f10e;
constexpr int kPrograms = 12;
constexpr double kBandwidthGbps = 100.0;
// The first kContendedRoutes routes carry bursts of flows that start
// within kBurstUs of each other and queue on shared links (the event
// path); the others carry paced trains, one flow at a time. Every route
// also gets flows on private copies of its links (always alone). The set
// is sized so that one pass (about 30 ms) works mostly within a core's own
// caches: a set four times as large took 5.7x as long per pass, bound on
// the L3 and DRAM that the host's other tenants share, and its timings
// followed their load.
constexpr std::size_t kContendedRoutes = 5;
constexpr int kContendedPerRoute = 1000;
constexpr double kBurstUs = 500.0;
constexpr int kPacedPerRoute = 3000;
constexpr int kPrivatePerRoute = 750;
constexpr std::size_t kThreadCheckFlows = 20000;

enum class Kind : std::uint8_t { kContended, kPaced, kPrivate };

struct Flow {
    std::size_t route = 0;  // index into Inputs::paths
    Kind kind = Kind::kContended;
    sim::FlowSpec spec;
    double start_us = 0.0;
};

struct Inputs {
    hermes::net::Network net;
    std::int64_t amax = 0;
    std::vector<hermes::net::Path> paths;                 // deployment routes
    std::vector<std::vector<sim::HopSpec>> hops;          // per route, own derivation
    std::vector<Flow> flows;
};

int largest_wan() {
    int best = 1;
    for (int id = 2; id <= hermes::net::kTopologyCount; ++id) {
        const auto s = hermes::net::table3_shape(id);
        const auto b = hermes::net::table3_shape(best);
        if (s.nodes > b.nodes || (s.nodes == b.nodes && s.edges > b.edges)) best = id;
    }
    return best;
}

Inputs make_inputs() {
    Inputs in;
    in.net = hermes::net::table3_topology(largest_wan());
    std::vector<hermes::prog::Program> programs;
    for (const std::string& text : program_texts("svc", kWorkloadSeed, kPrograms)) {
        programs.push_back(hermes::prog::try_parse_program(text).value());
    }
    const tdg::Tdg t = hermes::core::analyze(programs);
    hermes::core::HermesOptions o;
    o.threads = 1;
    const auto outcome = hermes::core::try_deploy_greedy(t, in.net, o);
    if (!outcome.ok()) {
        throw ProgramError("set-up deployment failed: " + outcome.status().to_string());
    }
    const core::Deployment& d = outcome.value().deployment;
    in.amax = outcome.value().metrics.max_pair_metadata_bytes;
    require_clean(t, in.net, d, in.amax, "traffic-sim deployment");

    Rng rng(kWorkloadSeed ^ 0xf10e);
    for (const auto& [pair, bytes] : pair_bytes(t, d)) {
        const auto route = d.routes.find(pair);
        if (route == d.routes.end()) continue;  // relayed through other routes
        const std::size_t r = in.paths.size();
        in.paths.push_back(route->second);
        std::vector<sim::HopSpec> hops;
        const auto& sw = route->second.switches;
        for (std::size_t i = 1; i < sw.size(); ++i) {
            hops.push_back({*in.net.link_latency(sw[i - 1], sw[i]),
                            in.net.props(sw[i]).latency_us});
        }
        in.hops.push_back(hops);
        auto spec = [&] {
            sim::FlowSpec s;
            s.payload_bytes_total = rng.range(1500, 48000);
            s.overhead_bytes = static_cast<int>(bytes);
            return s;
        };
        if (r < kContendedRoutes) {
            for (int i = 0; i < kContendedPerRoute; ++i) {
                in.flows.push_back({r, Kind::kContended, spec(), rng.real(0.0, kBurstUs)});
            }
        } else {
            // Paced trains: one flow at a time, spaced past the largest
            // flow's bound so no two overlap on this route.
            std::vector<Flow> paced;
            double gap = 0.0;
            for (int i = 0; i < kPacedPerRoute; ++i) {
                paced.push_back({r, Kind::kPaced, spec(), 0.0});
                gap = std::max(gap, fct_bound_us(paced.back().spec, hops, kBandwidthGbps));
            }
            for (std::size_t i = 0; i < paced.size(); ++i) {
                paced[i].start_us = 1.25 * gap * static_cast<double>(i);
                in.flows.push_back(paced[i]);
            }
        }
        for (int i = 0; i < kPrivatePerRoute; ++i) {
            in.flows.push_back({r, Kind::kPrivate, spec(), rng.real(0.0, 50.0)});
        }
    }
    expect(!in.flows.empty(), "deployment has no inter-switch routes");
    return in;
}

struct PassResult {
    std::vector<double> fct;
    std::vector<std::int64_t> packets;
    sim::EngineStats stats;
    double build_s = 0.0;
    double run_s = 0.0;
    double total_s = 0.0;
};

// Builds an engine over `flows` (all, or those of one kind), runs it, and
// reads every result.
PassResult simulate(const Inputs& in, const std::vector<std::size_t>& flows, int threads,
                    obs::Sink* sink) {
    PassResult out;
    const double t0 = now_s();
    sim::EngineConfig config;
    config.link_bandwidth_gbps = kBandwidthGbps;
    config.threads = threads;
    config.sink = sink;
    sim::Engine engine(config);
    sim::PathInterner interner;
    std::vector<sim::RouteId> shared(in.paths.size());
    for (std::size_t r = 0; r < in.paths.size(); ++r) {
        shared[r] = interner.add_path(engine, in.net, in.paths[r]);
    }
    std::vector<sim::FlowId> ids;
    ids.reserve(flows.size());
    for (const std::size_t f : flows) {
        const Flow& flow = in.flows[f];
        const sim::RouteId route =
            flow.kind == Kind::kPrivate
                ? engine.add_route(hermes::sim::hops_from_path(in.net, in.paths[flow.route]))
                : shared[flow.route];
        ids.push_back(engine.add_flow(flow.spec, route, flow.start_us));
    }
    const double t1 = now_s();
    engine.run();
    const double t2 = now_s();
    out.fct.reserve(ids.size());
    out.packets.reserve(ids.size());
    for (const sim::FlowId id : ids) {
        const sim::FlowResult r = engine.result(id);
        out.fct.push_back(r.fct_us);
        out.packets.push_back(r.packets);
    }
    out.total_s = now_s() - t0;
    out.build_s = t1 - t0;
    out.run_s = t2 - t1;
    out.stats = engine.stats();
    return out;
}

std::vector<std::size_t> select(const Inputs& in, bool contended_only) {
    std::vector<std::size_t> out;
    for (std::size_t f = 0; f < in.flows.size(); ++f) {
        if (!contended_only || in.flows[f].kind == Kind::kContended) out.push_back(f);
    }
    return out;
}

void check_pass(const Inputs& in, const std::vector<std::size_t>& flows, const PassResult& r) {
    for (std::size_t i = 0; i < flows.size(); ++i) {
        const Flow& flow = in.flows[flows[i]];
        sim::FlowResult result;
        result.packets = r.packets[i];
        result.fct_us = r.fct[i];
        const std::string fault = check_flow(flow.spec, in.hops[flow.route], kBandwidthGbps,
                                             result, flow.kind == Kind::kPrivate);
        expect(fault.empty(), "flow " + std::to_string(flows[i]) + ": " + fault);
    }
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// FCTs of a flow subset, bit-identical at one and two sim threads.
void check_thread_counts(const Inputs& in) {
    std::vector<std::size_t> subset;
    for (std::size_t f = 0; f < in.flows.size() && subset.size() < kThreadCheckFlows; ++f) {
        if (in.flows[f].kind != Kind::kPrivate) subset.push_back(f);
    }
    const PassResult one = simulate(in, subset, 1, nullptr);
    const PassResult two = simulate(in, subset, 2, nullptr);
    expect(same_bits(one.fct, two.fct), "FCTs differ between 1 and 2 sim threads");
}

// Set-up: the deployment, the flow set, and one warm-up pass over each flow
// selection, checked flow by flow.
struct Prepared {
    Inputs in;
    std::vector<std::size_t> all;
    std::vector<std::size_t> contended;
    PassResult warm;
    PassResult warm_contended;
};

Prepared prepare() {
    Prepared p;
    p.in = make_inputs();
    p.all = select(p.in, false);
    p.contended = select(p.in, true);
    p.warm = simulate(p.in, p.all, 1, nullptr);
    check_pass(p.in, p.all, p.warm);
    p.warm_contended = simulate(p.in, p.contended, 1, nullptr);
    check_pass(p.in, p.contended, p.warm_contended);
    return p;
}

}  // namespace

double traffic_sim_setup(const RunOptions& /*options*/) {
    (void)prepare();
    return now_s() - process_start_s();
}

void run_traffic_sim(const RunOptions& options, Report& report) {
    const Prepared prepared = prepare();
    const Inputs& in = prepared.in;
    const std::vector<std::size_t>& all = prepared.all;
    const std::vector<std::size_t>& contended = prepared.contended;
    const PassResult& warm = prepared.warm;
    const PassResult& warm_contended = prepared.warm_contended;
    report.work["sim.flows"] = static_cast<std::int64_t>(all.size());
    report.work["sim.events"] = warm.stats.events;
    report.work["sim.fastpath_flows"] = warm.stats.fastpath_flows;
    report.work["sim.contended_events"] = warm_contended.stats.events;

    const double setup_s = now_s() - process_start_s();
    const CpuRotation cpus;
    SpeedReference speed;
    std::vector<double> full_ms, heavy_ms;
    const double start = now_s();
    for (std::size_t pass = 0; full_ms.empty() || now_s() - start < options.seconds; ++pass) {
        (void)cpus.pin(pass);
        const PassResult p = simulate(in, all, 1, nullptr);
        const PassResult c = simulate(in, contended, 1, nullptr);
        expect(same_bits(p.fct, warm.fct) && same_bits(c.fct, warm_contended.fct),
               "a timed pass produced other FCTs than the checked pass");
        expect(p.stats.events == warm.stats.events, "a timed pass did other work");
        full_ms.push_back(p.total_s * 1e3);
        heavy_ms.push_back(c.total_s * 1e3);
        report.attempted += 2;
        speed.sample();
    }
    cpus.unpin();
    check_thread_counts(in);

    // The passes' best decile, converted to the reference core's speed.
    const double scale = speed.scale();
    const double op_ms = best_time(full_ms) * scale;
    report.set("setup_s", setup_s, "s");
    report.set("peak_rss_mb", self_peak_rss_mb(), "MB");
    report.set("op_ms", op_ms, "ms");
    report.set("heavy_ms", best_time(heavy_ms) * scale, "ms");
    report.set("rate_per_s", static_cast<double>(all.size()) / (op_ms / 1e3), "1/s");
    report.set("amax_bytes", static_cast<double>(in.amax), "B");
    std::cout << "info: traffic-sim passes=" << full_ms.size() << " median_ms=" << median(full_ms)
              << " best_ms=" << best_time(full_ms) << " heavy_best_ms=" << best_time(heavy_ms)
              << " reference_ms=" << speed.best_ms()
              << " flows=" << all.size() << " routes=" << in.paths.size()
              << " events=" << warm.stats.events << " fastpath=" << warm.stats.fastpath_flows
              << "\n";
}

void trace_traffic_sim(const RunOptions& /*options*/, Report& report) {
    const Inputs in = make_inputs();
    const std::vector<std::size_t> all = select(in, false);
    const PassResult plain = simulate(in, all, 1, nullptr);
    obs::Sink sink;
    const PassResult traced = simulate(in, all, 1, &sink);
    report.attempted += 2;
    expect(same_bits(plain.fct, traced.fct), "traced pass produced other FCTs");
    check_pass(in, all, traced);
    const double flows = static_cast<double>(all.size());
    report.set("sim.build_ms", traced.build_s * 1e3, "ms");
    report.set("sim.run_s", traced.run_s, "s");
    report.set("sim.events", static_cast<double>(traced.stats.events), "count");
    report.set("sim.events_per_flow", static_cast<double>(traced.stats.events) / flows, "count");
    report.set("sim.fastpath_rate", static_cast<double>(traced.stats.fastpath_flows) / flows,
               "ratio");
    report.set("sim.window_syncs", static_cast<double>(traced.stats.window_syncs), "count");
    report.set("sim.fct_p50_us", quantile(traced.fct, 0.5), "us");
    report.set("sim.fct_p99_us", quantile(traced.fct, 0.99), "us");
    report.work["sim.events"] = traced.stats.events;
    report.work["sim.fastpath_flows"] = traced.stats.fastpath_flows;
    report.set("obs.overhead_pct.sim", (traced.total_s - plain.total_s) / plain.total_s * 100.0,
               "%");
}

}  // namespace e2e
