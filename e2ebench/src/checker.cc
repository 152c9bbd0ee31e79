#include "checker.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>

#include "common.h"
#include "tdg/analyzer.h"
#include "tdg/mat.h"

namespace e2e {

namespace {

// Distinct metadata fields of a MAT's write set, by name.
void add_metadata(const tdg::Mat& m, std::map<std::string, int>& fields) {
    for (const tdg::Action& a : m.actions()) {
        for (const tdg::Field& f : a.writes) {
            if (f.kind == tdg::FieldKind::kMetadata) fields.emplace(f.name, f.size_bytes);
        }
    }
}

// True when `to` is reachable from `from` over the deployment's routes
// (metadata may be relayed through an intermediate occupied switch).
bool route_chain(const core::Deployment& d, std::size_t from, std::size_t to) {
    std::set<std::size_t> seen{from};
    std::vector<std::size_t> stack{from};
    while (!stack.empty()) {
        const std::size_t x = stack.back();
        stack.pop_back();
        if (x == to) return true;
        for (const auto& [pair, path] : d.routes) {
            if (pair.first == x && seen.insert(pair.second).second) {
                stack.push_back(pair.second);
            }
        }
    }
    return false;
}

// Cycle in the cross-switch precedence graph (DFS colouring).
bool precedence_cycle(const std::set<std::pair<std::size_t, std::size_t>>& arcs) {
    std::map<std::size_t, std::vector<std::size_t>> out;
    for (const auto& [u, v] : arcs) out[u].push_back(v);
    std::map<std::size_t, int> colour;  // 0 new, 1 on stack, 2 done
    std::function<bool(std::size_t)> visit = [&](std::size_t u) {
        colour[u] = 1;
        for (const std::size_t v : out[u]) {
            if (colour[v] == 1) return true;
            if (colour[v] == 0 && visit(v)) return true;
        }
        colour[u] = 2;
        return false;
    };
    for (const auto& [u, succ] : out) {
        if (colour[u] == 0 && visit(u)) return true;
    }
    return false;
}

}  // namespace

std::int64_t edge_bytes(const tdg::Tdg& t, const tdg::Edge& e) {
    std::map<std::string, int> fields;
    switch (e.type) {
        case tdg::DepType::kReverseMatch:
            return 0;
        case tdg::DepType::kAction:
            add_metadata(t.node(e.to), fields);
            [[fallthrough]];
        case tdg::DepType::kMatch:
        case tdg::DepType::kSuccessor:
            add_metadata(t.node(e.from), fields);
            break;
    }
    std::int64_t bytes = 0;
    for (const auto& [name, size] : fields) bytes += size;
    return bytes;
}

std::vector<std::pair<std::pair<std::size_t, std::size_t>, std::int64_t>> pair_bytes(
    const tdg::Tdg& t, const core::Deployment& d) {
    std::map<std::pair<std::size_t, std::size_t>, std::int64_t> sums;
    for (const tdg::Edge& e : t.edges()) {
        const std::size_t u = d.placements[e.from].sw;
        const std::size_t v = d.placements[e.to].sw;
        if (u != v) sums[{u, v}] += edge_bytes(t, e);
    }
    return {sums.begin(), sums.end()};
}

std::vector<std::string> check_deployment(const tdg::Tdg& t, const net::Network& net,
                                          const core::Deployment& d,
                                          std::int64_t reported_amax) {
    std::vector<std::string> faults;
    if (d.placements.size() != t.node_count()) {
        faults.push_back("placement count " + std::to_string(d.placements.size()) +
                         " != node count " + std::to_string(t.node_count()));
        return faults;
    }
    std::map<std::pair<std::size_t, int>, double> load;
    for (std::size_t a = 0; a < d.placements.size(); ++a) {
        const core::Placement& p = d.placements[a];
        if (p.sw >= net.switch_count()) {
            faults.push_back("node " + std::to_string(a) + " on unknown switch");
            continue;
        }
        if (!net.props(p.sw).programmable) {
            faults.push_back("node " + std::to_string(a) + " on non-programmable switch " +
                             std::to_string(p.sw));
        }
        if (!net.switch_up(p.sw)) {
            faults.push_back("node " + std::to_string(a) + " on failed switch " +
                             std::to_string(p.sw));
        }
        if (p.stage < 0 || p.stage >= net.props(p.sw).stages) {
            faults.push_back("node " + std::to_string(a) + " on stage " +
                             std::to_string(p.stage) + " outside the pipeline");
        }
        load[{p.sw, p.stage}] += t.node(a).resource_units();
    }
    if (!faults.empty()) return faults;
    for (const auto& [key, used] : load) {
        if (used > net.props(key.first).stage_capacity + 1e-9) {
            faults.push_back("stage " + std::to_string(key.second) + " of switch " +
                             std::to_string(key.first) + " over capacity (" +
                             std::to_string(used) + ")");
        }
    }
    std::set<std::pair<std::size_t, std::size_t>> arcs;
    for (const tdg::Edge& e : t.edges()) {
        if (edge_bytes(t, e) != e.metadata_bytes) {
            faults.push_back("edge " + std::to_string(e.from) + "->" + std::to_string(e.to) +
                             " annotated " + std::to_string(e.metadata_bytes) +
                             " B, recomputed " + std::to_string(edge_bytes(t, e)) + " B");
        }
        const core::Placement& a = d.placements[e.from];
        const core::Placement& b = d.placements[e.to];
        if (a.sw == b.sw) {
            if (a.stage >= b.stage) {
                faults.push_back("dependency " + std::to_string(e.from) + "->" +
                                 std::to_string(e.to) + " placed backwards on switch " +
                                 std::to_string(a.sw));
            }
            continue;
        }
        arcs.insert({a.sw, b.sw});
        if (!route_chain(d, a.sw, b.sw)) {
            faults.push_back("dependency " + std::to_string(e.from) + "->" +
                             std::to_string(e.to) + " has no route from switch " +
                             std::to_string(a.sw) + " to " + std::to_string(b.sw));
        }
    }
    if (precedence_cycle(arcs)) faults.push_back("switch precedence is cyclic");
    for (const auto& [pair, path] : d.routes) {
        const auto& hops = path.switches;
        if (hops.empty() || hops.front() != pair.first || hops.back() != pair.second) {
            faults.push_back("route " + std::to_string(pair.first) + "->" +
                             std::to_string(pair.second) + " has wrong endpoints");
            continue;
        }
        std::set<std::size_t> visited(hops.begin(), hops.end());
        if (visited.size() != hops.size()) {
            faults.push_back("route " + std::to_string(pair.first) + "->" +
                             std::to_string(pair.second) + " loops");
        }
        for (std::size_t i = 1; i < hops.size(); ++i) {
            if (!net.link_up(hops[i - 1], hops[i])) {
                faults.push_back("route " + std::to_string(pair.first) + "->" +
                                 std::to_string(pair.second) + " crosses dead link " +
                                 std::to_string(hops[i - 1]) + "-" +
                                 std::to_string(hops[i]));
            }
        }
    }
    std::int64_t amax = 0;
    for (const auto& [pair, bytes] : pair_bytes(t, d)) amax = std::max(amax, bytes);
    if (amax != reported_amax) {
        faults.push_back("A_max reported " + std::to_string(reported_amax) +
                         " B, recomputed " + std::to_string(amax) + " B");
    }
    return faults;
}

void require_clean(const tdg::Tdg& t, const net::Network& net, const core::Deployment& d,
                   std::int64_t reported_amax, const std::string& context) {
    const std::vector<std::string> faults = check_deployment(t, net, d, reported_amax);
    expect(faults.empty(), context + ": " + (faults.empty() ? "" : faults.front()));
}

std::int64_t expected_packets(const sim::FlowSpec& spec) {
    const std::int64_t room = spec.mtu_bytes - spec.base_header_bytes - spec.overhead_bytes;
    return (spec.payload_bytes_total + room - 1) / room;
}

double fct_bound_us(const sim::FlowSpec& spec, const std::vector<sim::HopSpec>& hops,
                    double bandwidth_gbps) {
    const std::int64_t packets = expected_packets(spec);
    if (packets == 0 || hops.empty()) return 0.0;
    const std::int64_t room = spec.mtu_bytes - spec.base_header_bytes - spec.overhead_bytes;
    const std::int64_t header = spec.base_header_bytes + spec.overhead_bytes;
    const std::int64_t full_wire = room + header;
    const std::int64_t last_wire = spec.payload_bytes_total - (packets - 1) * room + header;
    auto tx = [&](std::int64_t bytes) {
        return static_cast<double>(bytes) * 8.0 / (bandwidth_gbps * 1e3);
    };
    double delay = 0.0;
    for (const sim::HopSpec& h : hops) delay += h.propagation_us + h.switch_latency_us;
    const auto later_hops = static_cast<double>(hops.size() - 1);
    // The train leaves the first hop after all its bytes; each further hop
    // adds one transmission of the largest packet (the last packet queues
    // behind the full packet ahead of it).
    const std::int64_t largest = packets == 1 ? last_wire : full_wire;
    return static_cast<double>(packets - 1) * tx(full_wire) + tx(last_wire) +
           later_hops * tx(largest) + delay;
}

std::string check_flow(const sim::FlowSpec& spec, const std::vector<sim::HopSpec>& hops,
                       double bandwidth_gbps, const sim::FlowResult& result, bool alone) {
    const std::int64_t packets = expected_packets(spec);
    if (result.packets != packets) {
        return "packets " + std::to_string(result.packets) + " != " +
               std::to_string(packets);
    }
    const double bound = fct_bound_us(spec, hops, bandwidth_gbps);
    const double slack = 1e-9 * bound + 1e-6;
    if (result.fct_us < bound - slack) {
        return "FCT " + std::to_string(result.fct_us) + " us below its bound " +
               std::to_string(bound) + " us";
    }
    if (alone && result.fct_us > bound + slack) {
        return "lone flow FCT " + std::to_string(result.fct_us) + " us != bound " +
               std::to_string(bound) + " us";
    }
    return "";
}

namespace {

struct Fixture {
    tdg::Tdg t;
    net::Network net;
    core::Deployment d;
    std::int64_t amax = 0;
};

// Line 0-1-2-3 (switch 3 not programmable), four one-unit stages each;
// a -> b -> c metadata chain plus an unrelated heavy MAT h.
Fixture good_fixture() {
    Fixture f;
    for (int i = 0; i < 4; ++i) {
        net::SwitchProps props;
        props.name = "s" + std::to_string(i);
        props.programmable = i != 3;
        props.stages = 4;
        props.stage_capacity = 1.0;
        f.net.add_switch(props);
    }
    for (std::size_t i = 0; i + 1 < 4; ++i) f.net.add_link(i, i + 1, 5.0);
    const auto meta = [](const char* name, int bytes) {
        return tdg::Field{name, tdg::FieldKind::kMetadata, bytes};
    };
    const auto key = tdg::Field{"hdr.key", tdg::FieldKind::kHeader, 4};
    f.t.add_node(tdg::Mat("a", {key}, {tdg::Action{"wa", {meta("meta.x", 4)}}}, 16, 0.4));
    f.t.add_node(
        tdg::Mat("b", {meta("meta.x", 4)}, {tdg::Action{"wb", {meta("meta.y", 6)}}}, 16, 0.4));
    f.t.add_node(tdg::Mat("c", {meta("meta.y", 6)}, {tdg::Action{"wc", {}}}, 16, 0.4));
    f.t.add_node(tdg::Mat("h", {key}, {tdg::Action{"wh", {}}}, 16, 0.7));
    f.t.add_edge(0, 1, tdg::DepType::kMatch);
    f.t.add_edge(1, 2, tdg::DepType::kMatch);
    tdg::analyze(f.t);
    f.d.placements = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
    f.d.routes[{0, 1}] = net::Path{{0, 1}, 0.0};
    f.amax = 6;  // b -> c carries meta.y across (0, 1)
    return f;
}

void expect_rejected(const Fixture& f, std::int64_t amax, const std::string& keyword,
                     const std::string& fault) {
    const std::vector<std::string> faults = check_deployment(f.t, f.net, f.d, amax);
    bool named = false;
    for (const std::string& s : faults) named = named || s.find(keyword) != std::string::npos;
    expect(named, "checker self-test: planted fault not rejected: " + fault);
}

}  // namespace

void self_test() {
    const Fixture good = good_fixture();
    const std::vector<std::string> clean = check_deployment(good.t, good.net, good.d, good.amax);
    expect(clean.empty(),
           "checker self-test: clean deployment rejected: " + (clean.empty() ? "" : clean[0]));

    Fixture f = good_fixture();  // c on the non-programmable switch 3
    f.d.placements[2] = {3, 0};
    f.d.routes.clear();
    f.d.routes[{0, 3}] = net::Path{{0, 1, 2, 3}, 0.0};
    expect_rejected(f, good.amax, "non-programmable", "MAT on a non-programmable switch");

    f = good_fixture();  // h joins a in stage 0 of switch 0: 0.4 + 0.7 > 1
    f.d.placements[3] = {0, 0};
    expect_rejected(f, good.amax, "over capacity", "stage over capacity");

    f = good_fixture();  // b before a on switch 0
    f.d.placements[0] = {0, 1};
    f.d.placements[1] = {0, 0};
    expect_rejected(f, good.amax, "backwards", "dependency placed backwards");

    f = good_fixture();  // the only route crosses a link that went down
    (void)f.net.fail_link(0, 1);
    expect_rejected(f, good.amax, "dead link", "route over a dead link");

    f = good_fixture();
    expect_rejected(f, good.amax + 1, "A_max", "wrong A_max");

    sim::FlowSpec spec;
    spec.payload_bytes_total = 15000;
    spec.overhead_bytes = 10;
    const std::vector<sim::HopSpec> hops = {{5.0, 1.0}, {5.0, 1.0}};
    sim::FlowResult r;
    r.packets = expected_packets(spec);
    r.fct_us = fct_bound_us(spec, hops, 100.0);
    expect(check_flow(spec, hops, 100.0, r, true).empty(),
           "checker self-test: exact lone-flow FCT rejected");
    r.fct_us *= 0.99;
    expect(check_flow(spec, hops, 100.0, r, false).find("below") != std::string::npos,
           "checker self-test: planted fault not rejected: FCT below its bound");
    r.fct_us = fct_bound_us(spec, hops, 100.0);
    r.packets += 1;
    expect(!check_flow(spec, hops, 100.0, r, false).empty(),
           "checker self-test: planted fault not rejected: wrong packet count");
}

}  // namespace e2e
