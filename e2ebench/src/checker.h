// The benchmark's own output checker, written apart from the program's
// verifier and objective code. It re-derives every edge's metadata bytes
// from the MATs' write sets, checks a deployment's placements, stage
// packing, dependency order and routes against the live network, and
// recomputes A_max; for the traffic engine it checks packet counts and
// flow completion times against closed-form bounds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/deployment.h"
#include "net/network.h"
#include "sim/flowsim.h"
#include "tdg/tdg.h"

namespace e2e {

namespace core = hermes::core;
namespace net = hermes::net;
namespace sim = hermes::sim;
namespace tdg = hermes::tdg;

// A(a,b) recomputed from the MATs (metadata fields only, deduplicated by
// name): match/successor carry a's writes, action carries a's and b's,
// reverse-match carries nothing.
[[nodiscard]] std::int64_t edge_bytes(const tdg::Tdg& t, const tdg::Edge& e);

// Metadata bytes per ordered switch pair, from recomputed edge bytes.
[[nodiscard]] std::vector<std::pair<std::pair<std::size_t, std::size_t>, std::int64_t>>
pair_bytes(const tdg::Tdg& t, const core::Deployment& d);

// Every fault found in `d` (empty = clean). `reported_amax` is the A_max the
// program reported for `d`; it must equal the recomputed maximum.
[[nodiscard]] std::vector<std::string> check_deployment(const tdg::Tdg& t,
                                                        const net::Network& net,
                                                        const core::Deployment& d,
                                                        std::int64_t reported_amax);

// Throws CheckFailure naming the first fault.
void require_clean(const tdg::Tdg& t, const net::Network& net,
                   const core::Deployment& d, std::int64_t reported_amax,
                   const std::string& context);

// Packets a flow needs: ceil(payload / (mtu - base header - overhead)).
[[nodiscard]] std::int64_t expected_packets(const sim::FlowSpec& spec);

// Closed-form completion time of a flow alone on its hops at
// `bandwidth_gbps`: store-and-forward of a back-to-back train whose last
// packet may be short. No schedule can finish earlier.
[[nodiscard]] double fct_bound_us(const sim::FlowSpec& spec,
                                  const std::vector<sim::HopSpec>& hops,
                                  double bandwidth_gbps);

// Fault in one flow's result, or "" when it is right: packet count exact,
// FCT at or above the bound, and equal to it when `alone`.
[[nodiscard]] std::string check_flow(const sim::FlowSpec& spec,
                                     const std::vector<sim::HopSpec>& hops,
                                     double bandwidth_gbps,
                                     const sim::FlowResult& result, bool alone);

// Plants each fault the checker exists to catch into a known-good case and
// throws CheckFailure unless every one is rejected (and the clean case
// passes).
void self_test();

}  // namespace e2e
