// serve-churn: one closed-loop client drives hermes_serve over a stdio pipe
// on Table III WAN 8 with the batch-durability journal on, through a seeded
// churn of tenant adds/removes, retargets, link failures/recoveries and
// queries. Each round starts a fresh daemon, installs the set-up tenants,
// times the churn request by request, then restarts the daemon on its
// journal and times it up to its first answered query.
#include <algorithm>
#include <deque>
#include <filesystem>
#include <iostream>
#include <sstream>

#include "checker.h"
#include "child.h"
#include "core/engine.h"
#include "core/serve.h"
#include "inputs.h"
#include "net/topozoo.h"
#include "prog/parser.h"
#include "spans.h"
#include "tdg/analyzer.h"
#include "tdg/merge.h"
#include "util/json.h"
#include "workloads.h"

namespace e2e {

namespace {

namespace util = hermes::util;
namespace obs = hermes::obs;

constexpr int kTopology = 8;
constexpr std::uint64_t kWorkloadSeed = 0x5e7e'c4a1;
constexpr int kPool = 32;          // distinct tenant programs
constexpr int kSetupTenants = 6;   // installed before timing starts
constexpr int kMaxTenants = 10;
constexpr int kMinTenants = 3;
constexpr int kMaxOpenFailures = 2;
constexpr int kTimedRequests = 1000;

enum class Op { kAdd, kRemove, kRetarget, kDown, kUp, kQuery };

struct Request {
    Op op = Op::kQuery;
    std::string name;  // tenant (add/remove)
    int pool = -1;     // program (add)
    std::size_t a = 0, b = 0;  // link (down/up)
    // Expected state at a query, from the client's own model.
    std::vector<std::string> programs;
    std::size_t live_links = 0;
    std::size_t nodes = 0;
};

struct Workload {
    std::vector<std::string> texts;       // pool programs, .prog text
    std::vector<std::size_t> mat_counts;  // MATs per pool program
    std::vector<std::string> paths;       // pool program files
    std::vector<Request> setup;
    std::vector<Request> timed;
    std::vector<std::string> setup_lines;
    std::vector<std::string> timed_lines;
};

bool is_mutation(Op op) { return op != Op::kQuery; }

std::size_t count_mats(const std::string& text) {
    std::size_t n = 0;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) n += line.rfind("mat ", 0) == 0 ? 1 : 0;
    return n;
}

// The client's model of the network's link state, kept while the churn is
// made.
class LinkModel {
public:
    explicit LinkModel(const hermes::net::Network& net)
        : links_(net.links()), up_(links_.size(), true), switches_(net.switch_count()) {}

    [[nodiscard]] const std::vector<hermes::net::Link>& links() const { return links_; }
    void set_up(std::size_t i, bool up) { up_[i] = up; }

    [[nodiscard]] std::size_t live_links() const {
        return static_cast<std::size_t>(std::count(up_.begin(), up_.end(), true));
    }

    // True when taking link i down keeps the live graph connected.
    [[nodiscard]] bool removable(std::size_t i) const {
        if (!up_[i]) return false;
        std::vector<std::vector<std::size_t>> adj(switches_);
        for (std::size_t l = 0; l < links_.size(); ++l) {
            if (!up_[l] || l == i) continue;
            adj[links_[l].a].push_back(links_[l].b);
            adj[links_[l].b].push_back(links_[l].a);
        }
        std::vector<bool> seen(switches_, false);
        std::vector<std::size_t> stack{0};
        seen[0] = true;
        std::size_t reached = 1;
        while (!stack.empty()) {
            const std::size_t u = stack.back();
            stack.pop_back();
            for (const std::size_t v : adj[u]) {
                if (!seen[v]) {
                    seen[v] = true;
                    ++reached;
                    stack.push_back(v);
                }
            }
        }
        return reached == switches_;
    }

private:
    std::vector<hermes::net::Link> links_;
    std::vector<bool> up_;
    std::size_t switches_ = 0;
};

Request op_request(Op op) {
    Request r;
    r.op = op;
    return r;
}

Request link_request(Op op, const hermes::net::Link& link) {
    Request r = op_request(op);
    r.a = link.a;
    r.b = link.b;
    return r;
}

std::string request_line(const Request& r, const Workload& w, std::uint64_t id) {
    util::Json j{util::JsonObject{}};
    j.set("id", static_cast<std::int64_t>(id));
    switch (r.op) {
        case Op::kAdd:
            j.set("op", "add_program");
            j.set("name", r.name);
            j.set("spec", w.paths[static_cast<std::size_t>(r.pool)]);
            break;
        case Op::kRemove:
            j.set("op", "remove_program");
            j.set("name", r.name);
            break;
        case Op::kRetarget:
            j.set("op", "retarget_traffic");
            break;
        case Op::kDown:
            j.set("op", "inject_fault");
            j.set("kind", "link-down");
            j.set("a", r.a);
            j.set("b", r.b);
            break;
        case Op::kUp:
            j.set("op", "recover");
            j.set("kind", "link-up");
            j.set("a", r.a);
            j.set("b", r.b);
            break;
        case Op::kQuery:
            j.set("op", "query");
            break;
    }
    return j.dump();
}

// Makes the tenant programs and the churn. Content comes from the fixed
// workload seed only; `seed` picks request ids and file names, which the
// daemon echoes or opens but which change no placement work.
Workload make_workload(const RunOptions& options) {
    Workload w;
    w.texts = program_texts("tenant", kWorkloadSeed, kPool);
    Rng names(options.seed);
    const std::string tag = std::to_string(names.next() % 1000000);
    for (int i = 0; i < kPool; ++i) {
        w.mat_counts.push_back(count_mats(w.texts[static_cast<std::size_t>(i)]));
        const std::string path =
            options.run_dir + "/tenant-" + tag + "-" + std::to_string(i) + ".prog";
        write_file(path, w.texts[static_cast<std::size_t>(i)]);
        w.paths.push_back(path);
    }

    const hermes::net::Network net = hermes::net::table3_topology(kTopology);
    LinkModel model(net);
    Rng rng(kWorkloadSeed ^ 0xc0ffee);
    std::vector<std::pair<std::string, int>> tenants;  // name, pool
    std::deque<std::size_t> open;                       // failed link indices
    int next_tenant = 0;
    int next_pool = 0;

    auto add = [&](std::vector<Request>& out) {
        Request r = op_request(Op::kAdd);
        r.name = "t" + std::to_string(next_tenant++);
        r.pool = next_pool;
        next_pool = (next_pool + 1) % kPool;
        tenants.emplace_back(r.name, r.pool);
        out.push_back(r);
    };
    auto remove = [&](std::vector<Request>& out) {
        const auto pick = static_cast<std::size_t>(
            rng.range(0, static_cast<std::int64_t>(tenants.size()) - 1));
        Request r = op_request(Op::kRemove);
        r.name = tenants[pick].first;
        tenants.erase(tenants.begin() + static_cast<std::ptrdiff_t>(pick));
        out.push_back(r);
    };
    auto recover = [&](std::vector<Request>& out) {
        const std::size_t l = open.front();
        open.pop_front();
        model.set_up(l, true);
        out.push_back(link_request(Op::kUp, model.links()[l]));
    };
    auto query = [&](std::vector<Request>& out) {
        Request r = op_request(Op::kQuery);
        for (const auto& [name, pool] : tenants) {
            r.programs.push_back(name);
            r.nodes += w.mat_counts[static_cast<std::size_t>(pool)];
        }
        r.live_links = model.live_links();
        out.push_back(r);
    };

    for (int i = 0; i < kSetupTenants; ++i) add(w.setup);
    query(w.setup);
    while (static_cast<int>(w.timed.size()) < kTimedRequests) {
        const std::int64_t roll = rng.range(0, 99);
        if (roll < 30) {
            if (static_cast<int>(tenants.size()) < kMaxTenants) add(w.timed);
            else remove(w.timed);
        } else if (roll < 52) {
            if (static_cast<int>(tenants.size()) > kMinTenants) remove(w.timed);
            else add(w.timed);
        } else if (roll < 62) {
            w.timed.push_back(op_request(Op::kRetarget));
        } else if (roll < 74) {
            if (static_cast<int>(open.size()) >= kMaxOpenFailures) {
                recover(w.timed);
                continue;
            }
            bool placed = false;
            for (int attempt = 0; attempt < 16 && !placed; ++attempt) {
                const auto l = static_cast<std::size_t>(
                    rng.range(0, static_cast<std::int64_t>(model.links().size()) - 1));
                if (!model.removable(l)) continue;
                model.set_up(l, false);
                open.push_back(l);
                w.timed.push_back(link_request(Op::kDown, model.links()[l]));
                placed = true;
            }
            if (!placed) w.timed.push_back(op_request(Op::kRetarget));
        } else if (roll < 86) {
            if (!open.empty()) recover(w.timed);
            else w.timed.push_back(op_request(Op::kRetarget));
        } else {
            query(w.timed);
        }
    }
    while (!open.empty()) recover(w.timed);
    query(w.timed);

    Rng ids(options.seed ^ 0x1d5);
    for (const Request& r : w.setup) w.setup_lines.push_back(request_line(r, w, ids.next() >> 12));
    for (const Request& r : w.timed) w.timed_lines.push_back(request_line(r, w, ids.next() >> 12));
    return w;
}

// What one response said, in the terms the checks compare.
struct Answer {
    bool ok = false;
    std::string status;  // mutation rung
    std::int64_t epoch = 0;
    std::int64_t amax = 0;
    std::int64_t moved = 0;
    std::int64_t rerouted = 0;
    std::string query;  // whole query result (deterministic fields only)
    double latency_ms = 0.0;
};

Answer parse_answer(const std::string& line, const std::string& request, Op op) {
    util::StatusOr<util::Json> parsed = util::parse_json(line);
    expect(parsed.ok(), "unparseable response: " + line);
    const util::Json& j = parsed.value();
    const util::StatusOr<util::Json> req = util::parse_json(request);
    expect(j.get("id").int_value() == req.value().get("id").int_value(),
           "response id does not echo the request: " + line);
    Answer a;
    a.ok = j.get("ok").bool_value();
    if (!a.ok) return a;
    const util::Json& r = j.get("result");
    if (is_mutation(op)) {
        a.status = r.get("status").string_value();
        a.epoch = r.get("epoch").int_value();
        a.amax = r.get("metrics").get("a_max_bytes").int_value();
        a.moved = r.get("moved_mats").int_value();
        a.rerouted = r.get("rerouted_pairs").int_value();
    } else {
        a.epoch = r.get("epoch").int_value();
        a.query = r.dump();
    }
    return a;
}

// A query answer against the client's model.
void check_query(const std::string& result_json, const Request& r) {
    const util::Json q = util::parse_json(result_json).value();
    std::vector<std::string> names;
    for (const util::Json& n : q.get("programs").array()) names.push_back(n.string_value());
    expect(names == r.programs, "query program set differs from the client's model");
    expect(static_cast<std::size_t>(q.get("network").get("live_links").int_value()) ==
               r.live_links,
           "query live link count differs from the client's model");
    expect(static_cast<std::size_t>(q.get("nodes").int_value()) == r.nodes,
           "query node count differs from the tenants' MAT total");
    expect(q.get("incumbent").bool_value(), "query reports no incumbent");
}

struct Round {
    std::vector<Answer> setup;
    std::vector<Answer> timed;
    double timed_s = 0.0;       // first send to last response
    double first_send_s = 0.0;  // absolute
    double recover_s = 0.0;
    bool recover_ok = false;    // the restarted daemon answered its query
    double daemon_rss_mb = 0.0;
    std::string final_query;
};

std::vector<std::string> daemon_argv(const RunOptions& options, const std::string& journal) {
    return {options.serve_bin, "--topology",  "table3:" + std::to_string(kTopology),
            "--threads",       "1",           "--journal",
            journal,           "--durability", "batch"};
}

Answer exchange(Child& d, const std::string& line, Op op) {
    const double t0 = now_s();
    d.send(line);
    const std::string response = d.receive();
    const double t1 = now_s();
    Answer a = parse_answer(response, line, op);
    a.latency_ms = (t1 - t0) * 1e3;
    return a;
}

// Fills `round` as the answers come, so a daemon that dies mid-round
// (ProgramError) leaves what it answered.
// Samples `speed` every 25 timed requests, between them.
void run_round(const RunOptions& options, const Workload& w, int index, Round& round,
               SpeedReference& speed) {
    const std::string journal = options.run_dir + "/round" + std::to_string(index) + ".journal";
    const std::string log = options.run_dir + "/daemon.stderr";
    {
        Child d(daemon_argv(options, journal), log);
        for (std::size_t i = 0; i < w.setup.size(); ++i) {
            round.setup.push_back(exchange(d, w.setup_lines[i], w.setup[i].op));
        }
        round.first_send_s = now_s();
        for (std::size_t i = 0; i < w.timed.size(); ++i) {
            round.timed.push_back(exchange(d, w.timed_lines[i], w.timed[i].op));
            if (i % 25 == 24) speed.sample();
        }
        round.timed_s = now_s() - round.first_send_s;
        round.final_query = round.timed.back().query;
        round.daemon_rss_mb = d.finish();
    }
    // Restart on the journal; time to the first answered query.
    const double t0 = now_s();
    Child d(daemon_argv(options, journal), log);
    const Answer recovered = exchange(d, w.timed_lines.back(), Op::kQuery);
    round.recover_s = now_s() - t0;
    round.recover_ok = recovered.ok;
    expect(!recovered.ok || recovered.query == round.final_query,
           "recovered daemon's query answer/fingerprint differs from the live run's");
    (void)d.finish();
}

// Checks a whole round's answers and returns how many of its counted
// requests (the timed ones and the recovery query) the daemon refused.
std::int64_t check_round(const Workload& w, const Round& round, const Round* reference) {
    std::int64_t refused = 0;
    auto check = [&](const std::vector<Request>& reqs, const std::vector<Answer>& got,
                     const std::vector<Answer>* ref) {
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            if (ref != nullptr) {
                const Answer& r = (*ref)[i];
                expect(got[i].ok == r.ok && got[i].status == r.status &&
                           got[i].epoch == r.epoch && got[i].amax == r.amax &&
                           got[i].moved == r.moved && got[i].query == r.query,
                       "round does different work than the first round");
            }
            if (!got[i].ok) {
                ++refused;
                continue;
            }
            if (reqs[i].op == Op::kQuery) check_query(got[i].query, reqs[i]);
        }
    };
    check(w.setup, round.setup, reference ? &reference->setup : nullptr);
    if (refused != 0) throw ProgramError("the daemon refused a set-up request");
    check(w.timed, round.timed, reference ? &reference->timed : nullptr);
    return refused + (round.recover_ok ? 0 : 1);
}

// In-process replay of the same request lines through parse_request,
// ServeSession and Engine::apply. Checks every epoch's incumbent with the
// benchmark's checker and, given `daemon`, that each answer equals the
// daemon's.
struct Replay {
    std::vector<double> parse_us;        // per request
    std::vector<double> handle_ms;       // per request, handle_line + flush
    std::vector<Op> ops;
    std::vector<std::string> statuses;   // per mutation
    std::vector<std::int64_t> moved;     // per mutation
    std::vector<std::vector<int>> program_sets;  // pool ids per mutation epoch
    std::int64_t refused = 0;
    double total_ms = 0.0;
};

Replay replay(const Workload& w, const Round* daemon, obs::Sink* sink,
              const std::string& journal) {
    hermes::core::EngineOptions eopts;
    eopts.threads = 1;
    eopts.sink = sink;
    eopts.milp.threads = 1;
    eopts.milp.time_limit_seconds = 30.0;
    hermes::core::Engine engine(hermes::net::table3_topology(kTopology), eopts);
    hermes::core::JournalOptions jopts;
    jopts.durability = hermes::core::Durability::kBatch;
    jopts.sink = sink;
    const util::Status opened = engine.enable_journal(journal, jopts);
    expect(opened.ok(), "in-process journal: " + opened.to_string());
    hermes::core::ServeOptions sopts;
    sopts.sink = sink;
    sopts.resolver = [](std::string_view spec) {
        return hermes::prog::try_load_program_file(std::string(spec));
    };
    hermes::core::ServeSession session(engine, sopts);

    Replay out;
    std::vector<std::pair<std::string, int>> tenants;
    auto step = [&](const Request& r, const std::string& line, const Answer* expected) {
        const double p0 = now_s();
        const util::StatusOr<hermes::core::ServeRequest> parsed =
            hermes::core::parse_request(line);
        const double p1 = now_s();
        expect(parsed.ok(), "parse_request rejected a benchmark request");
        std::string response;
        const double h0 = now_s();
        session.handle_line(line, response);
        session.flush(response);
        const double h1 = now_s();
        out.parse_us.push_back((p1 - p0) * 1e6);
        out.handle_ms.push_back((h1 - h0) * 1e3);
        out.ops.push_back(r.op);
        out.total_ms += (h1 - h0) * 1e3;
        expect(!response.empty() && response.back() == '\n' &&
                   response.find('\n') == response.size() - 1,
               "in-process session did not answer with exactly one line");
        response.pop_back();
        const Answer a = parse_answer(response, line, r.op);
        if (expected != nullptr) {
            expect(a.ok == expected->ok && a.status == expected->status &&
                       a.epoch == expected->epoch &&
                       a.amax == expected->amax && a.moved == expected->moved &&
                       a.rerouted == expected->rerouted && a.query == expected->query,
                   "in-process answer differs from the daemon's");
        }
        if (!a.ok) {
            std::cerr << "request refused: " << response << "\n";
            ++out.refused;
            return;
        }
        if (r.op == Op::kAdd) tenants.emplace_back(r.name, r.pool);
        if (r.op == Op::kRemove) {
            tenants.erase(std::find_if(tenants.begin(), tenants.end(),
                                       [&](const auto& t) { return t.first == r.name; }));
        }
        if (r.op == Op::kQuery) {
            check_query(a.query, r);
            return;
        }
        out.statuses.push_back(a.status);
        out.moved.push_back(a.moved);
        std::vector<int> set;
        for (const auto& t : tenants) set.push_back(t.second);
        out.program_sets.push_back(std::move(set));
        expect(engine.has_incumbent(), "engine has no incumbent after an epoch");
        require_clean(engine.merged(), engine.network(), engine.incumbent(), a.amax,
                      "served deployment at epoch " + std::to_string(a.epoch));
    };
    for (std::size_t i = 0; i < w.setup.size(); ++i) {
        step(w.setup[i], w.setup_lines[i], daemon ? &daemon->setup[i] : nullptr);
    }
    for (std::size_t i = 0; i < w.timed.size(); ++i) {
        step(w.timed[i], w.timed_lines[i], daemon ? &daemon->timed[i] : nullptr);
    }
    return out;
}

const char* const kRungs[] = {"intact", "reroute", "retarget", "incremental", "replace",
                              "greedy"};

// Rung counts of the timed epochs (the set-up epochs come first).
void record_work(const Workload& w, const Replay& r, Report& report) {
    const std::size_t setup = w.setup.size() - 1;  // set-up mutations
    std::int64_t known = 0;
    for (const char* rung : kRungs) {
        const auto n = std::count(r.statuses.begin() + static_cast<std::ptrdiff_t>(setup),
                                  r.statuses.end(), rung);
        report.work[std::string("rung.") + rung] = n;
        known += n;
    }
    const auto timed = static_cast<std::int64_t>(r.statuses.size() - setup);
    report.work["rung.other"] = timed - known;
    report.work["mutations"] = timed;
}

}  // namespace

double serve_churn_setup(const RunOptions& options) {
    const Workload w = make_workload(options);
    Child d(daemon_argv(options, options.run_dir + "/setup.journal"),
             options.run_dir + "/daemon.stderr");
    for (std::size_t i = 0; i < w.setup.size(); ++i) {
        if (!exchange(d, w.setup_lines[i], w.setup[i].op).ok) {
            throw ProgramError("the daemon refused a set-up request");
        }
    }
    const double setup_s = now_s() - process_start_s();
    (void)d.finish();
    return setup_s;
}

void run_serve_churn(const RunOptions& options, Report& report) {
    const Workload w = make_workload(options);
    // Each round runs its client and daemons on the next CPU in turn.
    const CpuRotation cpus;
    std::vector<Round> rounds;
    SpeedReference speed;
    double measured = 0.0;
    double setup_s = 0.0;
    const auto per_round = static_cast<std::int64_t>(w.timed.size()) + 1;  // + recovery query
    while (rounds.empty() || measured < options.seconds) {
        (void)cpus.pin(rounds.size());
        Round round;
        report.attempted += per_round;
        try {
            run_round(options, w, static_cast<int>(rounds.size()), round, speed);
        } catch (const ProgramError& error) {
            // The daemon died: every counted request it did not answer
            // failed, and the run stops here.
            std::cerr << "operation failed: " << error.what() << "\n";
            report.failed += per_round - static_cast<std::int64_t>(round.timed.size());
            break;
        }
        report.failed += check_round(w, round, rounds.empty() ? nullptr : &rounds[0]);
        rounds.push_back(std::move(round));
        if (rounds.size() == 1) setup_s = rounds[0].first_send_s - process_start_s();
        measured += rounds.back().timed_s;
    }
    cpus.unpin();
    if (rounds.empty()) return;

    // Every round repeats the same requests, each round on the next CPU in
    // turn, so each request's latency is taken at its best decile over the
    // rounds. op_ms is the median of the mutations' and heavy_ms the mean of
    // their slowest 2% (the replace-rung tail; the p99 sits on a step of
    // this distribution and jumps between runs); rate_per_s is mutations
    // per second of the whole churn, queries included, at those latencies.
    std::vector<std::vector<double>> request_ms(w.timed.size());
    std::vector<double> all_ms, query_ms, recover_s;
    double amax_sum = 0.0;
    std::int64_t mutations = 0;
    double rss = 0.0;
    for (const Round& r : rounds) {
        for (std::size_t i = 0; i < w.timed.size(); ++i) {
            request_ms[i].push_back(r.timed[i].latency_ms);
            if (is_mutation(w.timed[i].op)) {
                all_ms.push_back(r.timed[i].latency_ms);
                amax_sum += static_cast<double>(r.timed[i].amax);
                ++mutations;
            } else {
                query_ms.push_back(r.timed[i].latency_ms);
            }
        }
        recover_s.push_back(r.recover_s);
        rss = std::max(rss, r.daemon_rss_mb);
    }
    std::vector<double> best_ms;
    double churn_ms = 0.0;
    for (std::size_t i = 0; i < w.timed.size(); ++i) {
        const double best = best_time(request_ms[i]);
        churn_ms += best;
        if (is_mutation(w.timed[i].op)) best_ms.push_back(best);
    }
    std::sort(best_ms.rbegin(), best_ms.rend());
    const std::size_t tail = std::max<std::size_t>(1, best_ms.size() / 50);
    double tail_sum = 0.0;
    for (std::size_t i = 0; i < tail; ++i) tail_sum += best_ms[i];

    // Every served deployment through the benchmark's checker.
    const Replay checked =
        replay(w, &rounds[0], nullptr, options.run_dir + "/check.journal");
    record_work(w, checked, report);

    // Timings at the reference core's speed (SpeedReference, sampled
    // between requests on the CPU the client and its daemon run on).
    const double scale = speed.scale();
    report.set("setup_s", setup_s, "s");
    report.set("peak_rss_mb", rss, "MB");
    report.set("op_ms", median(best_ms) * scale, "ms");
    report.set("heavy_ms", tail_sum / static_cast<double>(tail) * scale, "ms");
    report.set("rate_per_s",
               static_cast<double>(best_ms.size()) / (churn_ms * scale / 1e3), "1/s");
    report.set("amax_bytes", amax_sum / static_cast<double>(mutations), "B");
    std::cout << "info: serve-churn rounds=" << rounds.size() << " mutations=" << mutations
              << " queries=" << query_ms.size() << " median_ms=" << median(all_ms)
              << " p99_ms=" << quantile(all_ms, 0.99) << " query_p50_ms=" << median(query_ms)
              << " recover_s=" << median(recover_s) << " best_op_ms=" << median(best_ms)
              << " reference_ms=" << speed.best_ms() << "\n";
}

void trace_serve_churn(const RunOptions& options, Report& report) {
    const Workload w = make_workload(options);
    const Replay plain = replay(w, nullptr, nullptr, options.run_dir + "/plain.journal");
    obs::Sink sink;
    const std::string journal = options.run_dir + "/traced.journal";
    const Replay traced = replay(w, nullptr, &sink, journal);
    report.attempted += static_cast<std::int64_t>(2 * (w.setup.size() + w.timed.size()));
    report.failed += plain.refused + traced.refused;
    expect(plain.statuses == traced.statuses, "traced replay took other rungs");

    const std::vector<obs::TraceEvent> events = sink.events();
    const std::vector<obs::TraceEvent> epochs = spans_named(events, "engine.epoch");
    expect(epochs.size() == traced.statuses.size(),
           "engine.epoch spans do not match the mutation epochs");
    const std::vector<double> epoch_ms = durations_ms(epochs);

    // Only the timed part of the churn (after the set-up tenants).
    const std::size_t first = w.setup.size() - 1;  // set-up mutations
    std::vector<double> parse_us, respond_us, query_us, apply_ms, apply_self_ms;
    std::size_t epoch = 0;
    for (std::size_t i = 0; i < traced.ops.size(); ++i) {
        const bool timed = i >= w.setup.size();
        if (!is_mutation(traced.ops[i])) {
            if (timed) query_us.push_back(traced.handle_ms[i] * 1e3);
            if (timed) parse_us.push_back(traced.parse_us[i]);
            continue;
        }
        if (timed) {
            parse_us.push_back(traced.parse_us[i]);
            respond_us.push_back((traced.handle_ms[i] - epoch_ms[epoch]) * 1e3);
            apply_ms.push_back(epoch_ms[epoch]);
            apply_self_ms.push_back(self_ms(epochs[epoch], events));
        }
        ++epoch;
    }
    report.set("serve.parse_us", median(parse_us), "us");
    report.set("serve.respond_us", median(respond_us), "us");
    report.set("serve.query_us", median(query_us), "us");
    report.set("serve.requests", static_cast<double>(counter_value(sink, "serve.requests")),
               "count");
    report.set("engine.apply_ms", median(apply_ms), "ms");
    report.set("engine.apply_self_ms", median(apply_self_ms), "ms");
    for (const char* rung : kRungs) {
        std::vector<double> ms;
        for (std::size_t e = first; e < traced.statuses.size(); ++e) {
            if (traced.statuses[e] == rung) ms.push_back(epoch_ms[e]);
        }
        report.set(std::string("rung.") + rung, static_cast<double>(ms.size()), "count");
        // The churn never reaches the full greedy rung (removals and faults
        // re-place through `replace`), so it has a count but no timing.
        if (std::string_view(rung) != "greedy") {
            report.set(std::string("rung.") + rung + "_ms", median(ms), "ms");
        }
    }
    record_work(w, traced, report);
    report.set("engine.merge_hits", static_cast<double>(counter_value(sink, "engine.merge_hits")),
               "count");
    report.set("engine.merge_misses",
               static_cast<double>(counter_value(sink, "engine.merge_misses")), "count");
    std::int64_t moved = 0;
    for (std::size_t e = first; e < traced.moved.size(); ++e) moved += traced.moved[e];
    report.set("engine.moved_mats", static_cast<double>(moved), "count");

    // Journal layer: the traced run's own counters, its file, a re-append
    // of its records, and a recovery of a fresh engine from it.
    report.set("journal.fsyncs", static_cast<double>(counter_value(sink, "journal.fsyncs")),
               "count");
    report.set("journal.rotates", static_cast<double>(counter_value(sink, "journal.rotates")),
               "count");
    const util::StatusOr<hermes::core::Journal::ScanResult> scan =
        hermes::core::Journal::scan(journal);
    expect(scan.ok() && scan.value().found, "traced journal unreadable");
    {
        const std::string copy = options.run_dir + "/reappend.journal";
        hermes::core::JournalOptions jopts;
        jopts.durability = hermes::core::Durability::kBatch;
        jopts.snapshot_interval = 0;
        util::StatusOr<hermes::core::Journal> j = hermes::core::Journal::open(copy, jopts);
        expect(j.ok(), "cannot open a scratch journal");
        std::vector<double> append_us;
        for (int pass = 0; pass < 8; ++pass) {
            for (const util::Json& record : scan.value().records) {
                const double t0 = now_s();
                const util::Status s = j.value().append(record);
                append_us.push_back((now_s() - t0) * 1e6);
                expect(s.ok(), "journal append failed");
            }
        }
        report.set("journal.append_us", median(append_us), "us");
        report.set("journal.bytes",
                   static_cast<double>(std::filesystem::file_size(journal)), "B");
    }
    {
        hermes::core::EngineOptions eopts;
        eopts.threads = 1;
        hermes::core::Engine fresh(hermes::net::table3_topology(kTopology), eopts);
        const double t0 = now_s();
        const auto recovered = fresh.recover(journal, {});
        report.set("journal.replay_ms", (now_s() - t0) * 1e3, "ms");
        expect(recovered.ok(), "in-process recovery failed");
    }

    // Union merge of each epoch's program set, as the engine builds it.
    {
        std::vector<tdg::Tdg> program_tdgs;
        for (const std::string& text : w.texts) {
            program_tdgs.push_back(hermes::prog::try_parse_program(text).value().to_tdg());
        }
        std::vector<double> union_ms;
        for (std::size_t e = first; e < traced.program_sets.size(); ++e) {
            const std::vector<int>& set = traced.program_sets[e];
            if (set.empty()) continue;
            const double t0 = now_s();
            tdg::Tdg merged = program_tdgs[static_cast<std::size_t>(set[0])];
            for (std::size_t k = 1; k < set.size(); ++k) {
                merged = tdg::graph_union(merged, program_tdgs[static_cast<std::size_t>(set[k])]);
            }
            (void)tdg::add_write_conflict_edges(merged);
            tdg::analyze(merged);
            union_ms.push_back((now_s() - t0) * 1e3);
        }
        report.set("tdg.union_ms", median(union_ms), "ms");
    }
    report.set("obs.overhead_pct.serve", (traced.total_ms - plain.total_ms) / plain.total_ms * 100.0,
               "%");
}

}  // namespace e2e
