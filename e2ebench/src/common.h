// Shared plumbing of the end-to-end benchmark: clocks, order statistics, a
// private RNG (so inputs never depend on the program's generators), the
// failure type every check throws, and the metric record each workload
// fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace e2e {

// Wall-clock seconds on the steady clock.
[[nodiscard]] inline double now_s() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// Origin of setup_s: process start, fixed at the first call (made from
// main()), moved later by every exclude_from_setup(seconds) call (the
// checker's self-test is not part of the workload's set-up).
[[nodiscard]] double process_start_s();
void exclude_from_setup(double seconds);

// Thrown by every correctness check; the run then reports correct=false.
class CheckFailure : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

// Thrown when the program fails an operation on its own side: a daemon that
// exits or refuses a request, a public function that returns an error
// status, an exact solve that stops before proving optimality. The run
// counts the operation in `failed`; `correct` speaks of the operations that
// did not fail.
class ProgramError : public std::runtime_error {
public:
    using std::runtime_error::runtime_error;
};

// Fails a check with `what` unless `ok`.
void expect(bool ok, const std::string& what);

// Order statistics over a copy of the samples (0 when empty). quantile()
// uses the nearest-rank definition, so p99 of n samples has n/100 samples
// strictly above it.
[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double quantile(std::vector<double> v, double q);

// The statistic the timed end-to-end figures use: the best decile (p10) of
// samples of the same work spread over every CPU the run may use. Shared
// virtual CPUs can flip between a fast state and one about 1.7x slower
// every few seconds, each on its own and with a mix that drifts over
// minutes (measured on a 4-vCPU VM; README.md). The best decile is the
// program's cost on an uncontended core; the median tracks the neighbours.
[[nodiscard]] double best_time(const std::vector<double>& v);

// The host's core speed, read off a fixed serial integer chain timed
// between a workload's operations on the same CPU. The fast state of the
// shared vCPUs itself drifts over minutes, with every core (README.md); the
// chain's best decile moves with the best decile of compute-bound work
// (measured on traffic-sim's cache-sized passes), so dividing by it leaves
// the program's own cost. scale() converts a time measured in this run to
// one on a core where the chain takes kReferenceMs.
class SpeedReference {
public:
    static constexpr double kReferenceMs = 1.5;

    // Runs the chain once and records its wall time.
    void sample();
    [[nodiscard]] double best_ms() const { return best_time(ms_); }
    // kReferenceMs / best_ms(); 1 without samples.
    [[nodiscard]] double scale() const;

private:
    std::vector<double> ms_;
};

// Spreads timed samples over the CPUs this process may run on: pins the
// calling thread (and the children it starts afterwards) to the k-th of
// them, round robin. unpin() restores the full set.
class CpuRotation {
public:
    CpuRotation();
    int pin(std::size_t k) const;
    void unpin() const;

private:
    std::vector<int> cpus_;
};

// splitmix64: the benchmark's own generator for every seeded input.
class Rng {
public:
    explicit Rng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    // Uniform in [lo, hi] inclusive.
    std::int64_t range(std::int64_t lo, std::int64_t hi);
    // Uniform in [lo, hi).
    double real(double lo, double hi);
    bool chance(double p);

private:
    std::uint64_t state_;
};

// One run's outcome: printed as the last stdout line.
struct Report {
    bool correct = true;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    // name -> (value, unit), emitted in insertion order of `order`.
    std::vector<std::string> order;
    std::map<std::string, std::pair<double, std::string>> metrics;
    // Work counts that must repeat across runs (printed on their own line
    // before the result so two runs can be compared).
    std::map<std::string, std::int64_t> work;

    void set(const std::string& name, double value, const std::string& unit);
    [[nodiscard]] std::string result_json() const;
    [[nodiscard]] std::string work_json() const;
};

// Peak resident set of this process, MiB.
[[nodiscard]] double self_peak_rss_mb();

}  // namespace e2e
