#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace e2e {

namespace {

double g_excluded_s = 0.0;

}  // namespace

double process_start_s() {
    static const double start = now_s();
    return start + g_excluded_s;
}

void exclude_from_setup(double seconds) { g_excluded_s += seconds; }

void expect(bool ok, const std::string& what) {
    if (!ok) throw CheckFailure(what);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    if (q == 0.5 && v.size() % 2 == 0) {
        return 0.5 * (v[v.size() / 2 - 1] + v[v.size() / 2]);
    }
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double best_time(const std::vector<double>& v) { return quantile(v, 0.1); }

void SpeedReference::sample() {
    // 2^20 dependent multiply-add-shift steps: latency bound, so no
    // compiler can vectorise or shorten it, and it touches no memory.
    // The empty asm statements keep the chain between the two clock reads.
    std::uint64_t x = ms_.size() + 1;
    const double t0 = now_s();
    asm volatile("" : "+r"(x) : : "memory");
    for (int i = 0; i < (1 << 20); ++i) x = x * 6364136223846793005ULL + (x >> 29);
    asm volatile("" : "+r"(x) : : "memory");
    const double t1 = now_s();
    ms_.push_back((t1 - t0) * 1e3);
}

double SpeedReference::scale() const {
    return ms_.empty() ? 1.0 : kReferenceMs / best_ms();
}

CpuRotation::CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
        }
    }
}

int CpuRotation::pin(std::size_t k) const {
    if (cpus_.empty()) return -1;
    const int cpu = cpus_[k % cpus_.size()];
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    (void)sched_setaffinity(0, sizeof set, &set);
    return cpu;
}

void CpuRotation::unpin() const {
    cpu_set_t set;
    CPU_ZERO(&set);
    for (const int cpu : cpus_) CPU_SET(cpu, &set);
    if (!cpus_.empty()) (void)sched_setaffinity(0, sizeof set, &set);
}

std::uint64_t Rng::next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) {
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(next() % span);
}

double Rng::real(double lo, double hi) {
    return lo + (hi - lo) * (static_cast<double>(next() >> 11) * 0x1.0p-53);
}

bool Rng::chance(double p) { return real(0.0, 1.0) < p; }

void Report::set(const std::string& name, double value, const std::string& unit) {
    if (metrics.find(name) == metrics.end()) order.push_back(name);
    metrics[name] = {value, unit};
}

namespace {

std::string number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

}  // namespace

std::string Report::result_json() const {
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const std::string& name : order) {
        const auto& [value, unit] = metrics.at(name);
        if (!first) out += ", ";
        first = false;
        out += "\"" + name + "\": {\"value\": " + number(value) + ", \"unit\": \"" + unit +
               "\"}";
    }
    out += "}}";
    return out;
}

std::string Report::work_json() const {
    std::string out = "{";
    bool first = true;
    for (const auto& [name, value] : work) {
        if (!first) out += ", ";
        first = false;
        out += "\"" + name + "\": " + std::to_string(value);
    }
    return out + "}";
}

double self_peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace e2e
