#include "spans.h"

#include <algorithm>

namespace e2e {

using hermes::obs::TraceEvent;

std::vector<TraceEvent> spans_named(const std::vector<TraceEvent>& events,
                                    std::string_view name) {
    std::vector<TraceEvent> out;
    for (const TraceEvent& e : events) {
        if (name == e.name) out.push_back(e);
    }
    return out;
}

std::vector<double> durations_ms(const std::vector<TraceEvent>& spans) {
    std::vector<double> out;
    out.reserve(spans.size());
    for (const TraceEvent& e : spans) {
        out.push_back(static_cast<double>(e.end_ns - e.start_ns) / 1e6);
    }
    return out;
}

double total_ms(const std::vector<TraceEvent>& events, std::string_view name) {
    double sum = 0.0;
    for (const double ms : durations_ms(spans_named(events, name))) sum += ms;
    return sum;
}

double self_ms(const TraceEvent& span, const std::vector<TraceEvent>& events) {
    std::vector<std::pair<std::int64_t, std::int64_t>> inner;
    for (const TraceEvent& e : events) {
        if (&e == &span || e.tid != span.tid) continue;
        if (e.start_ns >= span.start_ns && e.end_ns <= span.end_ns &&
            !(e.start_ns == span.start_ns && e.end_ns == span.end_ns &&
              std::string_view(e.name) == span.name)) {
            inner.emplace_back(e.start_ns, e.end_ns);
        }
    }
    std::sort(inner.begin(), inner.end());
    std::int64_t covered = 0;
    std::int64_t reach = span.start_ns;
    for (const auto& [start, end] : inner) {
        const std::int64_t from = std::max(start, reach);
        if (end > from) covered += end - from;
        reach = std::max(reach, end);
    }
    return static_cast<double>(span.end_ns - span.start_ns - covered) / 1e6;
}

std::int64_t counter_value(const hermes::obs::Sink& sink, std::string_view name) {
    for (const auto& c : sink.counters()) {
        if (c.name == name) return c.value;
    }
    return 0;
}

}  // namespace e2e
