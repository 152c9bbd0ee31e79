// Reading the program's obs sink: span durations by name, a span's self
// time (its duration minus the part its nested spans cover), counters.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "obs/obs.h"

namespace e2e {

// Completed spans called `name`, in start order.
[[nodiscard]] std::vector<hermes::obs::TraceEvent> spans_named(
    const std::vector<hermes::obs::TraceEvent>& events, std::string_view name);

// Durations in milliseconds.
[[nodiscard]] std::vector<double> durations_ms(
    const std::vector<hermes::obs::TraceEvent>& spans);

// Sum of the durations of spans called `name`, milliseconds.
[[nodiscard]] double total_ms(const std::vector<hermes::obs::TraceEvent>& events,
                              std::string_view name);

// `span`'s duration minus the union of the spans nested inside it on the
// same thread, milliseconds.
[[nodiscard]] double self_ms(const hermes::obs::TraceEvent& span,
                             const std::vector<hermes::obs::TraceEvent>& events);

// Counter value, 0 when the counter was never registered.
[[nodiscard]] std::int64_t counter_value(const hermes::obs::Sink& sink,
                                         std::string_view name);

}  // namespace e2e
