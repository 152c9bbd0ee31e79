// Seeded input generators. Every input the benchmark feeds the program is
// made here, from the benchmark's own RNG, as program text — so a change to
// the program's own generators (prog::synthetic_*, --emit-churn) cannot
// change what is measured.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

// Paper-style program (§VI-A): min_mats-max_mats MATs (10-20 by default),
// each using 10%-50% of one stage, each ordered MAT pair dependent with
// probability 0.3, MATs writing metadata drawn from the Table I catalog
// (switch id 4 B, queue lengths 6 B, timestamps 12 B, counter index 4 B;
// shared across programs with probability 0.15) or program-private result
// fields. Returned as .prog text named `name`.
[[nodiscard]] std::string program_text(const std::string& name, std::uint64_t seed,
                                       int min_mats = 10, int max_mats = 20);

// `count` programs named prefix0, prefix1, ... from one workload seed.
[[nodiscard]] std::vector<std::string> program_texts(const std::string& prefix,
                                                     std::uint64_t seed, int count,
                                                     int min_mats = 10, int max_mats = 20);

// Whole-file helpers.
void write_file(const std::string& path, const std::string& text);
[[nodiscard]] std::string read_file(const std::string& path);

}  // namespace e2e
