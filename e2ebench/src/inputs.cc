#include "inputs.h"

#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "common.h"

namespace e2e {

namespace {

struct CatalogField {
    const char* name;
    int bytes;
};

// Table I common metadata.
constexpr CatalogField kCatalog[] = {
    {"meta.switch_id", 4},
    {"meta.queue_len", 6},
    {"meta.timestamp", 12},
    {"meta.counter_index", 4},
};

constexpr int kPrivateSizes[] = {1, 2, 4, 4, 6, 8, 12};
constexpr double kMinResource = 0.10;
constexpr double kMaxResource = 0.50;
constexpr double kDependencyProbability = 0.30;
constexpr double kSharedFieldProbability = 0.15;
constexpr char kDepLetters[] = {'M', 'M', 'A', 'S', 'R'};

}  // namespace

std::string program_text(const std::string& name, std::uint64_t seed, int min_mats,
                         int max_mats) {
    Rng rng(seed);
    std::ostringstream out;
    out << "program " << name << '\n';
    const auto mats = static_cast<int>(rng.range(min_mats, max_mats));
    for (int m = 0; m < mats; ++m) {
        const std::string tag = name + "_m" + std::to_string(m);
        const double resource = rng.real(kMinResource, kMaxResource);
        char res[32];
        std::snprintf(res, sizeof res, "%.3f", resource);
        out << "mat " << tag << " capacity=" << rng.range(64, 4096) << " resource=" << res
            << '\n';
        out << "  match hdr." << tag << ".key:4:h\n";
        out << "  write act_" << tag;
        const auto fields = rng.range(1, 3);
        for (std::int64_t f = 0; f < fields; ++f) {
            if (rng.chance(kSharedFieldProbability)) {
                const CatalogField& c = kCatalog[rng.range(0, 3)];
                out << ' ' << c.name << ':' << c.bytes << ":m";
            } else {
                out << " meta." << tag << ".out" << f << ':'
                    << kPrivateSizes[rng.range(0, std::size(kPrivateSizes) - 1)] << ":m";
            }
        }
        out << '\n';
    }
    for (int i = 0; i < mats; ++i) {
        for (int j = i + 1; j < mats; ++j) {
            if (!rng.chance(kDependencyProbability)) continue;
            out << "edge " << name << "_m" << i << ' ' << name << "_m" << j << ' '
                << kDepLetters[rng.range(0, std::size(kDepLetters) - 1)] << '\n';
        }
    }
    return out.str();
}

std::vector<std::string> program_texts(const std::string& prefix, std::uint64_t seed,
                                       int count, int min_mats, int max_mats) {
    std::vector<std::string> texts;
    Rng seeds(seed);
    for (int i = 0; i < count; ++i) {
        texts.push_back(program_text(prefix + std::to_string(i), seeds.next(), min_mats, max_mats));
    }
    return texts;
}

void write_file(const std::string& path, const std::string& text) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
    if (!out) throw std::runtime_error("cannot write '" + path + "'");
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot read '" + path + "'");
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

}  // namespace e2e
