// A child process (hermes_serve, or a set-up probe) driven over a stdio
// pipe pair.
//
// Hygiene: the child dies with the benchmark (PR_SET_PDEATHSIG), the
// destructor kills and reaps a child that is still running, and
// install_signal_reaper() makes SIGINT/SIGTERM/SIGHUP kill and reap every
// live child before the benchmark exits.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

namespace e2e {

class Child {
public:
    // Starts `argv[0]` with `argv`, stderr appended to `stderr_path`.
    Child(const std::vector<std::string>& argv, const std::string& stderr_path);
    ~Child();
    Child(const Child&) = delete;
    Child& operator=(const Child&) = delete;

    // Writes one request line ('\n' appended).
    void send(const std::string& line);
    // Blocks for the next response line (without its '\n'); throws
    // ProgramError on EOF.
    [[nodiscard]] std::string receive();

    // Closes the child's stdin, waits for it to exit, and returns its peak
    // RSS in MiB. Throws ProgramError when it exits unsuccessfully.
    double finish();

private:
    pid_t pid_ = -1;
    int to_child_ = -1;
    int from_child_ = -1;
    std::string buffer_;
};

// Kill-and-reap handler for every Child alive when a signal arrives.
void install_signal_reaper();

}  // namespace e2e
