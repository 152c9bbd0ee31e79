#include "child.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "common.h"

namespace e2e {

namespace {

// Live child pids, readable from the signal handler.
constexpr int kMaxChildren = 8;
std::atomic<pid_t> g_children[kMaxChildren];

void track(pid_t pid) {
    for (auto& slot : g_children) {
        pid_t expected = 0;
        if (slot.compare_exchange_strong(expected, pid)) return;
    }
    throw std::runtime_error("too many live children");
}

void untrack(pid_t pid) {
    for (auto& slot : g_children) {
        pid_t expected = pid;
        if (slot.compare_exchange_strong(expected, 0)) return;
    }
}

void on_signal(int sig) {
    for (auto& slot : g_children) {
        const pid_t pid = slot.exchange(0);
        if (pid > 0) {
            ::kill(pid, SIGKILL);
            ::waitpid(pid, nullptr, 0);
        }
    }
    ::_exit(128 + sig);
}

}  // namespace

void install_signal_reaper() {
    struct sigaction action {};
    action.sa_handler = on_signal;
    sigemptyset(&action.sa_mask);
    for (const int sig : {SIGINT, SIGTERM, SIGHUP}) ::sigaction(sig, &action, nullptr);
    ::signal(SIGPIPE, SIG_IGN);
}

Child::Child(const std::vector<std::string>& argv, const std::string& stderr_path) {
    int in_pipe[2];
    int out_pipe[2];
    if (::pipe2(in_pipe, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
    if (::pipe2(out_pipe, O_CLOEXEC) != 0) {
        ::close(in_pipe[0]);
        ::close(in_pipe[1]);
        throw std::runtime_error("pipe failed");
    }
    const int err = ::open(stderr_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
    std::vector<char*> args;
    for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    const pid_t parent = ::getpid();
    // Block the reaper while the pid is unknown to it.
    sigset_t block;
    sigset_t old;
    sigemptyset(&block);
    for (const int sig : {SIGINT, SIGTERM, SIGHUP}) sigaddset(&block, sig);
    ::sigprocmask(SIG_BLOCK, &block, &old);
    pid_ = ::fork();
    if (pid_ == 0) {
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent) ::_exit(127);
        ::sigprocmask(SIG_SETMASK, &old, nullptr);
        ::dup2(in_pipe[0], STDIN_FILENO);
        ::dup2(out_pipe[1], STDOUT_FILENO);
        if (err >= 0) ::dup2(err, STDERR_FILENO);
        ::execv(args[0], args.data());
        ::_exit(127);
    }
    if (pid_ > 0) track(pid_);
    ::sigprocmask(SIG_SETMASK, &old, nullptr);
    ::close(in_pipe[0]);
    ::close(out_pipe[1]);
    if (err >= 0) ::close(err);
    to_child_ = in_pipe[1];
    from_child_ = out_pipe[0];
    if (pid_ < 0) {
        ::close(to_child_);
        ::close(from_child_);
        throw std::runtime_error("fork failed");
    }
}

Child::~Child() {
    if (to_child_ >= 0) ::close(to_child_);
    if (from_child_ >= 0) ::close(from_child_);
    if (pid_ > 0) {
        ::kill(pid_, SIGKILL);
        while (::waitpid(pid_, nullptr, 0) < 0 && errno == EINTR) {
        }
        untrack(pid_);
    }
}

void Child::send(const std::string& line) {
    std::string data = line + '\n';
    std::size_t done = 0;
    while (done < data.size()) {
        const ssize_t n = ::write(to_child_, data.data() + done, data.size() - done);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) throw ProgramError("child closed its stdin");
        done += static_cast<std::size_t>(n);
    }
}

std::string Child::receive() {
    for (;;) {
        const std::size_t nl = buffer_.find('\n');
        if (nl != std::string::npos) {
            std::string line = buffer_.substr(0, nl);
            buffer_.erase(0, nl + 1);
            return line;
        }
        char chunk[1 << 16];
        const ssize_t n = ::read(from_child_, chunk, sizeof chunk);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) throw ProgramError("child exited before answering");
        buffer_.append(chunk, static_cast<std::size_t>(n));
    }
}

double Child::finish() {
    ::close(to_child_);
    to_child_ = -1;
    int status = 0;
    rusage usage{};
    pid_t got = -1;
    do {
        got = ::wait4(pid_, &status, 0, &usage);
    } while (got < 0 && errno == EINTR);
    untrack(pid_);
    pid_ = -1;
    ::close(from_child_);
    from_child_ = -1;
    if (got < 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        throw ProgramError("child exited unsuccessfully");
    }
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace e2e
