#include "supervisor.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <poll.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "support/shutdown.hh"

namespace ddsc::serve
{

namespace
{

/** A generation that died younger than this is a "rapid" death for
 *  the flap breaker and escalates the restart backoff. */
constexpr std::uint64_t kRapidDeathMs = 5000;
constexpr std::uint64_t kBackoffBaseMs = 100;
constexpr std::uint64_t kBackoffCapMs = 5000;

/** Wait up to @p ms for the shutdown self-pipe; true once shutdown
 *  was requested. */
bool
waitForShutdown(std::uint64_t ms)
{
    const int fd = support::shutdownFd();
    pollfd p = {fd, POLLIN, 0};
    ::poll(&p, fd >= 0 ? 1u : 0u, static_cast<int>(ms));
    return support::shutdownRequested();
}

/** fork+exec @p args; the child's pid, or -1 when fork failed. */
pid_t
spawn(const std::vector<std::string> &args)
{
    std::vector<char *> argv;
    argv.reserve(args.size() + 1);
    for (const std::string &arg : args)
        argv.push_back(const_cast<char *>(arg.c_str()));
    argv.push_back(nullptr);

    // A SIGTERM forwarded between fork and exec would run the
    // inherited handler, which only sets a flag that exec then throws
    // away: the child would never drain.  So the signals stay blocked
    // across fork, and the child restores their default action before
    // unblocking — a pending one then terminates it, which the
    // supervisor reads as "shut down as asked".
    sigset_t stop_signals, old_mask;
    sigemptyset(&stop_signals);
    sigaddset(&stop_signals, SIGINT);
    sigaddset(&stop_signals, SIGTERM);
    ::pthread_sigmask(SIG_BLOCK, &stop_signals, &old_mask);
    const pid_t child = ::fork();
    if (child == 0) {
        // Only async-signal-safe calls until exec.
        ::signal(SIGINT, SIG_DFL);
        ::signal(SIGTERM, SIG_DFL);
        ::pthread_sigmask(SIG_SETMASK, &old_mask, nullptr);
        ::execv(argv[0], argv.data());
        _exit(127);
    }
    ::pthread_sigmask(SIG_SETMASK, &old_mask, nullptr);
    return child;
}

} // anonymous namespace

int
Supervisor::run() const
{
    const char *tag = label.c_str();
    auto give_up = [&]() {
        if (onBroken)
            onBroken();
        return 1;
    };

    unsigned rapid_deaths = 0;
    for (std::uint64_t generation = 0;; ++generation) {
        if (onSpawn)
            onSpawn(generation);
        const pid_t child = spawn(argv(generation));
        if (child < 0) {
            std::fprintf(stderr, "%s: fork failed: %s\n", tag,
                         std::strerror(errno));
            return give_up();
        }
        std::fprintf(stderr, "# %s: generation %llu is pid %ld\n", tag,
                     static_cast<unsigned long long>(generation),
                     static_cast<long>(child));

        const auto born = std::chrono::steady_clock::now();
        int status = 0;
        for (bool forwarded = false;;) {
            // Forward our own SIGTERM/SIGINT so the child drains.  A
            // blocking waitpid alone would race a signal delivered
            // just before it parks; polling the shutdown self-pipe
            // (readable from the instant the handler ran) closes that
            // window, and once forwarded there is nothing left to
            // watch, so the wait can block for real.
            if (support::shutdownRequested() && !forwarded) {
                ::kill(child, SIGTERM);
                forwarded = true;
            }
            const pid_t got =
                ::waitpid(child, &status, forwarded ? 0 : WNOHANG);
            if (got == child)
                break;
            if (got < 0 && errno != EINTR) {
                std::fprintf(stderr, "%s: waitpid failed: %s\n", tag,
                             std::strerror(errno));
                return give_up();
            }
            if (!forwarded)
                waitForShutdown(200);
        }

        if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
            std::fprintf(stderr, "# %s: generation %llu drained cleanly\n",
                         tag, static_cast<unsigned long long>(generation));
            return 0;
        }
        if (support::shutdownRequested()) {
            // We asked it to stop and it still died unclean — report
            // but don't restart what we were told to shut down.
            std::fprintf(stderr,
                         "# %s: shutdown requested; not restarting\n",
                         tag);
            return 0;
        }

        const std::uint64_t lifetime_ms = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - born)
                .count());
        char death[96];
        if (WIFSIGNALED(status))
            std::snprintf(death, sizeof death, "killed by signal %d (%s)",
                          WTERMSIG(status), strsignal(WTERMSIG(status)));
        else
            std::snprintf(death, sizeof death, "exited %d",
                          WIFEXITED(status) ? WEXITSTATUS(status) : -1);
        std::fprintf(stderr, "# %s: generation %llu %s after %llu ms\n",
                     tag, static_cast<unsigned long long>(generation),
                     death, static_cast<unsigned long long>(lifetime_ms));
        if (onDeath)
            onDeath(status);

        rapid_deaths = lifetime_ms < kRapidDeathMs ? rapid_deaths + 1 : 0;
        if (rapid_deaths >= maxRestarts) {
            std::fprintf(stderr,
                         "%s: flap breaker: %u consecutive rapid deaths; "
                         "giving up\n",
                         tag, rapid_deaths);
            return give_up();
        }

        if (rapid_deaths > 0) {
            const std::uint64_t delay =
                std::min(kBackoffCapMs,
                         kBackoffBaseMs << std::min(rapid_deaths - 1, 6u));
            std::fprintf(stderr, "# %s: restarting in %llu ms\n", tag,
                         static_cast<unsigned long long>(delay));
            if (waitForShutdown(delay))
                return 0;
        }
    }
}

} // namespace ddsc::serve
