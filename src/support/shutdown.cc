#include "shutdown.hh"

#include <atomic>
#include <csignal>

#include <fcntl.h>
#include <unistd.h>

#include "support/logging.hh"

namespace ddsc::support
{

namespace
{

std::atomic<bool> g_requested{false};
std::atomic<int> g_signal{0};
int g_pipe[2] = {-1, -1};
bool g_installed = false;

extern "C" void
shutdownHandler(int signo)
{
    g_signal.store(signo, std::memory_order_relaxed);
    g_requested.store(true, std::memory_order_release);
    if (g_pipe[1] != -1) {
        const char byte = 1;
        // The result is deliberately ignored: a full pipe still means
        // the previous wake-up byte is unread, so pollers will wake.
        [[maybe_unused]] ssize_t n = ::write(g_pipe[1], &byte, 1);
    }
}

} // anonymous namespace

void
installShutdownHandler()
{
    if (g_installed)
        return;
    if (::pipe(g_pipe) != 0)
        ddsc_fatal("cannot create the shutdown self-pipe");
    ::fcntl(g_pipe[0], F_SETFL, O_NONBLOCK);
    ::fcntl(g_pipe[1], F_SETFL, O_NONBLOCK);
    ::fcntl(g_pipe[0], F_SETFD, FD_CLOEXEC);
    ::fcntl(g_pipe[1], F_SETFD, FD_CLOEXEC);

    struct sigaction sa = {};
    sa.sa_handler = shutdownHandler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;    // no SA_RESTART: blocking syscalls return EINTR
    if (::sigaction(SIGINT, &sa, nullptr) != 0 ||
        ::sigaction(SIGTERM, &sa, nullptr) != 0) {
        ddsc_fatal("cannot install the SIGINT/SIGTERM handler");
    }
    g_installed = true;
}

bool
shutdownRequested()
{
    return g_requested.load(std::memory_order_acquire);
}

int
shutdownSignal()
{
    return g_signal.load(std::memory_order_relaxed);
}

int
shutdownFd()
{
    return g_pipe[0];
}

void
requestShutdown()
{
    shutdownHandler(0);
}

void
resetShutdownForTest()
{
    g_requested.store(false, std::memory_order_release);
    g_signal.store(0, std::memory_order_relaxed);
    if (g_pipe[0] != -1) {
        char drain[16];
        while (::read(g_pipe[0], drain, sizeof drain) > 0) {
        }
    }
}

} // namespace ddsc::support
