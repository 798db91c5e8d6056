/**
 * @file
 * ddsc-served: resident experiment-matrix server.
 *
 * Usage: ddsc-served [flags] — usage() lists them.  The server's own
 * flags are the rows of serve::serverFlags(), the codec supervised
 * generations and fleet shards are started with; main() adds the
 * supervisor and fleet flags.
 *
 * Examples:
 *   ddsc-served --port 7411 --cache-dir /var/tmp/ddsc
 *   ddsc-served --port 0 --port-file /tmp/ddsc.port   # ephemeral port
 *   ddsc-served --supervise --port 0 --port-file /tmp/ddsc.port \
 *               --pid-file /tmp/ddsc.pid --cache-dir /var/tmp/ddsc
 *   ddsc-served --fleet 3 --port 0 --port-file /tmp/ddsc.port \
 *               --runtime-dir /tmp/ddsc-fleet --cache-dir /var/tmp/ddsc
 *
 * The server keeps traces and every simulated cell resident, so the
 * first client pays for a sweep once and every later identical query
 * is answered from memory (or from the --cache-dir store, which also
 * makes answers survive a restart).  Concurrent identical requests
 * are single-flighted: one simulation per unique cell, everyone gets
 * the same bytes.
 *
 * --port 0 binds a kernel-assigned ephemeral port; --port-file writes
 * the bound port (a single line) once the listener is live, which is
 * also the "ready" signal scripts should poll for.  Each supervised
 * generation rewrites it.
 *
 * --supervise runs crash-only under serve::Supervisor
 * (src/serve/supervisor.hh): each generation is this binary exec'd
 * with the same server flags over the same --cache-dir store, and an
 * unclean death restarts with backoff until --max-restarts
 * consecutive rapid deaths trip the flap breaker (exit 1).
 * --pid-file always names the *serving* process — what a chaos
 * harness or an operator signals.
 *
 * --watchdog-budget-ms pins the hung-cell watchdog's soft budget; by
 * default it adapts to 8x the slowest cell observed (2 s floor).
 * --cancel-stalled-ms is the watchdog's last rung: a flight still
 * running that long after claim gets its cancel token fired, so the
 * stalled simulation unwinds cooperatively instead of squatting on a
 * worker forever (default 64x the soft budget).
 *
 * Admission control sits in front of the request loop: --max-active
 * caps concurrently resolving requests, --queue-depth
 * bounds how many requests may wait for a simulation slot (beyond it
 * the server sheds with a typed Overloaded carrying a retry-after
 * hint), --per-conn-inflight caps one connection's concurrent
 * requests so a single aggressive client cannot monopolise the queue,
 * and --brownout/--no-brownout controls whether, at a saturated
 * queue, requests answerable entirely from the durable store are
 * still served (they bypass the queue; fresh simulation sheds).
 * Requests whose deadline budget cannot survive the predicted queue
 * wait are shed immediately rather than queued to die.
 *
 * --trace-dir spills each workload's trace once to a DDSCTRC v4 file
 * under DIR and serves it through mmap'd zero-copy cursors instead of
 * holding a private std::vector copy per workload.  --trace-budget-mb
 * caps how many of those mapped bytes stay resident: past the budget
 * the least-recently-swept traces are evicted back to the page cache
 * (madvise), so a corpus far larger than RAM sweeps in bounded RSS.
 * Residency counters show up in the health probe (ddsc-client
 * --health).
 *
 * --fleet K runs K crash-only shards of this binary behind a
 * fan-out/merge router on --port/--port-file (src/serve/fleet.hh):
 * each shard has its own supervisor, port/pid files under
 * --runtime-dir, and store under <cache-dir>/shard-<i>, and
 * --router-retry-budget-ms caps how long the router rides out a
 * restarting shard.  --generation is internal: the supervisor stamps
 * each life with it.
 *
 * Numeric flags parse strictly and are range-checked: a malformed or
 * out-of-range value is a usage error (exit 2) before anything
 * listens.
 *
 * SIGINT/SIGTERM drain: in-flight requests finish and reply, new
 * connections are refused, the store is flushed and compacted, the
 * pid/port files are removed, and the process exits 0.  The
 * supervisor forwards the signal to the serving child and exits
 * cleanly once the drain finishes.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <unistd.h>
#include <vector>

#include "serve/fleet.hh"
#include "serve/server.hh"
#include "serve/supervisor.hh"
#include "support/flags.hh"
#include "support/portfile.hh"
#include "support/shutdown.hh"
#include "support/version.hh"

namespace
{

using namespace ddsc;

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
        "usage: ddsc-served [--port N] [--port-file PATH] [--jobs N]\n"
        "                   [--cache-dir DIR] [--max-sessions N]\n"
        "                   [--trace-dir DIR] [--trace-budget-mb N]\n"
        "                   [--watchdog-budget-ms N] [--supervise]\n"
        "                   [--fleet K] [--runtime-dir DIR]\n"
        "                   [--router-retry-budget-ms N]\n"
        "                   [--pid-file PATH] [--max-restarts K]\n"
        "                   [--max-active N] [--queue-depth N]\n"
        "                   [--per-conn-inflight N]\n"
        "                   [--brownout|--no-brownout]\n"
        "                   [--cancel-stalled-ms N] [--version]\n");
    std::exit(2);
}

bool
writeOneLine(const std::string &path, unsigned long long value,
             const char *what)
{
    // Atomic (temp + rename): pollers of the port file must never see
    // a truncated or torn line — see support/portfile.hh.
    std::string err;
    if (!support::writeOneLineAtomic(path, value, &err)) {
        std::fprintf(stderr, "ddsc-served: cannot write %s %s: %s\n",
                     what, path.c_str(), err.c_str());
        return false;
    }
    return true;
}

/** Construct and run one server process; the whole body of plain
 *  (unsupervised) mode and of each supervised generation. */
int
runServer(const serve::ServerOptions &opts,
          const std::string &port_file, const std::string &pid_file)
{
    serve::Server server(opts);
    if (!server.valid()) {
        std::fprintf(stderr,
                     "ddsc-served: cannot listen on 127.0.0.1:%u "
                     "(port in use?)\n",
                     static_cast<unsigned>(opts.port));
        return 1;
    }

    if (!pid_file.empty() &&
        !writeOneLine(pid_file,
                      static_cast<unsigned long long>(::getpid()),
                      "pid file"))
        return 1;
    // The port file is the "ready" signal scripts poll for; write it
    // only after the listener is live.
    if (!port_file.empty() &&
        !writeOneLine(port_file, server.port(), "port file"))
        return 1;

    std::fprintf(stderr, "# ddsc-served listening on 127.0.0.1:%u"
                 " (generation %llu)\n",
                 static_cast<unsigned>(server.port()),
                 static_cast<unsigned long long>(opts.generation));
    if (!opts.cacheDir.empty()) {
        std::fprintf(stderr, "# store: %s\n",
                     server.infoSnapshot().storePath.c_str());
    }

    server.run();

    std::fprintf(stderr,
                 "# drained: %llu requests served, %llu cells "
                 "simulated, %llu store hits, %llu coalesced\n",
                 static_cast<unsigned long long>(
                     server.infoSnapshot().requestsServed),
                 static_cast<unsigned long long>(
                     server.infoSnapshot().simulated),
                 static_cast<unsigned long long>(
                     server.infoSnapshot().storeHits),
                 static_cast<unsigned long long>(
                     server.infoSnapshot().coalesced));

    // A clean drain (SIGTERM / exit 0) leaves no stale runtime files
    // behind; a crash leaves them for the next generation to rewrite.
    if (!port_file.empty())
        support::removeRuntimeFile(port_file);
    if (!pid_file.empty())
        support::removeRuntimeFile(pid_file);
    return 0;
}

/** Absolute path of this very binary, exec'd for every supervised
 *  generation and fleet shard.  Falls back to argv[0] when
 *  /proc/self/exe is unreadable. */
std::string
selfExePath(const char *argv0)
{
    char buf[4096];
    const ssize_t n =
        ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        return buf;
    }
    return argv0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    serve::ServerOptions opts = serve::servedDefaults();
    std::string port_file;
    std::string pid_file;
    bool supervise = false;
    bool version = false;
    unsigned max_restarts = 10;
    unsigned fleet_shards = 0;      // 0 = single-server mode
    std::string runtime_dir;
    std::uint64_t router_retry_budget_ms = 0;   // 0 = default

    std::vector<support::Flag> flags =
        serve::serverFlags(opts, port_file, pid_file);
    flags.insert(flags.end(), {
        {"--supervise", &supervise},
        {"--max-restarts", &max_restarts, 1},
        {"--fleet", &fleet_shards, 1, 64},
        {"--runtime-dir", &runtime_dir},
        {"--router-retry-budget-ms", &router_retry_budget_ms, 0,
         std::uint64_t{1} << 40},
        {"--version", &version},
    });
    support::parseCommandLine("ddsc-served", argc, argv, usage, flags);
    if (version) {
        support::version::print("ddsc-served");
        return 0;
    }

    support::installShutdownHandler();
    const std::string exe = selfExePath(argv[0]);

    if (fleet_shards > 0) {
        if (supervise) {
            std::fprintf(stderr,
                         "ddsc-served: --fleet already supervises "
                         "each shard; drop --supervise\n");
            usage();
        }
        serve::FleetOptions fopts;
        fopts.shards = fleet_shards;
        fopts.serverExe = exe;
        if (!runtime_dir.empty()) {
            fopts.runtimeDir = runtime_dir;
        } else if (!port_file.empty()) {
            // Default the shard port/pid files next to the router's.
            const std::string parent =
                std::filesystem::path(port_file)
                    .parent_path().string();
            fopts.runtimeDir = parent.empty() ? "." : parent;
        } else {
            std::fprintf(stderr,
                         "ddsc-served: --fleet needs --runtime-dir "
                         "(or --port-file to default it from)\n");
            usage();
        }
        fopts.cacheRoot = opts.cacheDir;
        fopts.portFile = port_file;
        fopts.pidFile = pid_file;
        fopts.maxRestarts = max_restarts;
        fopts.shardOpts = opts;
        fopts.router.port = opts.port;
        fopts.router.maxSessions = opts.maxSessions;
        if (router_retry_budget_ms != 0)
            fopts.router.retry.budgetMs = router_retry_budget_ms;
        return serve::runFleet(fopts);
    }

    if (supervise) {
        serve::Supervisor sup;
        sup.label = "ddsc-served[supervisor]";
        sup.maxRestarts = max_restarts;
        sup.argv = [&](std::uint64_t generation) {
            serve::ServerOptions life = opts;
            life.generation = generation;
            return serve::serverArgv(exe, life, port_file, pid_file);
        };
        return sup.run();
    }
    return runServer(opts, port_file, pid_file);
}
