/**
 * @file
 * Crash-only supervision of one child process: the single restart loop
 * behind `ddsc-served --supervise` and every fleet shard.
 *
 * Each generation is a fork+exec of the argv the caller builds for it
 * (exec, not bare fork: the fleet manager is multi-threaded, and a
 * fork without exec inherits its locks frozen mid-flight).  A clean
 * exit 0, or any death after a shutdown request (SIGTERM/SIGINT is
 * forwarded to the child, which drains), ends supervision.  Any other
 * death restarts the child, with backoff (100 ms doubling to 5 s)
 * after deaths younger than 5 s; maxRestarts consecutive such rapid
 * deaths trip the flap breaker.
 */

#ifndef DDSC_SERVE_SUPERVISOR_HH
#define DDSC_SERVE_SUPERVISOR_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace ddsc::serve
{

struct Supervisor
{
    /** Log prefix, e.g. "ddsc-served[supervisor]". */
    std::string label;
    /** Flap breaker: consecutive rapid deaths before giving up. */
    unsigned maxRestarts = 10;
    /** The exec argv of generation g; argv[0] is the executable. */
    std::function<std::vector<std::string>(std::uint64_t)> argv;

    /** Optional hooks: generation g is about to be spawned; a child
     *  died uncleanly with this wait status (before the flap breaker
     *  decides); supervision gave up (returning 1). */
    std::function<void(std::uint64_t)> onSpawn;
    std::function<void(int)> onDeath;
    std::function<void()> onBroken;

    /** Supervise until a generation exits 0 or shutdown is requested
     *  (support::shutdownRequested(); returns 0), or until the flap
     *  breaker trips or a process call fails (returns 1). */
    int run() const;
};

} // namespace ddsc::serve

#endif // DDSC_SERVE_SUPERVISOR_HH
