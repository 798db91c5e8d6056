/**
 * @file
 * The crash-only supervisor and the ServerOptions <-> argv codec.
 *
 * Supervisor.* drive serve::Supervisor with /bin/sh children standing
 * in for server generations: clean exits end supervision, unclean
 * ones restart until the flap breaker trips, signal deaths are
 * restarted like any other, and a shutdown request is forwarded to the
 * child, even one that lands before the child has exec'd.  These
 * fork, so CI runs them outside the TSan job.
 *
 * ServerOptionsCodec.* are pure: whatever serverArgv() writes,
 * ddsc-served's flag table reads back to the same options, including
 * the per-shard overrides the fleet manager applies.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <sys/wait.h>
#include <thread>

#include "serve/fleet.hh"
#include "serve/server.hh"
#include "serve/supervisor.hh"
#include "support/flags.hh"
#include "support/shutdown.hh"

namespace
{

using namespace ddsc;
using namespace ddsc::serve;

/** What a supervisor's hooks reported.  spawns and broken are atomic
 *  because one test reads them while run() is still going. */
struct HookLog
{
    std::atomic<std::uint64_t> spawns{0};
    std::atomic<bool> broken{false};
    std::vector<int> deaths;    ///< wait statuses; read after run()
};

/** A supervisor whose generation g runs `/bin/sh -c script(g)`. */
Supervisor
shSupervisor(HookLog &log,
             std::function<std::string(std::uint64_t)> script,
             unsigned max_restarts = 3)
{
    Supervisor sup;
    sup.label = "supervisor-test";
    sup.maxRestarts = max_restarts;
    sup.argv = [script](std::uint64_t generation) {
        return std::vector<std::string>{"/bin/sh", "-c",
                                        script(generation)};
    };
    sup.onSpawn = [&log](std::uint64_t) { log.spawns.fetch_add(1); };
    sup.onDeath = [&log](int status) { log.deaths.push_back(status); };
    sup.onBroken = [&log]() { log.broken.store(true); };
    return sup;
}

TEST(Supervisor, CleanExitIsNotRestarted)
{
    HookLog log;
    EXPECT_EQ(shSupervisor(log, [](std::uint64_t) { return "exit 0"; })
                  .run(),
              0);
    EXPECT_EQ(log.spawns.load(), 1u);
    EXPECT_TRUE(log.deaths.empty());
    EXPECT_FALSE(log.broken.load());
}

TEST(Supervisor, FlapBreakerTripsAfterMaxRestarts)
{
    HookLog log;
    EXPECT_EQ(shSupervisor(log, [](std::uint64_t) { return "exit 1"; }, 3)
                  .run(),
              1);
    EXPECT_EQ(log.spawns.load(), 3u);
    ASSERT_EQ(log.deaths.size(), 3u);
    for (const int status : log.deaths) {
        EXPECT_TRUE(WIFEXITED(status));
        EXPECT_EQ(WEXITSTATUS(status), 1);
    }
    EXPECT_TRUE(log.broken.load());
}

TEST(Supervisor, SignalDeathIsRestarted)
{
    HookLog log;
    auto script = [](std::uint64_t generation) {
        return generation == 0 ? "kill -9 $$" : "exit 0";
    };
    EXPECT_EQ(shSupervisor(log, script).run(), 0);
    EXPECT_EQ(log.spawns.load(), 2u);
    ASSERT_EQ(log.deaths.size(), 1u);
    EXPECT_TRUE(WIFSIGNALED(log.deaths[0]));
    EXPECT_EQ(WTERMSIG(log.deaths[0]), SIGKILL);
    EXPECT_FALSE(log.broken.load());
}

TEST(Supervisor, ShutdownIsForwardedAndReturnsZero)
{
    // The child would live 30 s unless the forwarded SIGTERM reaches
    // it; its trap turns that SIGTERM into a clean exit.
    HookLog log;
    const Supervisor sup = shSupervisor(log, [](std::uint64_t) {
        return "trap 'kill $!; exit 0' TERM; sleep 30 & wait";
    });
    const auto start = std::chrono::steady_clock::now();
    int rc = -1;
    std::thread runner([&]() { rc = sup.run(); });
    while (log.spawns.load() == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    support::requestShutdown();
    runner.join();
    support::resetShutdownForTest();

    EXPECT_EQ(rc, 0);
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(10));
    EXPECT_EQ(log.spawns.load(), 1u);
    EXPECT_TRUE(log.deaths.empty());
    EXPECT_FALSE(log.broken.load());
}

TEST(Supervisor, ShutdownForwardedBeforeExecStillStopsTheChild)
{
    // With the handler installed (as in ddsc-served), a SIGTERM that
    // reaches the child between fork and exec would run the inherited
    // handler and be lost with the old image, leaving a child that
    // never drains.  A shutdown requested before run() is forwarded
    // in exactly that window.
    support::installShutdownHandler();
    support::requestShutdown();
    HookLog log;
    const auto start = std::chrono::steady_clock::now();
    const int rc =
        shSupervisor(log, [](std::uint64_t) { return "exec sleep 30"; })
            .run();
    support::resetShutdownForTest();

    EXPECT_EQ(rc, 0);
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(10));
    EXPECT_EQ(log.spawns.load(), 1u);
}

/** Parse @p argv (argv[0] included) onto ddsc-served's defaults. */
struct Decoded
{
    ServerOptions opts = servedDefaults();
    std::string portFile;
    std::string pidFile;
    bool ok = false;
    std::string why;

    explicit Decoded(const std::vector<std::string> &argv)
    {
        ok = support::parseFlags(serverFlags(opts, portFile, pidFile),
                                 {argv.begin() + 1, argv.end()}, &why);
    }
};

TEST(ServerOptionsCodec, DefaultsRoundTrip)
{
    const std::vector<std::string> argv =
        serverArgv("ddsc-served", servedDefaults(), "", "");
    EXPECT_EQ(argv, std::vector<std::string>{"ddsc-served"});
    const Decoded back(argv);
    ASSERT_TRUE(back.ok) << back.why;
    EXPECT_EQ(back.opts, servedDefaults());

    // The struct's own default is the ephemeral port, which differs
    // from the CLI's and so must be spelled out.
    const Decoded plain(serverArgv("ddsc-served", ServerOptions{}, "", ""));
    ASSERT_TRUE(plain.ok) << plain.why;
    EXPECT_EQ(plain.opts, ServerOptions{});
}

TEST(ServerOptionsCodec, EveryFlagFieldRoundTrips)
{
    ServerOptions opts;
    opts.port = 9;
    opts.jobs = 3;
    opts.cacheDir = "/var/tmp/cache dir";
    opts.maxSessions = 5;
    opts.watchdogBudgetMs = 7;
    opts.cancelStalledMs = 11;
    opts.admission.maxActive = 2;
    opts.admission.queueDepth = 0;
    opts.admission.perConnInflight = 0;     // uncapped
    opts.admission.brownout = false;
    opts.generation = 42;
    opts.traceDir = "/tmp/traces";
    opts.traceBudgetMb = 64;
    ASSERT_NE(opts.admission, AdmissionOptions{});

    const Decoded back(
        serverArgv("ddsc-served", opts, "/run/x.port", "/run/x.pid"));
    ASSERT_TRUE(back.ok) << back.why;
    EXPECT_EQ(back.opts, opts);
    EXPECT_EQ(back.portFile, "/run/x.port");
    EXPECT_EQ(back.pidFile, "/run/x.pid");

    // And back the other way: brownout on again after being off.
    opts.admission.brownout = true;
    const Decoded on(serverArgv("ddsc-served", opts, "", ""));
    ASSERT_TRUE(on.ok) << on.why;
    EXPECT_EQ(on.opts, opts);
}

TEST(ServerOptionsCodec, ShardOverridesRoundTrip)
{
    FleetOptions fleet;
    fleet.cacheRoot = "/srv/store";
    fleet.shardOpts = servedDefaults();
    fleet.shardOpts.traceDir = "/srv/traces";
    fleet.shardOpts.jobs = 2;
    fleet.shardOpts.admission.queueDepth = 0;

    ServerOptions shard = shardOptions(fleet, 1);
    shard.generation = 5;
    const Decoded back(serverArgv("ddsc-served", shard,
                                  "/rt/shard-1.port", "/rt/shard-1.pid"));
    ASSERT_TRUE(back.ok) << back.why;
    EXPECT_EQ(back.opts, shard);
    EXPECT_EQ(back.opts.port, 0u);
    EXPECT_EQ(back.opts.cacheDir, "/srv/store/shard-1");
    EXPECT_EQ(back.opts.traceDir, "/srv/traces/shard-1");
    EXPECT_EQ(back.opts.generation, 5u);
    EXPECT_EQ(back.opts.jobs, 2u);
    EXPECT_EQ(back.opts.admission.queueDepth, 0u);
    EXPECT_EQ(back.portFile, "/rt/shard-1.port");
    EXPECT_EQ(back.pidFile, "/rt/shard-1.pid");

    // In-memory shards without spill dirs stay that way.
    fleet.cacheRoot.clear();
    fleet.shardOpts.traceDir.clear();
    EXPECT_EQ(shardOptions(fleet, 0).cacheDir, "");
    EXPECT_EQ(shardOptions(fleet, 0).traceDir, "");
}

TEST(ServerOptionsCodec, MalformedValuesAreRejected)
{
    const std::vector<std::vector<std::string>> bad = {
        {"x", "--port", "70000"},
        {"x", "--queue-depth", "-1"},
        {"x", "--trace-budget-mb", "12x"},
        {"x", "--watchdog-budget-ms", "garbage"},
        {"x", "--jobs", "0"},
        {"x", "--jobs", ""},
        {"x", "--jobs", " 2"},
        {"x", "--max-active", "0"},
        {"x", "--generation", "18446744073709551616"},
        {"x", "--port"},
        {"x", "--supervise"},   // not a server flag
    };
    for (const std::vector<std::string> &argv : bad) {
        const Decoded d(argv);
        EXPECT_FALSE(d.ok) << argv[1];
        EXPECT_FALSE(d.why.empty());
    }

    const Decoded zero({"x", "--per-conn-inflight", "0"});
    ASSERT_TRUE(zero.ok) << zero.why;
    EXPECT_EQ(zero.opts.admission.perConnInflight, 0u);
}

} // anonymous namespace
