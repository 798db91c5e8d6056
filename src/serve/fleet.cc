#include "fleet.hh"

#include <cstdio>
#include <filesystem>
#include <thread>
#include <unistd.h>
#include <vector>

#include "serve/supervisor.hh"
#include "support/portfile.hh"
#include "support/shutdown.hh"

namespace ddsc::serve
{

ServerOptions
shardOptions(const FleetOptions &opts, std::size_t index)
{
    const std::string suffix = "/shard-" + std::to_string(index);
    ServerOptions shard = opts.shardOpts;
    shard.port = 0;
    shard.cacheDir = opts.cacheRoot.empty() ? "" : opts.cacheRoot + suffix;
    // Private per-shard spill dirs: generations of *one* shard reuse
    // their spilled traces, but shards never race on a shared file.
    if (!shard.traceDir.empty())
        shard.traceDir += suffix;
    return shard;
}

int
runFleet(const FleetOptions &opts)
{
    if (opts.shards == 0 || opts.serverExe.empty() ||
        opts.runtimeDir.empty()) {
        std::fprintf(stderr,
                     "ddsc-served[fleet]: need --fleet K >= 1 and a "
                     "runtime directory\n");
        return 1;
    }
    {
        std::error_code ec;
        std::filesystem::create_directories(opts.runtimeDir, ec);
        if (ec) {
            std::fprintf(stderr,
                         "ddsc-served[fleet]: cannot create runtime "
                         "dir '%s': %s\n",
                         opts.runtimeDir.c_str(),
                         ec.message().c_str());
            return 1;
        }
    }

    auto runtime_file = [&](std::size_t i, const char *ext) {
        return opts.runtimeDir + "/shard-" + std::to_string(i) + ext;
    };
    FleetState fleet;
    for (unsigned i = 0; i < opts.shards; ++i) {
        ShardSlot &slot = fleet.add(runtime_file(i, ".port"),
                                    shardOptions(opts, i).cacheDir);
        // A stale port file from a previous fleet would point the
        // router at a dead (or foreign) port until generation 0 binds.
        support::removeRuntimeFile(slot.portFile);
        support::removeRuntimeFile(runtime_file(i, ".pid"));
    }

    RouterOptions router_opts = opts.router;
    router_opts.storeRoot = opts.cacheRoot;
    Router router(router_opts, fleet);
    if (!router.valid()) {
        std::fprintf(stderr,
                     "ddsc-served[fleet]: cannot listen on "
                     "127.0.0.1:%u (port in use?)\n",
                     static_cast<unsigned>(opts.router.port));
        return 1;
    }

    std::string err;
    if (!opts.pidFile.empty() &&
        !support::writeOneLineAtomic(
            opts.pidFile,
            static_cast<unsigned long long>(::getpid()), &err)) {
        std::fprintf(stderr,
                     "ddsc-served[fleet]: cannot write pid file: %s\n",
                     err.c_str());
        return 1;
    }

    std::vector<std::thread> supervisors;
    supervisors.reserve(fleet.count());
    for (std::size_t i = 0; i < fleet.count(); ++i) {
        supervisors.emplace_back([&, i]() {
            ShardSlot &slot = *fleet.shards[i];
            const ServerOptions shard = shardOptions(opts, i);
            const std::string pid_file = runtime_file(i, ".pid");
            Supervisor sup;
            sup.label = "ddsc-served[fleet]: shard " + std::to_string(i);
            sup.maxRestarts = opts.maxRestarts;
            sup.argv = [&](std::uint64_t generation) {
                ServerOptions life = shard;
                life.generation = generation;
                return serverArgv(opts.serverExe, life, slot.portFile,
                                  pid_file);
            };
            sup.onSpawn = [&](std::uint64_t g) { slot.generation.store(g); };
            sup.onDeath = [&](int) { slot.restarts.fetch_add(1); };
            sup.onBroken = [&]() { slot.broken.store(true); };
            sup.run();
        });
    }

    // The router's port file is the fleet's "ready" signal; its
    // listener is live (shards may still be binding, but the router
    // rides that with its retry policy).
    if (!opts.portFile.empty() &&
        !support::writeOneLineAtomic(opts.portFile, router.port(),
                                     &err)) {
        std::fprintf(stderr,
                     "ddsc-served[fleet]: cannot write port file: "
                     "%s\n",
                     err.c_str());
        support::requestShutdown();
        for (std::thread &t : supervisors)
            t.join();
        return 1;
    }

    std::fprintf(stderr,
                 "# ddsc-served[fleet]: router listening on "
                 "127.0.0.1:%u with %u shards\n",
                 static_cast<unsigned>(router.port()), opts.shards);

    router.run();   // returns on SIGTERM/SIGINT (or stop())

    for (std::thread &t : supervisors)
        t.join();

    // Clean shutdown leaves no stale runtime files behind; the shards
    // removed their own on drain.
    if (!opts.portFile.empty())
        support::removeRuntimeFile(opts.portFile);
    if (!opts.pidFile.empty())
        support::removeRuntimeFile(opts.pidFile);

    std::fprintf(stderr, "# ddsc-served[fleet]: drained cleanly\n");
    return 0;
}

} // namespace ddsc::serve
