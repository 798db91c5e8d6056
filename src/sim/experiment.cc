#include "experiment.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <limits>
#include <set>
#include <thread>
#include <utility>

#include "sim/batched.hh"
#include "support/fault.hh"
#include "support/logging.hh"
#include "support/shutdown.hh"
#include "support/stats.hh"
#include "support/thread_pool.hh"

namespace ddsc
{

std::uint64_t
envTraceLimit()
{
    const char *value = std::getenv("DDSC_TRACE_LIMIT");
    if (!value)
        return 0;
    // Insist on a plain decimal count: strtoull alone would skip
    // leading whitespace and silently wrap negatives to huge values.
    if (!std::isdigit(static_cast<unsigned char>(value[0]))) {
        warn("ignoring malformed DDSC_TRACE_LIMIT='%s'", value);
        return 0;
    }
    char *end = nullptr;
    errno = 0;
    const unsigned long long parsed = std::strtoull(value, &end, 10);
    if (end == value || *end != '\0') {
        warn("ignoring malformed DDSC_TRACE_LIMIT='%s'", value);
        return 0;
    }
    if (errno == ERANGE) {
        warn("DDSC_TRACE_LIMIT='%s' out of range; treating as unlimited",
             value);
        return std::numeric_limits<std::uint64_t>::max();
    }
    return parsed;
}

ExperimentDriver::ExperimentDriver(std::uint64_t trace_limit,
                                   bool test_scale, unsigned jobs)
    : traceLimit_(trace_limit != 0 ? trace_limit : envTraceLimit()),
      testScale_(test_scale),
      jobs_(jobs != 0 ? jobs : support::ThreadPool::defaultJobs())
{
    traceStore_.configure(traceLimit_, testScale_);
}

void
ExperimentDriver::setJobs(unsigned jobs)
{
    jobs_ = jobs != 0 ? jobs : support::ThreadPool::defaultJobs();
    std::lock_guard<std::mutex> lock(poolMutex_);
    pool_.reset();      // next prefetch() rebuilds at the new size
}

support::ThreadPool &
ExperimentDriver::pool()
{
    std::lock_guard<std::mutex> lock(poolMutex_);
    if (!pool_)
        pool_ = std::make_unique<support::ThreadPool>(jobs_);
    return *pool_;
}

const SharedTrace &
ExperimentDriver::trace(const WorkloadSpec &spec)
{
    return traceStore_.get(spec);
}

std::uint64_t
ExperimentDriver::traceDigest(const WorkloadSpec &spec)
{
    return traceStore_.digest(spec);
}

void
ExperimentDriver::setTraceDir(const std::string &dir)
{
    traceStore_.setSpillDir(dir);
}

void
ExperimentDriver::setTraceBudgetMb(std::uint64_t mb)
{
    traceStore_.setBudgetBytes(mb * 1024 * 1024);
}

TraceResidencyManager::Counters
ExperimentDriver::traceResidency() const
{
    return traceStore_.residency();
}

std::string
ExperimentDriver::cellKey(char config, unsigned width)
{
    return std::string(1, config) + "/" + std::to_string(width);
}

std::string
ExperimentDriver::guardKey(const std::string &cache_key,
                           const MachineConfig &config)
{
    const std::string fp = config.fingerprint();
    std::lock_guard<std::mutex> lock(mutex_);
    const auto [it, inserted] = fingerprints_.try_emplace(cache_key, fp);
    if (inserted || it->second == fp)
        return cache_key;
#ifndef NDEBUG
    ddsc_panic("statsFor key '%s' aliases two different MachineConfigs",
               cache_key.c_str());
#else
    warn("statsFor key '%s' aliases two different MachineConfigs; "
         "disambiguating by fingerprint", cache_key.c_str());
    const std::string disambiguated = cache_key + "#" + fp;
    fingerprints_.try_emplace(disambiguated, fp);
    return disambiguated;
#endif
}

SchedStats
ExperimentDriver::runCell(const SharedTrace &trace,
                          const MachineConfig &config,
                          const support::CancelToken &token) const
{
    const std::unique_ptr<TraceSource> view = trace.cursor();
    LimitScheduler scheduler(config);
    scheduler.setCancel(token);
    return scheduler.run(*view);
}

SchedStats
ExperimentDriver::runCellChecked(const std::string &key,
                                 const SharedTrace &trace,
                                 const MachineConfig &config,
                                 const support::CancelToken &token) const
{
    if (token.valid())
        token.throwIfCancelled();
    if (support::faultShouldFire("cell-throw", key.c_str()))
        throw std::runtime_error("injected fault: cell-throw at '" +
                                 key + "'");
    if (support::faultShouldFire("cell-stall", key.c_str())) {
        // Hold the cell in flight for a while: the deadline,
        // single-flight, and watchdog tests use this to widen the
        // race window deterministically.  $DDSC_FAULT_STALL_MS
        // tunes the duration (default 400 ms) so watchdog tests can
        // stall well past their budgets without slowing the rest of
        // the suite.  The sleep is sliced so a firing token can
        // interrupt it: the injected stall is exactly what the
        // watchdog's active cancel exists to reclaim.
        static const unsigned stall_ms = [] {
            const char *v = std::getenv("DDSC_FAULT_STALL_MS");
            if (v && std::isdigit(static_cast<unsigned char>(v[0])))
                return static_cast<unsigned>(
                    std::strtoul(v, nullptr, 10));
            return 400u;
        }();
        for (unsigned slept = 0; slept < stall_ms; slept += 20) {
            if (token.valid())
                token.throwIfCancelled();
            std::this_thread::sleep_for(std::chrono::milliseconds(
                std::min(20u, stall_ms - slept)));
        }
    }
    return runCell(trace, config, token);
}

bool
ExperimentDriver::attemptCell(const std::string &key,
                              const SharedTrace &trace,
                              const MachineConfig &config,
                              SchedStats &out,
                              CellFailure &failure,
                              unsigned first_attempt,
                              const support::CancelToken &token) const
{
    for (unsigned attempt = first_attempt; attempt <= kCellAttempts;
         ++attempt) {
        try {
            out = runCellChecked(key, trace, config, token);
            if (attempt > 1) {
                warn("cell '%s' recovered on attempt %u of %u",
                     key.c_str(), attempt, kCellAttempts);
            }
            return true;
        } catch (const support::CancelledError &) {
            // Not a cell failure: retrying under the same fired token
            // would cancel again, and quarantining would poison a
            // healthy cell.  Let the caller unwind.
            throw;
        } catch (const std::exception &e) {
            failure = {key, e.what(), attempt};
        } catch (...) {
            failure = {key, "unknown exception", attempt};
        }
        warn("cell '%s' failed (attempt %u of %u): %s", key.c_str(),
             attempt, kCellAttempts, failure.message.c_str());
    }
    return false;
}

const SchedStats &
ExperimentDriver::statsFor(const WorkloadSpec &spec,
                           const MachineConfig &config,
                           const std::string &key,
                           const support::CancelToken &token)
{
    const std::string cache_key =
        guardKey(spec.name + "/" + key, config);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = cache_.find(cache_key);
        if (it != cache_.end())
            return it->second;
        const auto bad = quarantine_.find(cache_key);
        if (bad != quarantine_.end())
            throw CellQuarantined(bad->second);
    }
    const SharedTrace &src = trace(spec);
    if (store_) {
        const SchedStats *stored = store_->lookup(
            cache_key, config.fingerprint(), traceDigest(spec));
        if (stored) {
            std::lock_guard<std::mutex> lock(mutex_);
            const auto [it, inserted] =
                cache_.emplace(cache_key, *stored);
            if (inserted)
                ++storeHits_;
            return it->second;
        }
    }
    SchedStats stats;
    CellFailure failure;
    traceStore_.touch(src);
    bool ran = false;
    try {
        ran = attemptCell(cache_key, src, config, stats, failure, 1,
                          token);
    } catch (const support::CancelledError &e) {
        // The cell is left exactly as if it had never been asked for:
        // the next request that wants it simulates from scratch.
        throw CellCancelled(cache_key, e.what());
    }
    if (!ran) {
        std::lock_guard<std::mutex> lock(mutex_);
        quarantine_.emplace(cache_key, failure);
        throw CellQuarantined(failure);
    }
    if (store_) {
        store_->append(cache_key, config.fingerprint(),
                       traceDigest(spec), stats);
    }
    std::lock_guard<std::mutex> lock(mutex_);
    ++simulated_;
    // A successful publish clears any provisional quarantine the
    // watchdog applied while this very simulation was stuck: the
    // result in hand proves the cell is healthy.
    quarantine_.erase(cache_key);
    return cache_.emplace(cache_key, std::move(stats)).first->second;
}

const SchedStats &
ExperimentDriver::stats(const WorkloadSpec &spec, char config,
                        unsigned width,
                        const support::CancelToken &token)
{
    return statsFor(spec, MachineConfig::paper(config, width),
                    cellKey(config, width), token);
}

bool
ExperimentDriver::cellResolved(const WorkloadSpec &spec, char config,
                               unsigned width) const
{
    const std::string key = spec.name + "/" + cellKey(config, width);
    std::lock_guard<std::mutex> lock(mutex_);
    return cache_.find(key) != cache_.end() ||
           quarantine_.find(key) != quarantine_.end();
}

bool
ExperimentDriver::cellDurable(const WorkloadSpec &spec, char config,
                              unsigned width) const
{
    if (cellResolved(spec, config, width))
        return true;
    // Key-only store probe: staleness (fingerprint/digest drift) is
    // caught at real lookup time; here a false positive just admits
    // one request that then simulates — fine for a brownout check.
    return store_ != nullptr &&
           store_->contains(spec.name + "/" + cellKey(config, width));
}

std::vector<ExperimentCell>
ExperimentDriver::cellsFor(const std::vector<const WorkloadSpec *> &set,
                           const std::string &configs,
                           const std::vector<unsigned> &widths)
{
    std::vector<ExperimentCell> cells;
    cells.reserve(set.size() * configs.size() * widths.size());
    for (const WorkloadSpec *spec : set)
        for (const char config : configs)
            for (const unsigned width : widths)
                cells.push_back({spec, config, width});
    return cells;
}

void
ExperimentDriver::prefetch(const std::vector<ExperimentCell> &cells)
{
    prefetch(cells, {});
}

void
ExperimentDriver::prefetch(const std::vector<ExperimentCell> &cells,
                           const std::vector<support::CancelToken> &tokens)
{
    ddsc_assert(tokens.empty() || tokens.size() == cells.size(),
                "prefetch: %zu cells but %zu cancel tokens",
                cells.size(), tokens.size());

    struct Task
    {
        const SharedTrace *trace;
        MachineConfig config;
        std::string key;
        std::string fingerprint;
        std::uint64_t digest;
        support::CancelToken token;     ///< null when uncancellable
    };

    // Enumerate the missing cells and materialize their traces from
    // this thread (trace generation runs the VM and is kept serial;
    // it is shared across the 25 cells of each workload anyway).
    // Cells found intact in the attached persistent store are copied
    // into the in-memory cache here and never reach the workers —
    // this is what --resume resumes.  Quarantined cells are skipped
    // too: a known-poisoned simulation is not retried every sweep.
    std::vector<Task> missing;
    std::set<std::string> queued;
    for (std::size_t c = 0; c < cells.size(); ++c) {
        const ExperimentCell &cell = cells[c];
        ddsc_assert(cell.spec != nullptr, "null workload in cell");
        const std::string cache_key =
            cell.spec->name + "/" + cellKey(cell.config, cell.width);
        if (!queued.insert(cache_key).second)
            continue;
        MachineConfig config =
            MachineConfig::paper(cell.config, cell.width);
        // The guarded key is where statsFor() will look: when the raw
        // key aliases a different machine (release builds), the result
        // must be cached under the disambiguated key, or the cell
        // would silently re-simulate on every statsFor() while the
        // aliased entry lingers.
        const std::string guarded_key = guardKey(cache_key, config);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (cache_.find(guarded_key) != cache_.end())
                continue;
            if (quarantine_.find(guarded_key) != quarantine_.end())
                continue;
        }
        const SharedTrace &src = trace(*cell.spec);
        std::string fingerprint = config.fingerprint();
        const std::uint64_t digest = traceDigest(*cell.spec);
        if (store_) {
            const SchedStats *stored =
                store_->lookup(guarded_key, fingerprint, digest);
            if (stored) {
                // A concurrent prefetch may have cached this cell
                // between our cache check and here; only the emplace
                // that actually lands counts as a hit, so storeHits()
                // never exceeds the number of unique cells loaded.
                std::lock_guard<std::mutex> lock(mutex_);
                if (cache_.emplace(guarded_key, *stored).second)
                    ++storeHits_;
                continue;
            }
        }
        missing.push_back({&src, std::move(config), guarded_key,
                           std::move(fingerprint), digest,
                           tokens.empty() ? support::CancelToken()
                                          : tokens[c]});
    }
    if (missing.empty())
        return;

    // Run the missing cells concurrently on the shared pool.  Each
    // task owns a private trace cursor and scheduler and writes only
    // its own result slot, so the computation is race-free by
    // construction; the shared cache is filled afterwards, under the
    // mutex, in enumeration order (a std::map is insertion-order
    // independent anyway).  attemptCell() contains worker exceptions:
    // a throwing cell is retried, then quarantined, and never takes
    // the sweep down with it, so every other slot still holds its
    // bit-exact result.  Waiting on this batch's own futures (rather
    // than pool.wait()) is what lets several prefetch() calls share
    // the workers: each caller blocks only until *its* cells are done.
    std::vector<SchedStats> results(missing.size());
    std::vector<CellFailure> failures(missing.size());
    std::vector<char> succeeded(missing.size(), 0);
    std::vector<char> skipped(missing.size(), 0);
    // Cancelled cells are published like skipped ones — neither
    // cached, nor quarantined, nor appended to the store — so the
    // next request re-runs them cleanly.
    std::vector<char> cancelled(missing.size(), 0);
    support::ThreadPool &workers = pool();
    std::vector<std::future<void>> batch;
    // Group the missing cells by (workload, front-end fingerprint):
    // each group is one streaming front-end pass feeding all its
    // back-end window engines, so the paper matrix costs two trace
    // decodes per workload instead of 25.  Groups are pool tasks
    // (they are the natural parallel unit — sibling cells of a group
    // share one pass by construction); a cell that fails inside its
    // group is retried alone (a group of one), continuing the attempt
    // count, so transient faults recover and persistent ones
    // quarantine.  `groups` lives past the submit loop: group tasks
    // index into it from worker threads until every future below is
    // collected.
    std::vector<std::vector<std::size_t>> groups;
    {
        std::map<std::pair<const SharedTrace *, std::string>,
                 std::size_t> index;
        for (std::size_t i = 0; i < missing.size(); ++i) {
            const auto [it, inserted] = index.try_emplace(
                {missing[i].trace,
                 missing[i].config.frontEndFingerprint()},
                groups.size());
            if (inserted)
                groups.emplace_back();
            groups[it->second].push_back(i);
        }
    }
    batch.reserve(groups.size());
    for (std::size_t g = 0; g < groups.size(); ++g) {
        batch.push_back(workers.submit([&, g]() {
            const std::vector<std::size_t> &group = groups[g];
            if (interruptible_ && support::shutdownRequested()) {
                for (const std::size_t i : group)
                    skipped[i] = 1;
                return;
            }
            std::vector<MachineConfig> configs;
            std::vector<std::string> keys;
            std::vector<support::CancelToken> group_tokens;
            bool any_token = false;
            configs.reserve(group.size());
            keys.reserve(group.size());
            group_tokens.reserve(group.size());
            for (const std::size_t i : group) {
                configs.push_back(missing[i].config);
                keys.push_back(missing[i].key);
                group_tokens.push_back(missing[i].token);
                any_token = any_token || missing[i].token.valid();
            }
            if (!any_token)
                group_tokens.clear();
            // LRU-touch at execution (not enumeration) time, so
            // the residency budget tracks the order traces are
            // actually swept in.
            traceStore_.touch(*missing[group[0]].trace);
            const BatchedGroupResult out = runBatchedGroup(
                *missing[group[0]].trace, configs, keys,
                kBatchedChunk, group_tokens);
            for (std::size_t k = 0; k < group.size(); ++k) {
                const std::size_t i = group[k];
                if (out.cells[k].ok) {
                    results[i] = out.cells[k].stats;
                    succeeded[i] = 1;
                    continue;
                }
                if (out.cells[k].cancelled) {
                    cancelled[i] = 1;
                    continue;
                }
                failures[i] = {missing[i].key,
                               out.cells[k].error, 1};
                warn("cell '%s' failed (attempt 1 of %u): %s",
                     missing[i].key.c_str(), kCellAttempts,
                     out.cells[k].error.c_str());
                try {
                    succeeded[i] =
                        attemptCell(missing[i].key,
                                    *missing[i].trace,
                                    missing[i].config, results[i],
                                    failures[i], 2,
                                    missing[i].token)
                            ? 1 : 0;
                } catch (const support::CancelledError &) {
                    cancelled[i] = 1;
                }
            }
        }));
    }
    for (std::future<void> &done : batch)
        done.get();

    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < missing.size(); ++i) {
        if (skipped[i])
            continue;   // neither cached nor quarantined: never ran
        if (cancelled[i])
            continue;   // ditto: partial state was discarded, the
                        // cell re-runs cleanly on the next request
        if (!succeeded[i]) {
            quarantine_.emplace(missing[i].key, failures[i]);
            continue;
        }
        // Persist before publishing, in enumeration order: a kill
        // between cells loses at most the one record being written,
        // and the store contents are deterministic for a given sweep.
        if (store_) {
            store_->append(missing[i].key, missing[i].fingerprint,
                           missing[i].digest, results[i]);
        }
        ++simulated_;
        // The finished result clears any provisional watchdog
        // quarantine applied while this cell was stuck in flight.
        quarantine_.erase(missing[i].key);
        cache_.emplace(missing[i].key, std::move(results[i]));
    }
}

std::size_t
ExperimentDriver::simulatedCells() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return simulated_;
}

std::size_t
ExperimentDriver::storeHits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return storeHits_;
}

std::size_t
ExperimentDriver::quarantineCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return quarantine_.size();
}

void
ExperimentDriver::quarantineCell(const std::string &key,
                                 const std::string &message)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (cache_.find(key) != cache_.end())
        return;     // already finished: nothing to poison
    quarantine_.emplace(key, CellFailure{key, message, 0});
}

std::uint64_t
ExperimentDriver::maxCellWallNanos() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t max = 0;
    for (const auto &[key, stats] : cache_)
        if (stats.wallNanos > max)
            max = stats.wallNanos;
    return max;
}

std::vector<CellFailure>
ExperimentDriver::quarantineReport() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<CellFailure> report;
    report.reserve(quarantine_.size());
    for (const auto &[key, failure] : quarantine_)
        report.push_back(failure);
    return report;
}

double
ExperimentDriver::cachedCellSeconds() const
{
    // Callers may poll progress while a prefetch() is filling cache_
    // on worker threads; iterating unlocked would be a data race.
    std::lock_guard<std::mutex> lock(mutex_);
    double seconds = 0.0;
    for (const auto &[key, stats] : cache_)
        seconds += static_cast<double>(stats.wallNanos) * 1e-9;
    return seconds;
}

std::size_t
ExperimentDriver::cachedCells() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return cache_.size();
}

// The aggregation math lives in these free functions so the local
// driver and the fleet router reduce cells through the *same* code:
// the driver binds stats() below, the router binds a lookup over
// shard-returned stats, and both produce identical doubles (hence
// identical rendered bytes) by construction.

double
hmeanIpcOver(const std::vector<const WorkloadSpec *> &set, char config,
             unsigned width, const CellStatsFn &stats)
{
    std::vector<double> ipcs;
    ipcs.reserve(set.size());
    for (const WorkloadSpec *spec : set)
        ipcs.push_back(stats(*spec, config, width).ipc());
    return harmonicMean(ipcs);
}

double
hmeanSpeedupOver(const std::vector<const WorkloadSpec *> &set,
                 char config, unsigned width, const CellStatsFn &stats)
{
    std::vector<double> speedups;
    speedups.reserve(set.size());
    for (const WorkloadSpec *spec : set) {
        const double base = stats(*spec, 'A', width).ipc();
        const double that = stats(*spec, config, width).ipc();
        ddsc_assert(base > 0.0, "zero base IPC for %s",
                    spec->name.c_str());
        speedups.push_back(that / base);
    }
    return harmonicMean(speedups);
}

CollapseStats
mergedCollapseOver(const std::vector<const WorkloadSpec *> &set,
                   char config, unsigned width,
                   const CellStatsFn &stats)
{
    CollapseStats merged;
    for (const WorkloadSpec *spec : set)
        merged.merge(stats(*spec, config, width).collapse);
    return merged;
}

double
pctCollapsedOver(const std::vector<const WorkloadSpec *> &set,
                 char config, unsigned width, const CellStatsFn &stats)
{
    std::uint64_t collapsed = 0;
    std::uint64_t total = 0;
    for (const WorkloadSpec *spec : set) {
        const SchedStats &s = stats(*spec, config, width);
        collapsed += s.collapse.collapsedInstructions();
        total += s.instructions;
    }
    return percent(static_cast<double>(collapsed),
                   static_cast<double>(total));
}

double
meanLoadClassPctOver(const std::vector<const WorkloadSpec *> &set,
                     char config, unsigned width, LoadClass cls,
                     const CellStatsFn &stats)
{
    std::vector<double> pcts;
    pcts.reserve(set.size());
    for (const WorkloadSpec *spec : set)
        pcts.push_back(stats(*spec, config, width).loadClassPct(cls));
    return arithmeticMean(pcts);
}

double
ExperimentDriver::hmeanIpc(const std::vector<const WorkloadSpec *> &set,
                           char config, unsigned width)
{
    prefetch(cellsFor(set, std::string(1, config), {width}));
    return hmeanIpcOver(set, config, width,
                        [this](const WorkloadSpec &s, char c,
                               unsigned w) -> const SchedStats & {
                            return stats(s, c, w);
                        });
}

double
ExperimentDriver::hmeanSpeedup(
    const std::vector<const WorkloadSpec *> &set, char config,
    unsigned width)
{
    prefetch(cellsFor(set, std::string("A") + config, {width}));
    return hmeanSpeedupOver(set, config, width,
                            [this](const WorkloadSpec &s, char c,
                                   unsigned w) -> const SchedStats & {
                                return stats(s, c, w);
                            });
}

CollapseStats
ExperimentDriver::mergedCollapse(
    const std::vector<const WorkloadSpec *> &set, char config,
    unsigned width)
{
    prefetch(cellsFor(set, std::string(1, config), {width}));
    return mergedCollapseOver(set, config, width,
                              [this](const WorkloadSpec &s, char c,
                                     unsigned w) -> const SchedStats & {
                                  return stats(s, c, w);
                              });
}

double
ExperimentDriver::pctCollapsed(
    const std::vector<const WorkloadSpec *> &set, char config,
    unsigned width)
{
    prefetch(cellsFor(set, std::string(1, config), {width}));
    return pctCollapsedOver(set, config, width,
                            [this](const WorkloadSpec &s, char c,
                                   unsigned w) -> const SchedStats & {
                                return stats(s, c, w);
                            });
}

double
ExperimentDriver::meanLoadClassPct(
    const std::vector<const WorkloadSpec *> &set, char config,
    unsigned width, LoadClass cls)
{
    prefetch(cellsFor(set, std::string(1, config), {width}));
    return meanLoadClassPctOver(
        set, config, width, cls,
        [this](const WorkloadSpec &s, char c,
               unsigned w) -> const SchedStats & {
            return stats(s, c, w);
        });
}

std::vector<const WorkloadSpec *>
ExperimentDriver::everything()
{
    std::vector<const WorkloadSpec *> set;
    for (const WorkloadSpec &spec : allWorkloads())
        set.push_back(&spec);
    return set;
}

} // namespace ddsc
