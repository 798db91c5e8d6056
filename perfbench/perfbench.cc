/**
 * @file
 * The repository benchmark's binary: runs one workload over the ddsc
 * libraries, checks every output against pinned references, and prints
 * the metrics as one JSON line.  run.py builds and drives it; see
 * README.md for the workloads, the metric dictionary and the modes.
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             --work-dir DIR --references FILE
 *   perfbench --write-references FILE
 *   perfbench --list-metrics
 *
 * Every run starts cold in fresh directories under --work-dir.  Its
 * load is this one process: simulation workers sum to nproc, and
 * serve-fleet runs nproc closed-loop clients.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "helpers.hh"
#include "net/client.hh"
#include "serve/router.hh"
#include "serve/server.hh"
#include "sim/batched.hh"
#include "sim/experiment.hh"
#include "sim/matrix_query.hh"
#include "sim/result_store.hh"
#include "support/portfile.hh"
#include "trace/mapped.hh"
#include "trace/source.hh"
#include "workloads/workloads.hh"

// ---------------------------------------------------------------------
// Allocation counting (traced runs only): every operator new in the
// process, simulation workers and servers included.

namespace
{
std::atomic<bool> gCountAllocs{false};
std::atomic<std::uint64_t> gAllocs{0};

void *
countedAlloc(std::size_t n, std::size_t align)
{
    if (gCountAllocs.load(std::memory_order_relaxed))
        gAllocs.fetch_add(1, std::memory_order_relaxed);
    if (n == 0)
        n = 1;
    void *p = align <= alignof(std::max_align_t)
        ? std::malloc(n)
        : std::aligned_alloc(align, (n + align - 1) / align * align);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}
} // namespace

void *operator new(std::size_t n) { return countedAlloc(n, 0); }
void *
operator new(std::size_t n, std::align_val_t a)
{
    return countedAlloc(n, static_cast<std::size_t>(a));
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace perfbench
{
namespace
{

using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;
using ddsc::ExperimentCell;
using ddsc::ExperimentDriver;
using ddsc::MachineConfig;
using ddsc::MatrixQuery;
using ddsc::MatrixResult;
using ddsc::SchedStats;

/** Set-ups per run; setup_s is their median. */
constexpr std::size_t kSetupRepeats = 3;
/** Warm samples needed before p99 has 10 samples beyond it. */
constexpr std::size_t kMinWarmSamples = 1100;
/** Routed/direct probe passes over the shape catalog (traced). */
constexpr std::size_t kProbePasses = 20;
/** Residency budget of sweep-narrow-mapped, below its ~305 MB
 *  corpus so the LRU must evict. */
constexpr std::uint64_t kMappedBudgetMb = 128;
/** Share of --seconds the cold rounds may start into. */
constexpr double kColdShare = 0.75;
/** Least share of --seconds the warm phase runs, however long the
 *  cold phase took. */
constexpr double kWarmShare = 0.2;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

unsigned
hostCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;     // KiB -> MiB
}

std::string
loadavgNow()
{
    double load[3] = {0, 0, 0};
    if (getloadavg(load, 3) != 3)
        return "unknown";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.2f %.2f %.2f", load[0], load[1],
                  load[2]);
    return buf;
}

// ---------------------------------------------------------------------
// Spans, recorded in memory and written out when the run ends.

class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on) {}

    bool on() const { return on_; }

    std::uint64_t
    now() const
    {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - epoch_).count());
    }

    /** Open a span; -1 (and no work) when tracing is off. */
    std::int64_t
    begin(const std::string &name, const std::string &layer,
          std::int64_t parent)
    {
        if (!on_)
            return -1;
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back({name, layer, parent, now(), 0});
        return static_cast<std::int64_t>(spans_.size() - 1);
    }

    void
    end(std::int64_t id)
    {
        if (id < 0)
            return;
        const std::uint64_t t = now();
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[static_cast<std::size_t>(id)].end = t;
    }

    /** Record a span whose interval the caller measured itself. */
    void
    add(const std::string &name, const std::string &layer,
        std::int64_t parent, std::uint64_t start, std::uint64_t end)
    {
        if (!on_)
            return;
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back({name, layer, parent, start, end});
    }

    std::vector<Span>
    spans() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return spans_;
    }

  private:
    const bool on_;
    const Clock::time_point epoch_ = Clock::now();
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

class ScopedSpan
{
  public:
    ScopedSpan(Tracer &tracer, const std::string &name,
               const std::string &layer, std::int64_t parent)
        : tracer_(tracer), id_(tracer.begin(name, layer, parent))
    {}
    ~ScopedSpan() { tracer_.end(id_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::int64_t id() const { return id_; }

  private:
    Tracer &tracer_;
    std::int64_t id_;
};

// ---------------------------------------------------------------------
// Pinned references: per-cell digestSchedStats values and FNV-1a of
// each query shape's rendered CSV bytes.

std::string
widthList(const std::vector<unsigned> &widths)
{
    std::string out;
    for (const unsigned w : widths)
        out += (out.empty() ? "" : ",") + std::to_string(w);
    return out;
}

std::string
shapeKey(const MatrixQuery &q)
{
    return "render/" + q.metric + "/" + q.set + "/" + q.configs + "/" +
           widthList(q.widths);
}

std::string
cellKey(const ExperimentCell &c)
{
    return "cell/" + c.spec->name + "/" + std::string(1, c.config) + "/" +
           std::to_string(c.width);
}

std::uint64_t
renderHash(const MatrixResult &r)
{
    return fnv1a(r.render(true));
}

class References
{
  public:
    bool
    load(const std::string &path)
    {
        std::ifstream in(path);
        if (!in)
            return false;
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#')
                continue;
            std::istringstream fields(line);
            std::string key, hex;
            if (!(fields >> key >> hex))
                return false;
            values_[key] = std::strtoull(hex.c_str(), nullptr, 16);
        }
        return !values_.empty();
    }

    /** True when @p key is pinned with exactly @p value. */
    bool
    matches(const std::string &key, std::uint64_t value) const
    {
        const auto it = values_.find(key);
        return it != values_.end() && it->second == value;
    }

  private:
    std::map<std::string, std::uint64_t> values_;
};

// ---------------------------------------------------------------------
// Query shapes.

MatrixQuery
makeQuery(const std::string &metric, const std::string &set,
          const std::string &configs, const std::vector<unsigned> &widths)
{
    MatrixQuery q;
    q.metric = metric;
    q.set = set;
    q.configs = configs;
    q.widths = widths;
    return q;
}

/** Every paper view of one slice: {ipc, speedup, collapsed} x
 *  {all, pc, npc}.  The first is the slice's cold query. */
std::vector<MatrixQuery>
figureSet(const std::string &configs, const std::vector<unsigned> &widths)
{
    std::vector<MatrixQuery> out;
    for (const char *metric : {"ipc", "speedup", "collapsed"})
        for (const char *set : {"all", "pc", "npc"})
            out.push_back(makeQuery(metric, set, configs, widths));
    return out;
}

/** Full paper views at the head of serveCatalog(). */
constexpr std::size_t kFullViews = 9;
/** Share of serve-fleet's warm queries that are full views; the rest
 *  are one-width columns.  An assumption, not observed traffic (see
 *  README.md): a full view costs ~36k allocations through the router,
 *  and a 3/4 share made warm latency swing 15-27 ms between runs on a
 *  shared host. */
constexpr double kFullViewShare = 1.0 / 6;

/** serve-fleet's warm shapes: the full paper matrix in every view
 *  (the first kFullViews), then one-width columns of each view. */
std::vector<MatrixQuery>
serveCatalog()
{
    const std::vector<unsigned> widths = MachineConfig::paperWidths();
    std::vector<MatrixQuery> out = figureSet("ABCDE", widths);
    for (const MatrixQuery &full : figureSet("ABCDE", widths))
        for (const unsigned w : widths)
            out.push_back(makeQuery(full.metric, full.set, "ABCDE", {w}));
    return out;
}

struct SweepSpec
{
    std::string name;
    std::string configs;
    std::vector<unsigned> widths;
    bool mapped;
};

SweepSpec
sweepWide()
{
    return {"sweep-wide", "ABCDE", MachineConfig::paperWidths(), false};
}

SweepSpec
sweepNarrowMapped()
{
    return {"sweep-narrow-mapped", "ABCDEFG", {4, 8}, true};
}

// ---------------------------------------------------------------------
// Results.

struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::map<std::string, double> metrics;
    std::vector<std::string> notes;     ///< printed before the result
};

void
setWarmMetrics(Outcome &out, const std::vector<double> &latencies_ms,
               double wall_s)
{
    const PercentilePick p99 =
        highestReportable(latencies_ms, {99.0});
    out.metrics["warm_p50_ms"] = median(latencies_ms);
    if (p99.percentile > 0)
        out.metrics["warm_p99_ms"] = p99.value;
    out.metrics["warm_qps"] =
        static_cast<double>(latencies_ms.size()) / wall_s;
    out.notes.push_back("warm samples " +
                        std::to_string(latencies_ms.size()) +
                        ", beyond p99 " + std::to_string(p99.beyond));
}

/** Materialize every workload trace of @p driver, one span each.
 *  Serial, as a cold ExperimentDriver::prefetch() generates them.  With
 *  a trace dir the same call also spills and maps the trace, so the
 *  span holds both. */
void
materializeTraces(ExperimentDriver &driver, Tracer &tracer,
                  std::int64_t parent)
{
    for (const ddsc::WorkloadSpec *spec : ExperimentDriver::everything()) {
        ScopedSpan span(tracer, "driver.trace", "workloads", parent);
        driver.trace(*spec);
    }
}

std::uint64_t
instructionsOf(ExperimentDriver &driver,
               const std::vector<ExperimentCell> &cells)
{
    std::uint64_t n = 0;
    for (const ExperimentCell &c : cells)
        n += driver.trace(*c.spec).recordCount();
    return n;
}

/** One timed cursor pass per workload: ns per record. */
double
decodePass(const std::function<const ddsc::SharedTrace &(
               const ddsc::WorkloadSpec &)> &trace_of,
           Tracer &tracer, std::int64_t parent)
{
    std::uint64_t records = 0;
    double seconds = 0;
    for (const ddsc::WorkloadSpec *spec : ExperimentDriver::everything()) {
        const ddsc::SharedTrace &trace = trace_of(*spec);
        ScopedSpan span(tracer, "trace.cursor_pass", "trace", parent);
        const Clock::time_point t0 = Clock::now();
        std::unique_ptr<ddsc::TraceSource> cursor = trace.cursor();
        ddsc::TraceRecord rec;
        std::uint64_t n = 0;
        while (cursor->next(rec))
            ++n;
        seconds += secondsSince(t0);
        records += n;
    }
    return records == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(records);
}

/** workloads.gen_s / records and (with @p spill_dir) trace.spill_s:
 *  regenerate every workload once and write it as DDSCTRC v4. */
void
genAndSpillProbe(Outcome &out, const std::string &spill_dir,
                 Tracer &tracer, std::int64_t parent)
{
    double gen_s = 0;
    double spill_s = 0;
    std::uint64_t records = 0;
    for (const ddsc::WorkloadSpec *spec : ExperimentDriver::everything()) {
        Clock::time_point t0 = Clock::now();
        std::optional<ddsc::VectorTraceSource> trace;
        {
            ScopedSpan span(tracer, "workloads.traceWorkload", "workloads",
                            parent);
            trace.emplace(ddsc::traceWorkload(*spec));
        }
        gen_s += secondsSince(t0);
        records += trace->size();
        if (spill_dir.empty())
            continue;
        const std::string path = spill_dir + "/" + spec->name + ".trc";
        t0 = Clock::now();
        {
            ScopedSpan span(tracer, "trace.spill", "trace", parent);
            ddsc::TraceFileWriter writer(path);
            for (const ddsc::TraceRecord &rec : trace->records())
                writer.emit(rec);
            writer.close();
        }
        spill_s += secondsSince(t0);
        fs::remove(path);
    }
    out.metrics["workloads.gen_s"] = gen_s;
    out.metrics["workloads.records"] = static_cast<double>(records);
    out.metrics["trace.spill_s"] = spill_s;
}

/** The front-end share of a set of cells: one timed front-end-only
 *  pass per (workload, front-end fingerprint) group, grouped as
 *  ExperimentDriver::prefetch() groups them.  Each pass is the fill()
 *  loop runBatchedGroup() times as frontEndNanos, with no back-end. */
struct FrontEndShare
{
    std::uint64_t passes = 0;
    std::uint64_t records = 0;
    double seconds = 0;
    std::map<std::string, double> perCellS;     ///< cellKey -> share
};

FrontEndShare
frontEndProbe(const std::vector<ExperimentCell> &cells,
              const std::function<const ddsc::SharedTrace &(
                  const ddsc::WorkloadSpec &)> &trace_of,
              Tracer &tracer, std::int64_t parent)
{
    struct Group
    {
        const ddsc::WorkloadSpec *spec;
        MachineConfig config;
        bool collapsing = false;
        std::vector<std::string> keys;
    };
    std::vector<Group> groups;
    std::map<std::pair<std::string, std::string>, std::size_t> index;
    std::set<std::string> seen;
    for (const ExperimentCell &c : cells) {
        if (!seen.insert(cellKey(c)).second)
            continue;
        const MachineConfig config = MachineConfig::paper(c.config, c.width);
        const auto [it, inserted] = index.try_emplace(
            {c.spec->name, config.frontEndFingerprint()}, groups.size());
        if (inserted)
            groups.push_back({c.spec, config, false, {}});
        Group &g = groups[it->second];
        // As in runBatchedGroup: the collapse columns are emitted when
        // any cell of the group collapses.
        g.collapsing = g.collapsing || config.collapsing;
        g.keys.push_back(cellKey(c));
    }

    FrontEndShare out;
    for (const Group &g : groups) {
        const ddsc::SharedTrace &trace = trace_of(*g.spec);
        ScopedSpan span(tracer, "frontend.pass", "frontend", parent);
        const Clock::time_point t0 = Clock::now();
        ddsc::SpecFrontEnd fe(g.config);
        fe.setCollapseColumns(g.collapsing);
        ddsc::FrontEndBatch batch;
        const std::unique_ptr<ddsc::TraceSource> cursor = trace.cursor();
        while (const std::size_t n =
                   fe.fill(*cursor, batch, ddsc::kBatchedChunk))
            out.records += n;
        const double s = secondsSince(t0);
        ++out.passes;
        out.seconds += s;
        for (const std::string &key : g.keys)
            out.perCellS[key] = s / static_cast<double>(g.keys.size());
    }
    return out;
}

/** frontend.* and scheduler.* from the probe and the per-cell stats of
 *  the unique cells of @p cells: a cell's back-end time is its
 *  wallNanos minus its share of the front-end pass. */
void
setEngineMetrics(Outcome &out, const std::vector<ExperimentCell> &cells,
                 const std::map<std::string, SchedStats> &stats,
                 const FrontEndShare &fe)
{
    std::map<unsigned, double> back_end_s;
    std::map<unsigned, std::uint64_t> instrs;
    std::uint64_t cycles = 0;
    std::set<std::string> seen;
    for (const ExperimentCell &c : cells) {
        const std::string key = cellKey(c);
        const auto it = stats.find(key);
        // A cell that failed is counted by the correctness gate.
        if (!seen.insert(key).second || it == stats.end())
            continue;
        const SchedStats &s = it->second;
        back_end_s[c.width] +=
            static_cast<double>(s.wallNanos) * 1e-9 - fe.perCellS.at(key);
        instrs[c.width] += s.instructions;
        cycles += s.cycles;
    }
    double busy = 0;
    for (const auto &[width, s] : back_end_s) {
        busy += s;
        out.metrics["scheduler.ns_per_instr.w" +
                    MachineConfig::widthLabel(width)] =
            s * 1e9 / static_cast<double>(instrs[width]);
    }
    out.metrics["scheduler.busy_s"] = busy;
    out.metrics["scheduler.cycles"] = static_cast<double>(cycles);
    out.metrics["frontend.busy_s"] = fe.seconds;
    out.metrics["frontend.ns_per_rec"] =
        fe.seconds * 1e9 /
        static_cast<double>(std::max<std::uint64_t>(1, fe.records));
    out.metrics["frontend.passes"] = static_cast<double>(fe.passes);
}

// ---------------------------------------------------------------------
// The sweeps.

struct SweepRound
{
    double setupS = 0;
    double prefetchS = 0;
    double coldQueryS = 0;
    std::uint64_t instructions = 0;
    std::int64_t prefetchSpan = -1;
    double cellS = 0;       ///< summed cell wallNanos
};

/** The layer figures of the first cold round (traced runs). */
struct SweepLayers
{
    std::map<std::string, SchedStats> stats;    ///< by cellKey
    std::uint64_t allocs = 0;
    std::uint64_t evictions = 0;
    std::uint64_t residentPeak = 0;
};

Outcome
runSweep(const SweepSpec &spec, double seconds, unsigned nproc,
         const fs::path &work, const References &refs, Tracer &tracer)
{
    Outcome out;
    const unsigned jobs = nproc;
    out.notes.push_back("simulation workers " + std::to_string(jobs) +
                        ", client threads 1; the six analogues are "
                        "fixed inputs, independent of --seed");
    const std::vector<MatrixQuery> views =
        figureSet(spec.configs, spec.widths);
    const MatrixQuery &cold = views.front();
    const std::vector<ExperimentCell> cells = cold.cells();

    const Clock::time_point start = Clock::now();
    const std::int64_t root = tracer.begin(spec.name, "", -1);
    std::vector<double> setups;
    std::vector<SweepRound> rounds;
    SweepLayers layers;
    std::unique_ptr<ExperimentDriver> driver;
    std::size_t k = 0;
    for (;; ++k) {
        const fs::path dir = work / ("round-" + std::to_string(k));
        driver.reset();
        if (k > 0)
            fs::remove_all(work / ("round-" + std::to_string(k - 1)));
        fs::create_directories(dir);

        // Set-up: a cold driver and every workload trace (spilled and
        // mapped on sweep-narrow-mapped).
        const std::int64_t setup = tracer.begin("setup", "", root);
        Clock::time_point t0 = Clock::now();
        driver = std::make_unique<ExperimentDriver>(0, false, jobs);
        if (spec.mapped) {
            driver->setTraceDir((dir / "traces").string());
            driver->setTraceBudgetMb(kMappedBudgetMb);
        }
        materializeTraces(*driver, tracer, setup);
        setups.push_back(secondsSince(t0));
        tracer.end(setup);
        // The first set-ups only sample set-up time.
        if (k + 1 < kSetupRepeats)
            continue;

        SweepRound round;
        round.setupS = setups.back();
        round.instructions = instructionsOf(*driver, cells);
        const bool first = rounds.empty();
        // The traced run samples the charged residency during the
        // first round's prefetch.
        std::atomic<bool> swept{false};
        std::thread sampler;
        if (tracer.on() && first)
            sampler = std::thread([&]() {
                while (!swept.load()) {
                    layers.residentPeak =
                        std::max(layers.residentPeak,
                                 driver->traceResidency().residentBytes);
                    std::this_thread::sleep_for(std::chrono::milliseconds(1));
                }
            });
        const std::uint64_t allocs0 = gAllocs.load();
        const std::uint64_t evictions0 = driver->traceResidency().evictions;
        const std::int64_t phase = tracer.begin("cold", "", root);
        t0 = Clock::now();
        {
            ScopedSpan span(tracer, "sim.prefetch", "sim", phase);
            driver->prefetch(cells);
            round.prefetchS = secondsSince(t0);
            round.prefetchSpan = span.id();
        }
        swept.store(true);
        if (sampler.joinable())
            sampler.join();
        if (first) {
            layers.allocs = gAllocs.load() - allocs0;
            layers.evictions =
                driver->traceResidency().evictions - evictions0;
        }
        MatrixResult result;
        {
            ScopedSpan span(tracer, "sim.runMatrixQuery", "sim", phase);
            result = ddsc::runMatrixQuery(*driver, cold);
        }
        round.coldQueryS = secondsSince(t0);
        tracer.end(phase);

        // Correctness: every cell's digest and the rendered bytes.
        std::set<std::string> checked;
        std::map<std::string, SchedStats> stats;
        for (const ExperimentCell &c : cells) {
            if (!checked.insert(cellKey(c)).second)
                continue;
            ++out.attempted;
            std::uint64_t digest = 0;
            try {
                const SchedStats &s =
                    driver->stats(*c.spec, c.config, c.width);
                digest = ddsc::digestSchedStats(s);
                stats[cellKey(c)] = s;
                round.cellS += static_cast<double>(s.wallNanos) * 1e-9;
            } catch (const std::exception &e) {
                out.notes.push_back(cellKey(c) + ": " + e.what());
            }
            if (!refs.matches(cellKey(c), digest)) {
                ++out.failed;
                out.notes.push_back("digest mismatch " + cellKey(c));
            }
        }
        ++out.attempted;
        if (!result.quarantined.empty() || result.interrupted ||
            !refs.matches(shapeKey(cold), renderHash(result))) {
            ++out.failed;
            out.notes.push_back("render mismatch " + shapeKey(cold));
        }
        if (driver->simulatedCells() != checked.size()) {
            ++out.failed;
            out.notes.push_back("driver simulated " +
                                std::to_string(driver->simulatedCells()) +
                                " cells");
        }
        if (first)
            layers.stats = std::move(stats);
        rounds.push_back(round);

        if (secondsSince(start) + round.setupS + round.coldQueryS >
            kColdShare * seconds)
            break;
    }

    // Warm phase: a researcher re-rendering the paper views of the
    // slice from the warm driver, in a fixed cycle, one thread, closed
    // loop.
    std::vector<double> latencies;
    const std::int64_t warm = tracer.begin("warm", "", root);
    const Clock::time_point warm0 = Clock::now();
    const double warm_until =
        std::max<double>(seconds, secondsSince(start) + kWarmShare * seconds);
    for (std::size_t i = 0; secondsSince(start) < warm_until ||
                            latencies.size() < kMinWarmSamples;
         ++i) {
        const MatrixQuery &view = views[i % views.size()];
        ++out.attempted;
        const Clock::time_point t0 = Clock::now();
        MatrixResult r;
        {
            ScopedSpan span(tracer, "sim.runMatrixQuery", "sim", warm);
            r = ddsc::runMatrixQuery(*driver, view);
        }
        const bool ok = r.quarantined.empty() &&
                        refs.matches(shapeKey(view), renderHash(r));
        latencies.push_back(ok ? secondsSince(t0) * 1e3 : INFINITY);
        if (!ok) {
            ++out.failed;
            out.notes.push_back("render mismatch " + shapeKey(view));
        }
    }
    const double warm_s = secondsSince(warm0);
    tracer.end(warm);

    std::vector<double> minstr;
    std::vector<double> colds;
    for (const SweepRound &r : rounds) {
        minstr.push_back(static_cast<double>(r.instructions) / r.prefetchS /
                         1e6);
        colds.push_back(r.coldQueryS);
    }
    out.metrics["setup_s"] = median(setups);
    out.metrics["sim_minstr_per_s"] = median(minstr);
    out.metrics["cold_query_s"] = median(colds);
    setWarmMetrics(out, latencies, warm_s);
    out.notes.push_back("cold rounds " + std::to_string(rounds.size()) +
                        ", set-ups " + std::to_string(setups.size()));
    // Before the traced run's probes, which hold traces of their own.
    out.metrics["peak_rss_mb"] = peakRssMb();

    if (tracer.on()) {
        const auto trace_of =
            [&](const ddsc::WorkloadSpec &s) -> const ddsc::SharedTrace & {
            return driver->trace(s);
        };
        const std::int64_t probes = tracer.begin("probes", "", root);
        const fs::path spill = work / "spill-probe";
        if (spec.mapped)
            fs::create_directories(spill);
        genAndSpillProbe(out, spec.mapped ? spill.string() : "", tracer,
                         probes);
        out.metrics["trace.decode_ns_per_rec"] =
            decodePass(trace_of, tracer, probes);
        const FrontEndShare fe = frontEndProbe(cells, trace_of, tracer, probes);
        tracer.end(probes);

        // prefetch() runs the front-end and the back-ends on its
        // workers, out of the benchmark's sight.  Each prefetch span
        // gets a frontend and a scheduler child as long as their busy
        // time per worker, laid end to end from the span's start; the
        // rest of the span (idle workers, the driver) stays sim.
        const std::vector<Span> spans = tracer.spans();
        for (const SweepRound &r : rounds) {
            const Span &p = spans[static_cast<std::size_t>(r.prefetchSpan)];
            const auto per_worker = [&](double s) {
                return static_cast<std::uint64_t>(std::max(0.0, s) * 1e9 /
                                                  jobs);
            };
            const std::uint64_t mid =
                std::min(p.end, p.start + per_worker(fe.seconds));
            tracer.add("frontend.share", "frontend", r.prefetchSpan,
                       p.start, mid);
            tracer.add("scheduler.share", "scheduler", r.prefetchSpan, mid,
                       std::min(p.end, mid + per_worker(r.cellS -
                                                        fe.seconds)));
        }

        setEngineMetrics(out, cells, layers.stats, fe);
        out.metrics["trace.evictions"] =
            static_cast<double>(layers.evictions);
        out.metrics["trace.resident_peak_mb"] =
            static_cast<double>(layers.residentPeak) / (1 << 20);
        out.metrics["scheduler.allocs_per_cell"] =
            static_cast<double>(layers.allocs) /
            static_cast<double>(
                std::max<std::size_t>(1, layers.stats.size()));
        out.metrics["sim.parallel_eff"] = parallelEfficiency(
            rounds.front().cellS, rounds.front().prefetchS, jobs);
        out.metrics["sim.query_agg_us"] = median(latencies) * 1e3;
        out.notes.push_back("layer figures from cold round 1 of " +
                            std::to_string(rounds.size()) +
                            "; no result store, so sim.store_* are 0");
    }
    tracer.end(root);
    return out;
}

// ---------------------------------------------------------------------
// serve-fleet.

/** Two shard Servers and a Router over them, all in this process, as
 *  in tests/router_test.cpp. */
class Fleet
{
  public:
    Fleet(const fs::path &dir, const std::vector<unsigned> &shard_jobs,
          unsigned max_sessions)
    {
        try {
            start(dir, shard_jobs, max_sessions);
        } catch (...) {
            shutdown();
            throw;
        }
    }

    ~Fleet() { shutdown(); }

    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;

    std::uint16_t port() const { return router_->port(); }
    ddsc::serve::Router &router() { return *router_; }
    std::size_t shards() const { return servers_.size(); }
    ddsc::serve::Server &shard(std::size_t i) { return *servers_[i]; }

    /** Summed shard counters. */
    ddsc::net::ServerInfo
    shardInfo() const
    {
        ddsc::net::ServerInfo sum;
        for (const auto &s : servers_) {
            const ddsc::net::ServerInfo i = s->infoSnapshot();
            sum.simulated += i.simulated;
            sum.storeHits += i.storeHits;
            sum.coalesced += i.coalesced;
            sum.requestsServed += i.requestsServed;
        }
        return sum;
    }

  private:
    void
    start(const fs::path &dir, const std::vector<unsigned> &shard_jobs,
          unsigned max_sessions)
    {
        for (std::size_t i = 0; i < shard_jobs.size(); ++i) {
            const fs::path shard = dir / ("shard-" + std::to_string(i));
            fs::create_directories(shard);
            ddsc::serve::ServerOptions opts;
            opts.jobs = shard_jobs[i];
            opts.cacheDir = (shard / "store").string();
            opts.maxSessions = max_sessions;
            servers_.push_back(
                std::make_unique<ddsc::serve::Server>(opts));
            if (!servers_.back()->valid())
                throw std::runtime_error("shard failed to bind");
            threads_.emplace_back(
                [srv = servers_.back().get()]() { srv->run(); });
            const std::string port_file = (shard / "port").string();
            ddsc::support::writeOneLineAtomic(port_file,
                                              servers_.back()->port());
            state_.add(port_file, opts.cacheDir);
        }
        ddsc::serve::RouterOptions opts;
        opts.maxSessions = max_sessions;
        router_ = std::make_unique<ddsc::serve::Router>(opts, state_);
        if (!router_->valid())
            throw std::runtime_error("router failed to bind");
        routerThread_ = std::thread([this]() { router_->run(); });
    }

    /** Drain the router, then the shards, joining every thread. */
    void
    shutdown()
    {
        if (routerThread_.joinable()) {
            router_->stop();
            routerThread_.join();
        }
        for (auto &s : servers_)
            s->stop();
        for (std::thread &t : threads_)
            t.join();
        threads_.clear();
    }

    ddsc::serve::FleetState state_;
    std::vector<std::unique_ptr<ddsc::serve::Server>> servers_;
    std::vector<std::thread> threads_;
    std::unique_ptr<ddsc::serve::Router> router_;
    std::thread routerThread_;
};

/** The cells of @p q owned by shard @p k of @p shards. */
ddsc::net::CellsBatch
shardBatch(const MatrixQuery &q, unsigned k, std::size_t shards)
{
    ddsc::net::CellsBatch batch;
    std::set<std::string> seen;
    for (const ExperimentCell &c : q.cells()) {
        if (ddsc::serve::shardForCell(c.config, c.width, shards) != k ||
            !seen.insert(cellKey(c)).second)
            continue;
        batch.cells.push_back({c.spec->name, c.config, c.width});
    }
    return batch;
}

Outcome
runServeFleet(std::uint64_t seed, double seconds, unsigned nproc,
              const fs::path &work, const References &refs, Tracer &tracer)
{
    Outcome out;
    const unsigned clients = nproc;
    out.notes.push_back(
        "warm mix: full paper views (" + std::to_string(kFullViews) +
        " shapes) with probability " + formatNumber(kFullViewShare) +
        ", else one-width columns (" +
        std::to_string(serveCatalog().size() - kFullViews) +
        " shapes), uniform within each part");
    const std::vector<unsigned> shard_jobs = {(nproc + 1) / 2,
                                              std::max(1u, nproc / 2)};
    out.notes.push_back(
        "shard workers " + std::to_string(shard_jobs[0]) + "+" +
        std::to_string(shard_jobs[1]) + ", client threads " +
        std::to_string(clients) + ", closed loop; --seed drives the "
        "shape mix and each client's order");
    const std::vector<MatrixQuery> catalog = serveCatalog();
    const MatrixQuery &cold = catalog.front();
    const std::vector<ExperimentCell> cells = cold.cells();
    std::set<std::string> unique_keys;
    for (const ExperimentCell &c : cells)
        unique_keys.insert(cellKey(c));
    const std::size_t unique_cells = unique_keys.size();

    const Clock::time_point start = Clock::now();
    const std::int64_t root = tracer.begin("serve-fleet", "", -1);
    std::vector<double> setups;
    std::unique_ptr<Fleet> fleet;
    for (std::size_t k = 0; k < kSetupRepeats; ++k) {
        fleet.reset();
        if (k > 0)
            fs::remove_all(work / ("fleet-" + std::to_string(k - 1)));
        const fs::path dir = work / ("fleet-" + std::to_string(k));
        const std::int64_t setup = tracer.begin("setup", "", root);
        const Clock::time_point t0 = Clock::now();
        {
            ScopedSpan span(tracer, "serve.start", "serve", setup);
            fleet = std::make_unique<Fleet>(dir, shard_jobs, clients + 8);
        }
        // Each shard's driver materializes every workload trace; the
        // shards do so side by side.
        std::vector<std::thread> shards;
        for (std::size_t i = 0; i < fleet->shards(); ++i)
            shards.emplace_back([&, i]() {
                materializeTraces(fleet->shard(i).driver(), tracer, setup);
            });
        for (std::thread &t : shards)
            t.join();
        setups.push_back(secondsSince(t0));
        tracer.end(setup);
    }
    std::uint64_t instructions = 0;
    for (const ExperimentCell &c : cells)
        instructions +=
            fleet->shard(0).driver().trace(*c.spec).recordCount();

    std::vector<std::unique_ptr<ddsc::net::Client>> conns;
    for (unsigned c = 0; c < clients; ++c)
        conns.push_back(std::make_unique<ddsc::net::Client>(fleet->port()));

    // Cold phase: every client sends the same first query at once.
    std::mutex mutex;
    std::vector<double> cold_s;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
    auto check = [&](const MatrixQuery &q, const MatrixResult &r) {
        return r.quarantined.empty() && !r.interrupted &&
               refs.matches(shapeKey(q), renderHash(r));
    };
    const std::uint64_t allocs_cold0 = gAllocs.load();
    const std::int64_t cold_phase = tracer.begin("cold", "", root);
    {
        std::barrier sync(static_cast<std::ptrdiff_t>(clients));
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < clients; ++c) {
            threads.emplace_back([&, c]() {
                sync.arrive_and_wait();
                const Clock::time_point t0 = Clock::now();
                bool ok = false;
                std::string error;
                {
                    ScopedSpan span(tracer, "net.Client.matrix", "net",
                                    cold_phase);
                    try {
                        ok = check(cold, conns[c]->matrix(cold));
                    } catch (const std::exception &e) {
                        error = e.what();
                    }
                }
                const double s = secondsSince(t0);
                std::lock_guard<std::mutex> lock(mutex);
                cold_s.push_back(ok ? s : INFINITY);
                if (!ok) {
                    ++failed;
                    errors.push_back("cold query: " +
                                     (error.empty() ? "wrong bytes" : error));
                }
            });
        }
        for (std::thread &t : threads)
            t.join();
    }
    tracer.end(cold_phase);
    const std::uint64_t allocs_cold = gAllocs.load() - allocs_cold0;
    const ddsc::net::ServerInfo after_cold = fleet->shardInfo();
    out.attempted += clients;

    // Warm phase: seeded shapes, closed loop, answered from cache.
    std::vector<double> latencies;
    std::atomic<std::size_t> done{0};
    const std::uint64_t allocs_warm0 = gAllocs.load();
    const std::int64_t warm_phase = tracer.begin("warm", "", root);
    const Clock::time_point warm0 = Clock::now();
    const double warm_until =
        std::max<double>(seconds, secondsSince(start) + kWarmShare * seconds);
    {
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < clients; ++c) {
            threads.emplace_back([&, c]() {
                std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + c);
                std::bernoulli_distribution full_view(kFullViewShare);
                std::uniform_int_distribution<std::size_t> pick_full(
                    0, kFullViews - 1);
                std::uniform_int_distribution<std::size_t> pick_column(
                    kFullViews, catalog.size() - 1);
                std::vector<double> mine;
                std::uint64_t my_failed = 0;
                std::vector<std::string> my_errors;
                while (secondsSince(start) < warm_until ||
                       done.load() < kMinWarmSamples) {
                    const MatrixQuery &q =
                        catalog[full_view(rng) ? pick_full(rng)
                                               : pick_column(rng)];
                    const Clock::time_point t0 = Clock::now();
                    bool ok = false;
                    std::string error;
                    {
                        ScopedSpan span(tracer, "net.Client.matrix", "net",
                                        warm_phase);
                        try {
                            ok = check(q, conns[c]->matrix(q));
                        } catch (const std::exception &e) {
                            error = e.what();
                        }
                    }
                    mine.push_back(ok ? secondsSince(t0) * 1e3 : INFINITY);
                    if (!ok) {
                        ++my_failed;
                        my_errors.push_back(shapeKey(q) + ": " +
                                            (error.empty() ? "wrong bytes"
                                                           : error));
                    }
                    done.fetch_add(1);
                }
                std::lock_guard<std::mutex> lock(mutex);
                latencies.insert(latencies.end(), mine.begin(), mine.end());
                failed += my_failed;
                errors.insert(errors.end(), my_errors.begin(),
                              my_errors.end());
            });
        }
        for (std::thread &t : threads)
            t.join();
    }
    const double warm_s = secondsSince(warm0);
    tracer.end(warm_phase);
    const std::uint64_t allocs_warm = gAllocs.load() - allocs_warm0;
    const ddsc::net::ServerInfo after_warm = fleet->shardInfo();
    out.attempted += latencies.size();
    out.failed += failed;
    for (std::size_t i = 0; i < std::min<std::size_t>(errors.size(), 10); ++i)
        out.notes.push_back(errors[i]);

    const double cold_wall = *std::max_element(cold_s.begin(), cold_s.end());
    out.metrics["setup_s"] = median(setups);
    out.metrics["sim_minstr_per_s"] =
        static_cast<double>(instructions) / cold_wall / 1e6;
    out.metrics["cold_query_s"] = median(cold_s);
    setWarmMetrics(out, latencies, warm_s);
    out.metrics["peak_rss_mb"] = peakRssMb();

    if (tracer.on()) {
        const std::int64_t probes = tracer.begin("probes", "", root);
        // Routed, shard-direct and client-observed latency of every
        // catalog shape, kProbePasses times.
        std::vector<std::unique_ptr<ddsc::net::Client>> direct;
        for (std::size_t k = 0; k < fleet->shards(); ++k)
            direct.push_back(std::make_unique<ddsc::net::Client>(
                fleet->shard(k).port()));
        std::vector<double> route_ms;
        std::vector<std::vector<double>> direct_ms(fleet->shards());
        std::vector<double> wire_ms;
        std::vector<double> agg_us;
        std::map<std::string, SchedStats> stats;
        std::uint64_t reply_bytes = 0;
        for (std::size_t pass = 0; pass < kProbePasses; ++pass) {
            for (const MatrixQuery &q : catalog) {
                Clock::time_point t0 = Clock::now();
                {
                    ScopedSpan span(tracer, "serve.Router.routeMatrix",
                                    "serve", probes);
                    fleet->router().routeMatrix(q);
                }
                const double routed = secondsSince(t0) * 1e3;
                route_ms.push_back(routed);
                for (std::size_t k = 0; k < fleet->shards(); ++k) {
                    const ddsc::net::CellsBatch batch =
                        shardBatch(q, static_cast<unsigned>(k),
                                   fleet->shards());
                    double ms = 0;
                    if (!batch.cells.empty()) {
                        t0 = Clock::now();
                        ScopedSpan span(tracer, "net.Client.cells", "net",
                                        probes);
                        const ddsc::net::CellsReplyMsg reply =
                            direct[k]->cells(batch);
                        ms = secondsSince(t0) * 1e3;
                        for (const ddsc::net::CellOutcome &o : reply.cells)
                            if (o.ok)
                                stats["cell/" + o.cell.workload + "/" +
                                      std::string(1, o.cell.config) + "/" +
                                      std::to_string(o.cell.width)] = o.stats;
                    }
                    direct_ms[k].push_back(ms);
                }
                t0 = Clock::now();
                MatrixResult r;
                {
                    ScopedSpan span(tracer, "net.Client.matrix", "net",
                                    probes);
                    r = conns[0]->matrix(q);
                }
                wire_ms.push_back(secondsSince(t0) * 1e3 - routed);
                if (pass == 0) {
                    std::string bytes;
                    r.encode(bytes);
                    reply_bytes += bytes.size();
                }
                ddsc::CellStatsFn lookup =
                    [&](const ddsc::WorkloadSpec &w, char config,
                        unsigned width) -> const SchedStats & {
                    return stats.at("cell/" + w.name + "/" +
                                    std::string(1, config) + "/" +
                                    std::to_string(width));
                };
                t0 = Clock::now();
                {
                    ScopedSpan span(tracer, "sim.aggregateMatrixResult",
                                    "sim", probes);
                    ddsc::aggregateMatrixResult(q, lookup);
                }
                agg_us.push_back(secondsSince(t0) * 1e6);
            }
        }
        const auto trace_of =
            [&](const ddsc::WorkloadSpec &s) -> const ddsc::SharedTrace & {
            return fleet->shard(0).driver().trace(s);
        };
        out.metrics["trace.decode_ns_per_rec"] =
            decodePass(trace_of, tracer, probes);
        genAndSpillProbe(out, "", tracer, probes);
        const FrontEndShare fe = frontEndProbe(cells, trace_of, tracer, probes);
        tracer.end(probes);

        setEngineMetrics(out, cells, stats, fe);
        out.metrics["scheduler.allocs_per_cell"] =
            static_cast<double>(allocs_cold) /
            static_cast<double>(unique_cells);

        std::uint64_t appends = 0;
        std::uint64_t hits = 0;
        std::uint64_t shed = 0, evictions = 0, brownout = 0;
        for (std::size_t k = 0; k < fleet->shards(); ++k) {
            ddsc::serve::Server &s = fleet->shard(k);
            appends += s.driver().store()->size();
            hits += s.driver().storeHits();
            shed += s.admission().shedTotal();
            evictions += s.admission().queueEvictions();
            brownout += s.admission().brownoutServed();
        }
        out.metrics["sim.store_appends"] = static_cast<double>(appends);
        out.metrics["sim.store_hits"] = static_cast<double>(hits);
        out.metrics["sim.query_agg_us"] = median(agg_us);
        out.metrics["serve.route_ms.p50"] = median(route_ms);
        const PercentilePick p99 = highestReportable(route_ms, {99.0});
        out.metrics["serve.route_ms.p99"] = p99.value;
        std::vector<double> slowest;
        for (std::size_t i = 0; i < route_ms.size(); ++i) {
            double m = 0;
            for (const std::vector<double> &d : direct_ms)
                m = std::max(m, d[i]);
            slowest.push_back(m);
        }
        out.metrics["serve.shard_direct_ms"] = median(slowest);
        out.metrics["serve.fanout_overhead_ms"] =
            fanoutOverheadMs(route_ms, direct_ms);
        out.metrics["serve.shard_requests_per_query"] =
            static_cast<double>(after_warm.requestsServed -
                                after_cold.requestsServed) /
            static_cast<double>(latencies.size());
        out.metrics["serve.simulated_per_unique_cell"] =
            static_cast<double>(after_cold.simulated) /
            static_cast<double>(unique_cells);
        out.metrics["serve.coalesced"] =
            static_cast<double>(after_cold.coalesced);
        out.metrics["serve.shed"] = static_cast<double>(shed);
        out.metrics["serve.queue_evictions"] = static_cast<double>(evictions);
        out.metrics["serve.brownout"] = static_cast<double>(brownout);
        out.metrics["serve.allocs_per_query"] =
            static_cast<double>(allocs_warm) /
            static_cast<double>(latencies.size());
        out.metrics["net.wire_ms"] = median(wire_ms);
        out.metrics["net.reply_bytes"] = static_cast<double>(reply_bytes);
        out.notes.push_back("route samples " +
                            std::to_string(route_ms.size()) +
                            ", beyond p99 " + std::to_string(p99.beyond));
    }
    tracer.end(root);
    conns.clear();
    fleet.reset();
    return out;
}

// ---------------------------------------------------------------------
// References and output.

int
writeReferences(const std::string &path)
{
    ExperimentDriver driver(0, false, hostCpus());
    std::vector<MatrixQuery> shapes = serveCatalog();
    for (const SweepSpec &s : {sweepWide(), sweepNarrowMapped()})
        for (const MatrixQuery &q : figureSet(s.configs, s.widths))
            shapes.push_back(q);
    std::map<std::string, std::uint64_t> values;
    for (const MatrixQuery &q : shapes) {
        const MatrixResult r = ddsc::runMatrixQuery(driver, q);
        if (!r.quarantined.empty() || r.interrupted) {
            std::fprintf(stderr, "perfbench: %s failed locally\n",
                         shapeKey(q).c_str());
            return 1;
        }
        values[shapeKey(q)] = renderHash(r);
        for (const ExperimentCell &c : q.cells())
            values[cellKey(c)] = ddsc::digestSchedStats(
                driver.stats(*c.spec, c.config, c.width));
    }
    std::ofstream out(path);
    out << "# perfbench references: digestSchedStats per cell and FNV-1a\n"
           "# of each query shape's rendered CSV, from a local\n"
           "# runMatrixQuery at default scale (perfbench "
           "--write-references).\n";
    for (const auto &[key, value] : values) {
        char hex[32];
        std::snprintf(hex, sizeof hex, "%016llx",
                      static_cast<unsigned long long>(value));
        out << key << ' ' << hex << '\n';
    }
    return out ? 0 : 1;
}

void
writeSpans(const fs::path &path, const std::vector<Span> &spans)
{
    std::ofstream out(path);
    out << "[\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        out << "{\"id\":" << i << ",\"parent\":" << s.parent
            << ",\"name\":" << jsonString(s.name)
            << ",\"layer\":" << jsonString(s.layer)
            << ",\"start_ns\":" << s.start << ",\"end_ns\":" << s.end << "}"
            << (i + 1 < spans.size() ? ",\n" : "\n");
    }
    out << "]\n";
}

/** The untraced metric set must be complete: warm_p99_ms in
 *  particular exists only with enough samples beyond it. */
bool
endToEndComplete(const Outcome &out)
{
    for (const MetricDef &d : endToEndMetrics())
        if (!out.metrics.count(d.name))
            return false;
    return true;
}

std::string
metricsJson(const Outcome &out, const std::vector<MetricDef> &defs)
{
    std::string json;
    for (const MetricDef &d : defs) {
        // overhead.* needs the untraced run; run.py adds it.
        if (std::strncmp(d.name, "overhead.", 9) == 0)
            continue;
        const auto it = out.metrics.find(d.name);
        json += std::string(json.empty() ? "" : ", ") + jsonString(d.name) +
                ": {\"value\": " +
                formatNumber(it == out.metrics.end() ? 0.0 : it->second) +
                ", \"unit\": " + jsonString(d.unit) + "}";
    }
    return "{" + json + "}";
}

void
printResult(const Outcome &out, bool traced)
{
    if (traced) {
        std::string e2e;
        for (const MetricDef &d : endToEndMetrics())
            e2e += std::string(e2e.empty() ? "" : ", ") +
                   jsonString(d.name) + ": " +
                   formatNumber(out.metrics.count(d.name)
                                    ? out.metrics.at(d.name) : 0.0);
        std::printf("traced_end_to_end {%s}\n", e2e.c_str());
    }
    const bool correct = out.failed == 0 && endToEndComplete(out);
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed),
                metricsJson(out, traced ? perLayerMetrics()
                                        : endToEndMetrics()).c_str());
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR --references FILE\n"
                 "       perfbench --write-references FILE\n"
                 "       perfbench --list-metrics\n");
    return 2;
}

int
run(int argc, char **argv)
{
    std::string workload, work_dir, references;
    std::uint64_t seed = 0;
    double seconds = 0;
    int trace = -1;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list-metrics") {
            for (const auto *defs : {&endToEndMetrics(), &perLayerMetrics()})
                for (const MetricDef &d : *defs)
                    std::printf("%s %s %s\n",
                                defs == &endToEndMetrics() ? "end_to_end"
                                                           : "per_layer",
                                d.name, d.unit);
            return 0;
        }
        if (i + 1 >= argc)
            return usage();
        const std::string val = argv[++i];
        if (arg == "--write-references")
            return writeReferences(val);
        else if (arg == "--workload")
            workload = val;
        else if (arg == "--seed")
            seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (arg == "--seconds")
            seconds = std::strtod(val.c_str(), nullptr);
        else if (arg == "--trace")
            trace = val == "1" ? 1 : val == "0" ? 0 : -1;
        else if (arg == "--work-dir")
            work_dir = val;
        else if (arg == "--references")
            references = val;
        else
            return usage();
    }
    if (workload != "sweep-wide" && workload != "sweep-narrow-mapped" &&
        workload != "serve-fleet")
        return usage();
    if (work_dir.empty() || references.empty() || seconds <= 0 || trace < 0)
        return usage();
    References refs;
    if (!refs.load(references)) {
        std::fprintf(stderr, "perfbench: cannot read references '%s'\n",
                     references.c_str());
        return 2;
    }

    const unsigned nproc = hostCpus();
    const fs::path work = fs::path(work_dir) / workload;
    fs::remove_all(work);
    fs::create_directories(work);
    const std::string load_before = loadavgNow();
    Tracer tracer(trace == 1);
    gCountAllocs.store(tracer.on());
    Outcome out;
    if (workload == "sweep-wide")
        out = runSweep(sweepWide(), seconds, nproc, work, refs, tracer);
    else if (workload == "sweep-narrow-mapped")
        out = runSweep(sweepNarrowMapped(), seconds, nproc, work, refs,
                       tracer);
    else
        out = runServeFleet(seed, seconds, nproc, work, refs, tracer);
    gCountAllocs.store(false);

    if (tracer.on()) {
        const std::vector<Span> spans = tracer.spans();
        for (const auto &[layer, ns] : layerSelfNanos(spans))
            out.metrics["self." + layer + "_s"] =
                static_cast<double>(ns) * 1e-9;
        writeSpans(fs::path(work_dir) / (workload + ".spans.json"), spans);
    }
    fs::remove_all(work);

#ifdef NDEBUG
    const bool ndebug = true;
#else
    const bool ndebug = false;
#endif
    for (const std::string &note : out.notes)
        std::printf("# %s\n", note.c_str());
    std::printf("stamp {\"workload\": %s, \"seed\": %llu, \"nproc\": %u, "
                "\"compiler\": %s, \"build_type\": %s, \"ndebug\": %s, "
                "\"loadavg_before\": %s, \"loadavg_after\": %s}\n",
                jsonString(workload).c_str(),
                static_cast<unsigned long long>(seed), nproc,
                jsonString(PERFBENCH_COMPILER).c_str(),
                jsonString(PERFBENCH_BUILD_TYPE).c_str(),
                ndebug ? "true" : "false", jsonString(load_before).c_str(),
                jsonString(loadavgNow()).c_str());
    printResult(out, tracer.on());
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    try {
        return perfbench::run(argc, argv);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
