/**
 * @file
 * Scheduler-throughput microbenchmark over the test-scale experiment
 * matrix.  Unlike the figure/table benches (which reproduce paper
 * numbers), this one records how fast the simulator itself runs, so
 * the perf trajectory of the core is tracked across PRs:
 *
 *   bench_sched [output.json]        (default BENCH_sched.json)
 *
 * The JSON reports cells/sec and instrs/sec over the whole matrix,
 * per-cell wallNanos, and a per-cell digest folding every
 * deterministic SchedStats field (everything except wallNanos) so two
 * builds can be compared for bit-identical simulation results.
 *
 * Two series run over the same matrix: `per-cell` runs every cell
 * alone through LimitScheduler::run() (a batched group of one, with
 * its own front-end pass), and `batched` is the driver's one-pass
 * path (one shared front-end per (workload, front-end fingerprint)
 * group feeding all its back-ends).  The JSON's top-level throughput
 * numbers are the per-cell series; the "batched" object reports the
 * driver path and its speedupOverPerCell.  A third `mapped` series
 * re-runs the matrix with the traces spilled to DDSCTRC v4 files and
 * swept through mmap'd zero-copy cursors — its per-cell digests must
 * also equal the per-cell series', and its instrs/sec lands in the
 * JSON so a regression on the mapped path is visible (and its digest
 * gate fatal) in the CI bench smoke job.
 *
 * It also cross-checks a subset of cells between the wakeup-list
 * engine and the naive reference engine — including a
 * value-prediction-only configuration, which the paper matrix never
 * exercises — and exits nonzero on any stats mismatch *or* on any
 * digest divergence between the per-cell series and the others.  The
 * CI bench smoke job relies on that exit code.
 */

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/scheduler.hh"
#include "sim/experiment.hh"
#include "support/thread_pool.hh"

namespace ddsc
{
namespace
{

const std::string kConfigs = "ABCDE";
const std::vector<unsigned> kTimedWidths = {4, 8, 16, 2048};
const std::vector<unsigned> kVerifyWidths = {4, 16};

/** Digest every deterministic field of @p s (wallNanos excluded). */
std::uint64_t
digest(const SchedStats &s)
{
    return digestSchedStats(s);
}

/** Compare two runs field by field, reporting the first difference. */
bool
sameStats(const SchedStats &a, const SchedStats &b, const char *what)
{
    if (digest(a) == digest(b))
        return true;
    std::fprintf(stderr,
                 "MISMATCH %s: wakeup {cycles=%" PRIu64 " loads=%" PRIu64
                 " vpredHits=%" PRIu64 "} naive {cycles=%" PRIu64
                 " loads=%" PRIu64 " vpredHits=%" PRIu64 "}\n",
                 what, a.cycles, a.loads, a.valuePredHits,
                 b.cycles, b.loads, b.valuePredHits);
    return false;
}

SchedStats
runOnce(const SharedTrace &trace, const MachineConfig &config)
{
    const std::unique_ptr<TraceSource> view = trace.cursor();
    LimitScheduler scheduler(config);
    return scheduler.run(*view);
}

/** The extension configuration the paper matrix never covers: value
 *  prediction without address speculation. */
MachineConfig
valuePredOnly(unsigned width)
{
    MachineConfig config = MachineConfig::paper('A', width);
    config.name = "VP";
    config.loadValuePrediction = true;
    return config;
}

} // anonymous namespace
} // namespace ddsc

int
main(int argc, char **argv)
{
    using namespace ddsc;
    using Clock = std::chrono::steady_clock;

    const char *out_path = argc > 1 ? argv[1] : "BENCH_sched.json";
    // Owns the traces of the per-cell series and the naive
    // cross-check; its own cell cache stays unused.
    ExperimentDriver driver(0, /*test_scale=*/true);

    std::printf("=== scheduler throughput (test-scale matrix) ===\n");
    std::printf("configs %s, widths", kConfigs.c_str());
    for (const unsigned w : kTimedWidths)
        std::printf(" %s", MachineConfig::widthLabel(w).c_str());
    std::printf(", %u jobs\n", driver.jobs());

    // Materialize the traces up front so the timed region measures the
    // scheduler, not the VM generating traces.
    for (const WorkloadSpec *spec : ExperimentDriver::everything())
        driver.trace(*spec);

    // The per-cell series is the cross-PR baseline: every cell alone
    // through LimitScheduler::run(), one private front-end pass per
    // cell, fanned out over the driver's job count.
    const auto cells = ExperimentDriver::cellsFor(
        ExperimentDriver::everything(), kConfigs, kTimedWidths);
    std::vector<const SharedTrace *> cell_traces;
    for (const ExperimentCell &cell : cells)
        cell_traces.push_back(&driver.trace(*cell.spec));
    std::vector<SchedStats> per_cell(cells.size());
    const auto start = Clock::now();
    support::parallelFor(cells.size(), driver.jobs(), [&](std::size_t i) {
        per_cell[i] = runOnce(
            *cell_traces[i],
            MachineConfig::paper(cells[i].config, cells[i].width));
    });
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();

    // Aggregate over the matrix.  instrs/sec uses the summed per-cell
    // wall time, not the elapsed time, so the metric measures engine
    // speed independent of the worker-thread count.
    struct CellReport
    {
        std::string key;
        std::uint64_t instructions;
        std::uint64_t cycles;
        std::uint64_t wallNanos;
        std::uint64_t digest;
    };
    std::vector<CellReport> reports;
    std::uint64_t total_instrs = 0;
    std::uint64_t total_nanos = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const ExperimentCell &cell = cells[i];
        const SchedStats &s = per_cell[i];
        const std::string key = cell.spec->name + "/" + cell.config +
            "/" + MachineConfig::widthLabel(cell.width);
        reports.push_back({key, s.instructions, s.cycles, s.wallNanos,
                           digest(s)});
        total_instrs += s.instructions;
        total_nanos += s.wallNanos;
    }
    const double cell_seconds =
        static_cast<double>(total_nanos) * 1e-9;
    const double instrs_per_sec = cell_seconds > 0.0
        ? static_cast<double>(total_instrs) / cell_seconds : 0.0;
    const double cells_per_sec = elapsed > 0.0
        ? static_cast<double>(cells.size()) / elapsed : 0.0;

    std::printf("%zu cells, %" PRIu64 " instrs in %.2fs cell time "
                "(%.2fs elapsed)\n",
                cells.size(), total_instrs, cell_seconds, elapsed);
    std::printf("%.0f instrs/sec, %.1f cells/sec\n",
                instrs_per_sec, cells_per_sec);

    // Naive-vs-wakeup cross-check on the small widths (the naive
    // engine is O(window) per cycle), plus the value-prediction-only
    // configuration the matrix never covers.
    unsigned checked = 0, mismatches = 0;
    for (const WorkloadSpec *spec : ExperimentDriver::everything()) {
        const SharedTrace &trace = driver.trace(*spec);
        std::vector<MachineConfig> configs;
        for (const char c : kConfigs)
            for (const unsigned w : kVerifyWidths)
                configs.push_back(MachineConfig::paper(c, w));
        configs.push_back(valuePredOnly(8));
        for (const MachineConfig &config : configs) {
            MachineConfig naive = config;
            naive.naiveEngine = true;
            const SchedStats fast = runOnce(trace, config);
            const SchedStats slow = runOnce(trace, naive);
            const std::string what = spec->name + "/" + config.name +
                "/" + std::to_string(config.issueWidth);
            ++checked;
            if (!sameStats(fast, slow, what.c_str()))
                ++mismatches;
        }
    }
    std::printf("naive cross-check: %u cells, %u mismatches\n",
                checked, mismatches);

    // Batched series: the same matrix through the driver's one-pass
    // prefetch on a fresh driver (own cache).  Its traces are
    // materialized outside the timed region like the per-cell
    // series', and every cell digest must equal the per-cell series'
    // — a divergence fails the bench (and with it the CI smoke job).
    ExperimentDriver batched_driver(0, /*test_scale=*/true);
    for (const WorkloadSpec *spec : ExperimentDriver::everything())
        batched_driver.trace(*spec);
    const auto batched_start = Clock::now();
    batched_driver.prefetch(cells);
    const double batched_elapsed =
        std::chrono::duration<double>(Clock::now() - batched_start)
            .count();

    std::vector<CellReport> batched_reports;
    std::uint64_t batched_nanos = 0;
    unsigned batched_mismatches = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const ExperimentCell &cell = cells[i];
        const SchedStats &s =
            batched_driver.stats(*cell.spec, cell.config, cell.width);
        batched_reports.push_back({reports[i].key, s.instructions,
                                   s.cycles, s.wallNanos, digest(s)});
        batched_nanos += s.wallNanos;
        if (digest(s) != reports[i].digest) {
            ++batched_mismatches;
            std::fprintf(stderr,
                         "MISMATCH %s: batched digest %016" PRIx64
                         " != per-cell digest %016" PRIx64 "\n",
                         reports[i].key.c_str(), digest(s),
                         reports[i].digest);
        }
    }
    const double batched_cell_seconds =
        static_cast<double>(batched_nanos) * 1e-9;
    const double batched_instrs_per_sec = batched_cell_seconds > 0.0
        ? static_cast<double>(total_instrs) / batched_cell_seconds
        : 0.0;
    const double batched_cells_per_sec = batched_elapsed > 0.0
        ? static_cast<double>(cells.size()) / batched_elapsed : 0.0;
    const double speedup_over_per_cell = batched_cell_seconds > 0.0
        ? cell_seconds / batched_cell_seconds : 0.0;
    std::printf("batched: %.2fs cell time (%.2fs elapsed), "
                "%.0f instrs/sec, %.2fx over per-cell, %u digest "
                "mismatches\n",
                batched_cell_seconds, batched_elapsed,
                batched_instrs_per_sec, speedup_over_per_cell,
                batched_mismatches);

    // Mapped series: the same matrix again, but the traces are
    // spilled once to DDSCTRC v4 files and every cell reads them
    // through mmap'd zero-copy cursors.  Spilling happens outside the
    // timed region (it is a one-time cost the server pays at first
    // touch); the digests must match the per-cell series bit for bit.
    const std::string mapped_dir =
        (std::filesystem::temp_directory_path() /
         "ddsc_bench_sched_traces").string();
    std::filesystem::remove_all(mapped_dir);
    ExperimentDriver mapped_driver(0, /*test_scale=*/true);
    mapped_driver.setTraceDir(mapped_dir);
    for (const WorkloadSpec *spec : ExperimentDriver::everything())
        mapped_driver.trace(*spec);
    const auto mapped_start = Clock::now();
    mapped_driver.prefetch(cells);
    const double mapped_elapsed =
        std::chrono::duration<double>(Clock::now() - mapped_start)
            .count();

    std::uint64_t mapped_nanos = 0;
    unsigned mapped_mismatches = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const ExperimentCell &cell = cells[i];
        const SchedStats &s =
            mapped_driver.stats(*cell.spec, cell.config, cell.width);
        mapped_nanos += s.wallNanos;
        if (digest(s) != reports[i].digest) {
            ++mapped_mismatches;
            std::fprintf(stderr,
                         "MISMATCH %s: mapped digest %016" PRIx64
                         " != per-cell digest %016" PRIx64 "\n",
                         reports[i].key.c_str(), digest(s),
                         reports[i].digest);
        }
    }
    std::filesystem::remove_all(mapped_dir);
    const double mapped_cell_seconds =
        static_cast<double>(mapped_nanos) * 1e-9;
    const double mapped_instrs_per_sec = mapped_cell_seconds > 0.0
        ? static_cast<double>(total_instrs) / mapped_cell_seconds
        : 0.0;
    const double mapped_over_per_cell = mapped_cell_seconds > 0.0
        ? cell_seconds / mapped_cell_seconds : 0.0;
    std::printf("mapped: %.2fs cell time (%.2fs elapsed), "
                "%.0f instrs/sec, %.2fx over per-cell, %u digest "
                "mismatches\n",
                mapped_cell_seconds, mapped_elapsed,
                mapped_instrs_per_sec, mapped_over_per_cell,
                mapped_mismatches);

    // Module-sweep series: the speculation-module configurations
    // (F = predicted memory disambiguation, G = FCM/stride value
    // prediction) over the same matrix through the default batched
    // path.  The A-E series above stay the untouched cross-PR
    // baseline; this series tracks the new modules' simulation cost
    // and pins their engine equivalence — every module cell is
    // re-run alone through run() and on the naive reference engine,
    // and any digest divergence fails the bench like the gates above.
    const std::string module_configs = "FG";
    const auto module_cells = ExperimentDriver::cellsFor(
        ExperimentDriver::everything(), module_configs, kTimedWidths);
    ExperimentDriver module_driver(0, /*test_scale=*/true);
    for (const WorkloadSpec *spec : ExperimentDriver::everything())
        module_driver.trace(*spec);
    const auto module_start = Clock::now();
    module_driver.prefetch(module_cells);
    const double module_elapsed =
        std::chrono::duration<double>(Clock::now() - module_start)
            .count();

    std::vector<CellReport> module_reports;
    std::uint64_t module_instrs = 0;
    std::uint64_t module_nanos = 0;
    unsigned module_mismatches = 0;
    for (const ExperimentCell &cell : module_cells) {
        const SchedStats &s =
            module_driver.stats(*cell.spec, cell.config, cell.width);
        const std::string key = cell.spec->name + "/" + cell.config +
            "/" + MachineConfig::widthLabel(cell.width);
        module_reports.push_back({key, s.instructions, s.cycles,
                                  s.wallNanos, digest(s)});
        module_instrs += s.instructions;
        module_nanos += s.wallNanos;
        if (cell.width > kVerifyWidths.back())
            continue;       // the naive engine is O(window)/cycle
        const SharedTrace &trace = module_driver.trace(*cell.spec);
        const MachineConfig config =
            MachineConfig::paper(cell.config, cell.width);
        MachineConfig naive = config;
        naive.naiveEngine = true;
        const SchedStats fast = runOnce(trace, config);
        const SchedStats slow = runOnce(trace, naive);
        if (digest(fast) != digest(s) ||
            !sameStats(fast, slow, key.c_str())) {
            ++module_mismatches;
            std::fprintf(stderr,
                         "MISMATCH %s: module series batched %016"
                         PRIx64 " per-cell %016" PRIx64 "\n",
                         key.c_str(), digest(s), digest(fast));
        }
    }
    const double module_cell_seconds =
        static_cast<double>(module_nanos) * 1e-9;
    const double module_instrs_per_sec = module_cell_seconds > 0.0
        ? static_cast<double>(module_instrs) / module_cell_seconds
        : 0.0;
    std::printf("modules (%s): %zu cells, %.2fs cell time (%.2fs "
                "elapsed), %.0f instrs/sec, %u digest mismatches\n",
                module_configs.c_str(), module_cells.size(),
                module_cell_seconds, module_elapsed,
                module_instrs_per_sec, module_mismatches);

    std::FILE *out = std::fopen(out_path, "w");
    if (!out) {
        std::fprintf(stderr, "cannot open %s\n", out_path);
        return 1;
    }
    std::fprintf(out, "{\n");
    std::fprintf(out, "  \"matrix\": {\"workloads\": 6, "
                 "\"configs\": \"%s\", \"widths\": [", kConfigs.c_str());
    for (std::size_t i = 0; i < kTimedWidths.size(); ++i)
        std::fprintf(out, "%s%u", i ? ", " : "", kTimedWidths[i]);
    std::fprintf(out, "]},\n");
    std::fprintf(out, "  \"jobs\": %u,\n", driver.jobs());
    std::fprintf(out, "  \"cells\": %zu,\n", cells.size());
    std::fprintf(out, "  \"instructions\": %" PRIu64 ",\n", total_instrs);
    std::fprintf(out, "  \"elapsedSeconds\": %.6f,\n", elapsed);
    std::fprintf(out, "  \"cellSeconds\": %.6f,\n", cell_seconds);
    std::fprintf(out, "  \"cellsPerSec\": %.3f,\n", cells_per_sec);
    std::fprintf(out, "  \"instrsPerSec\": %.0f,\n", instrs_per_sec);
    std::fprintf(out, "  \"verify\": {\"checked\": %u, "
                 "\"mismatches\": %u},\n", checked, mismatches);
    std::fprintf(out, "  \"batched\": {\"cellSeconds\": %.6f, "
                 "\"elapsedSeconds\": %.6f, \"cellsPerSec\": %.3f, "
                 "\"instrsPerSec\": %.0f, \"speedupOverPerCell\": %.3f, "
                 "\"digestMismatches\": %u},\n",
                 batched_cell_seconds, batched_elapsed,
                 batched_cells_per_sec, batched_instrs_per_sec,
                 speedup_over_per_cell, batched_mismatches);
    std::fprintf(out, "  \"mapped\": {\"cellSeconds\": %.6f, "
                 "\"elapsedSeconds\": %.6f, "
                 "\"instrsPerSec\": %.0f, \"speedupOverPerCell\": %.3f, "
                 "\"digestMismatches\": %u},\n",
                 mapped_cell_seconds, mapped_elapsed,
                 mapped_instrs_per_sec, mapped_over_per_cell,
                 mapped_mismatches);
    std::fprintf(out, "  \"modules\": {\"configs\": \"%s\", "
                 "\"cells\": %zu, \"cellSeconds\": %.6f, "
                 "\"elapsedSeconds\": %.6f, \"instrsPerSec\": %.0f, "
                 "\"digestMismatches\": %u},\n",
                 module_configs.c_str(), module_cells.size(),
                 module_cell_seconds, module_elapsed,
                 module_instrs_per_sec, module_mismatches);
    std::fprintf(out, "  \"perCell\": [\n");
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const CellReport &r = reports[i];
        std::fprintf(out,
                     "    {\"cell\": \"%s\", \"instructions\": %" PRIu64
                     ", \"cycles\": %" PRIu64 ", \"wallNanos\": %" PRIu64
                     ", \"digest\": \"%016" PRIx64 "\"}%s\n",
                     r.key.c_str(), r.instructions, r.cycles,
                     r.wallNanos, r.digest,
                     i + 1 < reports.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n");
    std::fprintf(out, "  \"perCellModules\": [\n");
    for (std::size_t i = 0; i < module_reports.size(); ++i) {
        const CellReport &r = module_reports[i];
        std::fprintf(out,
                     "    {\"cell\": \"%s\", \"instructions\": %" PRIu64
                     ", \"cycles\": %" PRIu64 ", \"wallNanos\": %" PRIu64
                     ", \"digest\": \"%016" PRIx64 "\"}%s\n",
                     r.key.c_str(), r.instructions, r.cycles,
                     r.wallNanos, r.digest,
                     i + 1 < module_reports.size() ? "," : "");
    }
    std::fprintf(out, "  ],\n");
    std::fprintf(out, "  \"perCellBatched\": [\n");
    for (std::size_t i = 0; i < batched_reports.size(); ++i) {
        const CellReport &r = batched_reports[i];
        std::fprintf(out,
                     "    {\"cell\": \"%s\", \"wallNanos\": %" PRIu64
                     "}%s\n",
                     r.key.c_str(), r.wallNanos,
                     i + 1 < batched_reports.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("wrote %s\n", out_path);

    return mismatches == 0 && batched_mismatches == 0 &&
                   mapped_mismatches == 0 && module_mismatches == 0
               ? 0
               : 1;
}
