/**
 * @file
 * The benchmark's own arithmetic, kept apart from perfbench.cc so the
 * unit tests (helpers_test.cc) can pin it without running a workload:
 * the metric dictionary, the percentile rule, span self time, and the
 * two derived per-layer figures whose formulas are easy to get wrong.
 */

#ifndef PERFBENCH_HELPERS_HH
#define PERFBENCH_HELPERS_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench
{

/** One printed metric: its name and unit exactly as BENCHMARK.json
 *  lists them. */
struct MetricDef
{
    const char *name;
    const char *unit;
};

/** Printed by an untraced run (--trace 0), in BENCHMARK.json order. */
const std::vector<MetricDef> &endToEndMetrics();

/** Printed by a traced run (--trace 1), in BENCHMARK.json order.  The
 *  `overhead.*` entries are filled in by run.py, which alone sees both
 *  the untraced and the traced run of a seed. */
const std::vector<MetricDef> &perLayerMetrics();

/** The layers, named after the modules they cover (README.md). */
const std::vector<std::string> &layerNames();

/** FNV-1a 64 over @p bytes, continuing from @p seed. */
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t seed = 0xcbf29ce484222325ull);

/**
 * The percentile rule: a percentile is reported only while at least
 * @p min_beyond samples lie above its nearest-rank position.
 */
struct PercentilePick
{
    double percentile = 0;      ///< 0 when nothing qualifies
    double value = 0;
    std::size_t samples = 0;
    std::size_t beyond = 0;     ///< samples ranked above the pick
};

/** Samples above the nearest-rank @p percentile of @p n samples. */
std::size_t samplesBeyond(std::size_t n, double percentile);

/** Nearest-rank @p percentile of @p samples (need not be sorted);
 *  0 for an empty vector. */
double percentileOf(std::vector<double> samples, double percentile);

/** The highest of @p candidates with at least @p min_beyond samples
 *  beyond it, with its value and the counts. */
PercentilePick highestReportable(std::vector<double> samples,
                                 const std::vector<double> &candidates,
                                 std::size_t min_beyond = 10);

/** Median (nearest-rank p50) — the statistic every timing reports. */
double median(std::vector<double> samples);

/** One recorded span.  Times are steady-clock nanoseconds since the
 *  run started; parent is an index into the same vector, -1 for a
 *  root. */
struct Span
{
    std::string name;
    std::string layer;      ///< "" = the benchmark itself
    std::int64_t parent = -1;
    std::uint64_t start = 0;
    std::uint64_t end = 0;
};

/** Self time of span @p index: its duration minus the part of its
 *  interval covered by its children.  Children on parallel threads
 *  overlap; covered time is measured on their union, so overlap is
 *  never subtracted twice. */
std::uint64_t selfNanos(const std::vector<Span> &spans,
                        std::size_t index);

/** Summed self time of the spans of each layer, plus the self time
 *  of the benchmark's own spans (layer "") under "unattributed". */
std::vector<std::pair<std::string, std::uint64_t>>
layerSelfNanos(const std::vector<Span> &spans);

/** sim.parallel_eff: summed cell time over the capacity the sweep
 *  had, elapsed x jobs.  1.0 means no worker ever idled. */
double parallelEfficiency(double cell_seconds, double elapsed_seconds,
                          unsigned jobs);

/**
 * serve.fanout_overhead_ms: per probe pass i, the routed latency minus
 * the slowest shard's direct latency for the same cells,
 * route[i] - max_k direct[k][i]; the median over passes.  Every
 * direct[k] is parallel to @p route.
 */
double fanoutOverheadMs(const std::vector<double> &route,
                        const std::vector<std::vector<double>> &direct);

/** @p value in the shortest form that reads back bit-identically. */
std::string formatNumber(double value);

/** @p s as a JSON string literal. */
std::string jsonString(std::string_view s);

} // namespace perfbench

#endif // PERFBENCH_HELPERS_HH
