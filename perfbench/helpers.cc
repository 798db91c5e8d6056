#include "helpers.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <map>
#include <utility>

namespace perfbench
{

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s"},
        {"sim_minstr_per_s", "Minstr/s"},
        {"peak_rss_mb", "MB"},
        {"cold_query_s", "s"},
        {"warm_p50_ms", "ms"},
        {"warm_p99_ms", "ms"},
        {"warm_qps", "1/s"},
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        {"workloads.gen_s", "s"},
        {"workloads.records", "count"},
        {"trace.spill_s", "s"},
        {"trace.decode_ns_per_rec", "ns"},
        {"trace.evictions", "count"},
        {"trace.resident_peak_mb", "MB"},
        {"frontend.busy_s", "s"},
        {"frontend.ns_per_rec", "ns"},
        {"frontend.passes", "count"},
        {"scheduler.ns_per_instr.w4", "ns"},
        {"scheduler.ns_per_instr.w8", "ns"},
        {"scheduler.ns_per_instr.w16", "ns"},
        {"scheduler.ns_per_instr.w32", "ns"},
        {"scheduler.ns_per_instr.w2k", "ns"},
        {"scheduler.busy_s", "s"},
        {"scheduler.cycles", "count"},
        {"scheduler.allocs_per_cell", "count"},
        {"sim.parallel_eff", "ratio"},
        {"sim.store_appends", "count"},
        {"sim.store_hits", "count"},
        {"sim.query_agg_us", "us"},
        {"serve.route_ms.p50", "ms"},
        {"serve.route_ms.p99", "ms"},
        {"serve.shard_direct_ms", "ms"},
        {"serve.fanout_overhead_ms", "ms"},
        {"serve.shard_requests_per_query", "ratio"},
        {"serve.simulated_per_unique_cell", "ratio"},
        {"serve.coalesced", "count"},
        {"serve.shed", "count"},
        {"serve.queue_evictions", "count"},
        {"serve.brownout", "count"},
        {"serve.allocs_per_query", "count"},
        {"net.wire_ms", "ms"},
        {"net.reply_bytes", "bytes"},
        {"self.workloads_s", "s"},
        {"self.trace_s", "s"},
        {"self.frontend_s", "s"},
        {"self.scheduler_s", "s"},
        {"self.sim_s", "s"},
        {"self.serve_s", "s"},
        {"self.net_s", "s"},
        {"self.unattributed_s", "s"},
        {"overhead.setup_s", "s"},
        {"overhead.sim_minstr_per_s", "Minstr/s"},
        {"overhead.peak_rss_mb", "MB"},
        {"overhead.cold_query_s", "s"},
        {"overhead.warm_p50_ms", "ms"},
        {"overhead.warm_p99_ms", "ms"},
        {"overhead.warm_qps", "1/s"},
    };
    return defs;
}

const std::vector<std::string> &
layerNames()
{
    static const std::vector<std::string> names = {
        "workloads", "trace", "frontend", "scheduler", "sim", "serve",
        "net"};
    return names;
}

std::uint64_t
fnv1a(std::string_view bytes, std::uint64_t seed)
{
    std::uint64_t h = seed;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

namespace
{

/** 1-based nearest rank of @p percentile among @p n samples. */
std::size_t
nearestRank(std::size_t n, double percentile)
{
    const double rank = std::ceil(percentile / 100.0 *
                                  static_cast<double>(n));
    return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, n);
}

} // namespace

std::size_t
samplesBeyond(std::size_t n, double percentile)
{
    return n == 0 ? 0 : n - nearestRank(n, percentile);
}

double
percentileOf(std::vector<double> samples, double percentile)
{
    if (samples.empty())
        return 0.0;
    const std::size_t rank = nearestRank(samples.size(), percentile);
    std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                     samples.end());
    return samples[rank - 1];
}

PercentilePick
highestReportable(std::vector<double> samples,
                  const std::vector<double> &candidates,
                  std::size_t min_beyond)
{
    PercentilePick pick;
    pick.samples = samples.size();
    for (const double p : candidates) {
        const std::size_t beyond = samplesBeyond(samples.size(), p);
        if (samples.empty() || beyond < min_beyond || p <= pick.percentile)
            continue;
        pick.percentile = p;
        pick.beyond = beyond;
    }
    if (pick.percentile > 0)
        pick.value = percentileOf(std::move(samples), pick.percentile);
    return pick;
}

double
median(std::vector<double> samples)
{
    return percentileOf(std::move(samples), 50.0);
}

namespace
{

/** The indices of each span's children. */
std::vector<std::vector<std::size_t>>
childrenOf(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent >= 0 &&
            static_cast<std::size_t>(spans[i].parent) < spans.size())
            children[static_cast<std::size_t>(spans[i].parent)].push_back(i);
    return children;
}

std::uint64_t
selfNanosOf(const std::vector<Span> &spans, std::size_t index,
            const std::vector<std::size_t> &children)
{
    const Span &self = spans[index];
    std::vector<std::pair<std::uint64_t, std::uint64_t>> covered;
    for (const std::size_t c : children) {
        const std::uint64_t lo = std::max(spans[c].start, self.start);
        const std::uint64_t hi = std::min(spans[c].end, self.end);
        if (lo < hi)
            covered.emplace_back(lo, hi);
    }
    std::sort(covered.begin(), covered.end());
    std::uint64_t union_ns = 0;
    std::uint64_t reach = self.start;
    for (const auto &[lo, hi] : covered) {
        const std::uint64_t from = std::max(lo, reach);
        if (hi > from) {
            union_ns += hi - from;
            reach = hi;
        }
    }
    return (self.end - self.start) - union_ns;
}

} // namespace

std::uint64_t
selfNanos(const std::vector<Span> &spans, std::size_t index)
{
    return selfNanosOf(spans, index, childrenOf(spans)[index]);
}

std::vector<std::pair<std::string, std::uint64_t>>
layerSelfNanos(const std::vector<Span> &spans)
{
    std::map<std::string, std::uint64_t> by_layer;
    for (const std::string &layer : layerNames())
        by_layer[layer] = 0;
    by_layer["unattributed"] = 0;
    // One children index for all spans: a traced run records one span
    // per warm query, tens of thousands of them.
    const std::vector<std::vector<std::size_t>> children = childrenOf(spans);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        // Spans of the benchmark's own (the run root and its phases)
        // only group layer calls: the time between those calls is
        // what no layer accounts for.
        by_layer[s.layer.empty() ? "unattributed" : s.layer] +=
            selfNanosOf(spans, i, children[i]);
    }
    return {by_layer.begin(), by_layer.end()};
}

double
parallelEfficiency(double cell_seconds, double elapsed_seconds,
                   unsigned jobs)
{
    if (elapsed_seconds <= 0 || jobs == 0)
        return 0.0;
    return cell_seconds / (elapsed_seconds * jobs);
}

double
fanoutOverheadMs(const std::vector<double> &route,
                 const std::vector<std::vector<double>> &direct)
{
    std::vector<double> overhead;
    overhead.reserve(route.size());
    for (std::size_t i = 0; i < route.size(); ++i) {
        double slowest = 0;
        for (const std::vector<double> &shard : direct)
            slowest = std::max(slowest, shard.at(i));
        overhead.push_back(route[i] - slowest);
    }
    return median(std::move(overhead));
}

std::string
formatNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, value);
    return std::string(buf, res.ptr);
}

std::string
jsonString(std::string_view s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

} // namespace perfbench
