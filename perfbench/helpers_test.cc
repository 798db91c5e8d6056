/**
 * @file
 * Unit tests for the benchmark's own arithmetic (helpers.hh).  The
 * check that the printed metric names match BENCHMARK.json lives in
 * test_perfbench.py, which reads the JSON file.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "helpers.hh"

namespace perfbench
{
namespace
{

std::vector<double>
oneTo(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = n; i >= 1; --i)    // unsorted on purpose
        v.push_back(static_cast<double>(i));
    return v;
}

TEST(Percentile, NearestRank)
{
    EXPECT_EQ(percentileOf(oneTo(100), 50), 50);
    EXPECT_EQ(percentileOf(oneTo(100), 99), 99);
    EXPECT_EQ(percentileOf(oneTo(1000), 99), 990);
    EXPECT_EQ(percentileOf(oneTo(1), 99), 1);
    EXPECT_EQ(percentileOf({}, 50), 0);
    EXPECT_EQ(median({3, 1, 2}), 2);
}

TEST(Percentile, SamplesBeyond)
{
    EXPECT_EQ(samplesBeyond(1000, 99), 10u);
    EXPECT_EQ(samplesBeyond(999, 99), 9u);
    EXPECT_EQ(samplesBeyond(1100, 99), 11u);
    EXPECT_EQ(samplesBeyond(0, 99), 0u);
}

TEST(Percentile, HighestWithTenBeyondIsReported)
{
    // 1000 samples: p99 has exactly 10 beyond it, p99.9 only 1.
    PercentilePick pick = highestReportable(oneTo(1000), {50, 99, 99.9});
    EXPECT_EQ(pick.percentile, 99);
    EXPECT_EQ(pick.value, 990);
    EXPECT_EQ(pick.samples, 1000u);
    EXPECT_EQ(pick.beyond, 10u);

    // 999 samples: p99 falls to 9 beyond, so p90 is the highest.
    pick = highestReportable(oneTo(999), {50, 90, 99});
    EXPECT_EQ(pick.percentile, 90);
    EXPECT_EQ(pick.beyond, 99u);
    EXPECT_EQ(pick.samples, 999u);

    // Candidate order does not matter.
    EXPECT_EQ(highestReportable(oneTo(1000), {99.9, 99, 50}).percentile,
              99);
}

TEST(Percentile, NothingReportableWithFewSamples)
{
    const PercentilePick pick = highestReportable(oneTo(10), {50, 99});
    EXPECT_EQ(pick.percentile, 0);
    EXPECT_EQ(pick.samples, 10u);
    EXPECT_EQ(highestReportable({}, {50}).percentile, 0);
}

TEST(Spans, SelfTimeSubtractsChildren)
{
    std::vector<Span> spans = {
        {"root", "", -1, 0, 100},
        {"a", "sim", 0, 10, 30},
        {"b", "net", 0, 50, 60},
    };
    EXPECT_EQ(selfNanos(spans, 0), 70u);
    EXPECT_EQ(selfNanos(spans, 1), 20u);
}

TEST(Spans, OverlappingParallelChildrenCountOnce)
{
    // Four worker threads under one sweep span: their union covers
    // [5, 95], though their durations sum to far more than the span.
    std::vector<Span> spans = {
        {"sweep", "sim", -1, 0, 100},
        {"g0", "scheduler", 0, 5, 80},
        {"g1", "scheduler", 0, 10, 90},
        {"g2", "scheduler", 0, 20, 95},
        {"g3", "scheduler", 0, 30, 40},
    };
    EXPECT_EQ(selfNanos(spans, 0), 10u);

    // Disjoint islands of overlap, and a child poking out of its
    // parent (clipped to the parent's interval).
    spans = {
        {"p", "sim", -1, 100, 200},
        {"c0", "frontend", 0, 90, 120},
        {"c1", "frontend", 0, 110, 130},
        {"c2", "frontend", 0, 150, 160},
        {"c3", "frontend", 0, 155, 260},
    };
    EXPECT_EQ(selfNanos(spans, 0), 100u - 30u - 50u);
}

TEST(Spans, LayerSelfTimesAndUnattributed)
{
    const std::vector<Span> spans = {
        {"run", "", -1, 0, 1000},
        {"cold", "", 0, 100, 900},
        {"sweep", "sim", 1, 100, 800},
        {"group", "sim", 2, 100, 700},
        {"fe", "frontend", 3, 100, 200},
        {"be", "scheduler", 3, 200, 650},
        {"group", "sim", 2, 150, 760},
        {"query", "sim", 1, 810, 890},
    };
    std::map<std::string, std::uint64_t> got;
    for (const auto &[layer, ns] : layerSelfNanos(spans))
        got[layer] = ns;
    EXPECT_EQ(got["frontend"], 100u);
    EXPECT_EQ(got["scheduler"], 450u);
    // sweep: 700 - union([100,700],[150,760]) = 40; group 0: 600 - 550;
    // group 1: 610; query: 80.
    EXPECT_EQ(got["sim"], 40u + 50u + 610u + 80u);
    // run: 1000 - 800; cold: 800 - 700 - 80.
    EXPECT_EQ(got["unattributed"], 200u + 20u);
    EXPECT_EQ(got["net"], 0u);
    // Every layer appears, used or not.
    for (const std::string &layer : layerNames())
        EXPECT_EQ(got.count(layer), 1u) << layer;
}

TEST(Derived, ParallelEfficiency)
{
    // 40 s of cells in 12.5 s on 4 workers: 80% of the capacity.
    EXPECT_DOUBLE_EQ(parallelEfficiency(40.0, 12.5, 4), 0.8);
    EXPECT_DOUBLE_EQ(parallelEfficiency(10.0, 10.0, 1), 1.0);
    EXPECT_EQ(parallelEfficiency(1.0, 0.0, 4), 0.0);
    EXPECT_EQ(parallelEfficiency(1.0, 1.0, 0), 0.0);
}

TEST(Derived, FanoutOverheadUsesSlowestShardPerPass)
{
    const std::vector<double> route = {3.0, 4.0, 10.0};
    const std::vector<std::vector<double>> direct = {
        {1.0, 3.5, 2.0},    // shard 0
        {2.0, 1.0, 9.0},    // shard 1
    };
    // Per pass: 3-2, 4-3.5, 10-9 -> {1, 0.5, 1}; median 1.
    EXPECT_DOUBLE_EQ(fanoutOverheadMs(route, direct), 1.0);
    // A shard with no cells for a shape reports 0 and never wins.
    EXPECT_DOUBLE_EQ(fanoutOverheadMs({2.0}, {{0.0}, {1.5}}), 0.5);
}

TEST(Format, NumbersRoundTripWithAllDigits)
{
    EXPECT_EQ(formatNumber(0.1), "0.1");
    EXPECT_EQ(formatNumber(1.0 / 3.0), "0.3333333333333333");
    EXPECT_EQ(formatNumber(7964013), "7964013");
    EXPECT_EQ(formatNumber(NAN), "null");
    EXPECT_EQ(jsonString("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
}

TEST(Metrics, NamesAreUniqueAndWellFormed)
{
    std::set<std::string> seen;
    for (const auto *defs : {&endToEndMetrics(), &perLayerMetrics()}) {
        for (const MetricDef &d : *defs) {
            EXPECT_TRUE(seen.insert(d.name).second) << d.name;
            const std::string name = d.name;
            EXPECT_LE(name.size(), 64u);
            EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(name[0])));
            for (const char c : name)
                EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) ||
                            c == '_' || c == '.' || c == '-')
                    << name;
        }
    }
    // One self-time metric per layer, plus the unattributed remainder.
    for (const std::string &layer : layerNames())
        EXPECT_EQ(seen.count("self." + layer + "_s"), 1u) << layer;
    EXPECT_EQ(seen.count("self.unattributed_s"), 1u);
    // run.py derives one overhead.* per end-to-end metric.
    for (const MetricDef &d : endToEndMetrics())
        EXPECT_EQ(seen.count(std::string("overhead.") + d.name), 1u);
}

} // namespace
} // namespace perfbench
