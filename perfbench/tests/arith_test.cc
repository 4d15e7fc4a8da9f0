/**
 * @file
 * The campaign benchmark's own arithmetic: the tail-percentile rule,
 * self time over nested and overlapping children, the base of every
 * ratio it reports, the pass count, the per-part fastest-pass charge
 * and the slow-statement bookkeeping.
 */
#include <gtest/gtest.h>

#include <numeric>

#include "bench.h"
#include "spans.h"
#include "statements.h"

using namespace perfbench;

namespace {

std::vector<double>
iota(size_t n)
{
    std::vector<double> values(n);
    std::iota(values.begin(), values.end(), 1.0);
    return values;
}

} // namespace

TEST(Percentile, P99NeedsAThousandSamples)
{
    Percentile p = tailPercentile(iota(1000), 99);
    EXPECT_EQ(p.percentile, 99);
    EXPECT_EQ(p.value, 990.0); // ten samples (991..1000) beyond it
    EXPECT_EQ(p.samples, 1000u);
}

TEST(Percentile, FallsBackToHighestWithTenBeyond)
{
    // 200 samples: p95 is rank 190, ten beyond; p96 would leave eight.
    Percentile p = tailPercentile(iota(200), 99);
    EXPECT_EQ(p.percentile, 95);
    EXPECT_EQ(p.value, 190.0);
    EXPECT_EQ(p.samples, 200u);

    Percentile q = tailPercentile(iota(999), 99);
    EXPECT_EQ(q.percentile, 98);
    EXPECT_GE(999u - static_cast<size_t>(q.value), 10u);
}

TEST(Percentile, TooFewSamplesGiveTheMedian)
{
    Percentile p = tailPercentile(iota(15), 99);
    EXPECT_EQ(p.percentile, 50);
    EXPECT_EQ(p.value, 8.0);
    Percentile none = tailPercentile({}, 99);
    EXPECT_EQ(none.percentile, 0);
    EXPECT_EQ(none.samples, 0u);
}

TEST(Percentile, MedianIgnoresOrder)
{
    Percentile p = tailPercentile({5, 1, 4, 2, 3}, 50);
    EXPECT_EQ(p.percentile, 50);
    EXPECT_EQ(p.value, 3.0);
}

TEST(SelfTime, NoChildren)
{
    EXPECT_EQ(selfTime(10, 110, {}), 100);
}

TEST(SelfTime, NestedChildrenAreSubtractedOnce)
{
    // A grandchild inside a child is already covered by the child.
    EXPECT_EQ(selfTime(0, 100, {{10, 40}, {20, 30}, {50, 60}}), 60);
}

TEST(SelfTime, OverlappingChildrenCountTheUnion)
{
    EXPECT_EQ(selfTime(0, 100, {{10, 50}, {40, 70}}), 40);
    EXPECT_EQ(selfTime(0, 100, {{40, 70}, {10, 50}, {60, 65}}), 40);
}

TEST(SelfTime, ChildrenOutsideTheParentAreClipped)
{
    EXPECT_EQ(selfTime(100, 200, {{50, 120}, {190, 300}}), 70);
    EXPECT_EQ(selfTime(100, 200, {{0, 50}}), 100);
    EXPECT_EQ(selfTime(100, 200, {{0, 500}}), 0);
}

TEST(SelfTime, RecordedSpansNest)
{
    SpanRecorder &recorder = SpanRecorder::instance();
    recorder.clear();
    recorder.setEnabled(true);
    uint32_t outer = recorder.intern("test.outer");
    uint32_t inner = recorder.intern("test.inner");
    {
        ScopedSpan a(outer);
        ScopedSpan b(inner);
    }
    { ScopedSpan c(inner); }
    recorder.setEnabled(false);
    const auto &spans = recorder.spans();
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[0].parent, -1);
    EXPECT_EQ(spans[1].parent, 0);
    EXPECT_EQ(spans[2].parent, -1);
    EXPECT_LE(spans[0].start, spans[1].start);
    EXPECT_LE(spans[1].end, spans[0].end);
    recorder.clear();
}

TEST(Ratios, FailedPctIsOverStatements)
{
    // 3 budget cuts + 1 internal error out of 400 statements.
    EXPECT_DOUBLE_EQ(failedPct(3, 1, 400), 1.0);
    EXPECT_DOUBLE_EQ(failedPct(0, 0, 0), 0.0);
}

TEST(Ratios, UsefulRatioIsFaultsOverReplays)
{
    EXPECT_DOUBLE_EQ(usefulRatio(5, 20), 0.25);
    EXPECT_DOUBLE_EQ(usefulRatio(0, 0), 0.0);
}

TEST(Ratios, LongPoleShareIsLargestShardOverDrain)
{
    EXPECT_DOUBLE_EQ(longPoleShare({1.0, 4.0, 2.0}, 5.0), 0.8);
    EXPECT_DOUBLE_EQ(longPoleShare({}, 5.0), 0.0);
    EXPECT_DOUBLE_EQ(longPoleShare({1.0}, 0.0), 0.0);
}

TEST(Passes, CountDependsOnTheWindowOnly)
{
    WorkloadSpec spec = *findWorkload("txn");
    spec.passSeconds = 4.0;
    EXPECT_EQ(passCount(spec, 45.0), 11u); // 11.25 rounds down
    EXPECT_EQ(passCount(spec, 46.0), 12u); // 11.5 rounds up
    EXPECT_EQ(passCount(spec, 1.0), 1u);   // never fewer than one
}

TEST(Passes, EachPartIsChargedItsFastestPass)
{
    // Part 0 is fastest in pass 1, part 1 in pass 0; CPU is charged
    // apart from wall.
    std::optional<UnitTime> total =
        fastestParts({{{2.0, 1.5}, {1.0, 0.5}}, {{1.0, 1.0}, {3.0, 0.4}}});
    ASSERT_TRUE(total.has_value());
    EXPECT_DOUBLE_EQ(total->wall, 2.0);
    EXPECT_DOUBLE_EQ(total->cpu, 1.4);
}

TEST(Passes, PartsThatDoNotMatchAreNotCharged)
{
    EXPECT_FALSE(fastestParts({}).has_value());
    EXPECT_FALSE(fastestParts({{}}).has_value());
    EXPECT_FALSE(fastestParts({{{1.0, 1.0}}, {}}).has_value());
    EXPECT_FALSE(
        fastestParts({{{1.0, 1.0}}, {{1.0, 1.0}, {1.0, 1.0}}}).has_value());
}

TEST(Statements, Classification)
{
    EXPECT_EQ(classifyStatement("SELECT 1"), StatementClass::Select);
    EXPECT_EQ(classifyStatement("  (select a from t)"),
              StatementClass::Select);
    EXPECT_EQ(classifyStatement("INSERT INTO t VALUES (1)"),
              StatementClass::Write);
    EXPECT_EQ(classifyStatement("create table t (a int)"),
              StatementClass::Write);
    EXPECT_EQ(classifyStatement("BEGIN"), StatementClass::Txn);
    EXPECT_EQ(classifyStatement("ROLLBACK TO s1"), StatementClass::Txn);
}

TEST(Statements, KeepsTheSlowestAndCountsThresholds)
{
    StatementLog log;
    log.keep = 2;
    log.note("a", 500000, true, false, 0);     // 0.5 ms
    log.note("b", 20000000, false, true, 1);   // 20 ms
    log.note("c", 2000000, true, false, 2);    // 2 ms
    log.note("d", 1000000, true, false, 3);    // exactly 1 ms
    EXPECT_EQ(log.statements, 4u);
    EXPECT_EQ(log.errors, 1u);
    EXPECT_EQ(log.budgetExhausted, 1u);
    EXPECT_EQ(log.over1ms, 2u);
    EXPECT_EQ(log.over10ms, 1u);
    ASSERT_EQ(log.slowest.size(), 2u);
    EXPECT_EQ(log.slowest[0].sql, "b");
    EXPECT_EQ(log.slowest[1].sql, "c");
    EXPECT_EQ(log.maxNanos, 20000000);
}

TEST(Export, ChromeTraceCarriesParentAndShard)
{
    SpanRecorder &recorder = SpanRecorder::instance();
    recorder.clear();
    recorder.setEnabled(true);
    recorder.setShard(3);
    uint32_t name = recorder.intern("test.export");
    {
        ScopedSpan a(name);
        ScopedSpan b(name);
    }
    recorder.setEnabled(false);
    std::string json = chromeTraceJson(recorder, 10);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"parent\":0"), std::string::npos);
    EXPECT_NE(json.find("\"shard\":3"), std::string::npos);
    EXPECT_EQ(chromeTraceJson(recorder, 1).find("\"parent\":0"),
              std::string::npos);
    recorder.clear();
}
