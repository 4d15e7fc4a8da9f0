/**
 * @file
 * In-memory span recorder and the arithmetic the campaign benchmark
 * reports with: the tail-percentile rule, self time over (possibly
 * overlapping) child spans, and ratios with an explicit base.
 *
 * Spans are recorded only while the recorder is enabled, on the one
 * thread that drives the traced walk. Every span keeps its name, start,
 * end, parent span and the shard it ran for; the whole set is written
 * out at the end as Chrome trace-event JSON (Perfetto opens it).
 */
#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

/** Monotonic clock in nanoseconds. */
int64_t nowNs();

/** One timed call. */
struct Span
{
    uint32_t name = 0;
    /** Index of the enclosing span, -1 for a root. */
    int32_t parent = -1;
    int32_t shard = -1;
    int64_t start = 0;
    int64_t end = 0;

    int64_t duration() const { return end - start; }
};

class SpanRecorder
{
  public:
    static SpanRecorder &instance();

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    /** Stable id for a span name. */
    uint32_t intern(std::string_view name);
    const std::string &name(uint32_t id) const { return names_[id]; }

    /** Open a span under the innermost open one; returns its index. */
    int32_t open(uint32_t name);
    void close(int32_t index);

    /** Shard stamped on spans opened from now on. */
    void setShard(int32_t shard) { shard_ = shard; }

    const std::vector<Span> &spans() const { return spans_; }
    void clear();

  private:
    bool enabled_ = false;
    int32_t shard_ = -1;
    std::vector<std::string> names_;
    std::unordered_map<std::string, uint32_t> ids_;
    std::vector<Span> spans_;
    std::vector<int32_t> stack_;
};

/** RAII span; a no-op while the recorder is disabled. */
class ScopedSpan
{
  public:
    explicit ScopedSpan(uint32_t name)
    {
        SpanRecorder &recorder = SpanRecorder::instance();
        if (recorder.enabled())
            index_ = recorder.open(name);
    }
    ~ScopedSpan()
    {
        if (index_ >= 0)
            SpanRecorder::instance().close(index_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    int32_t index_ = -1;
};

/**
 * A tail percentile reported under the rule "the highest percentile
 * with at least ten samples beyond it": the wanted percentile when the
 * sample allows it, else the highest integer percentile that leaves
 * ten samples above its nearest-rank position.
 */
struct Percentile
{
    /** Percentile actually reported (0 when there are no samples). */
    int percentile = 0;
    double value = 0.0;
    size_t samples = 0;
};

/**
 * Nearest-rank percentile of @p values (need not be sorted). The
 * median (@p wanted = 50) is reported as is; any higher @p wanted is
 * lowered until ten samples lie beyond it. With ten or fewer samples
 * no percentile above the median qualifies and the median is given.
 */
Percentile tailPercentile(std::vector<double> values, int wanted);

/** Half-open interval [start, end). */
using Interval = std::pair<int64_t, int64_t>;

/**
 * Time of [start, end) not covered by @p children. Children may nest,
 * overlap each other or stick out of the parent; only the part inside
 * the parent is subtracted, and overlap is subtracted once.
 */
int64_t selfTime(int64_t start, int64_t end,
                 std::vector<Interval> children);

/** Wall and CPU seconds of one timed part of a campaign. */
struct UnitTime
{
    double wall = 0.0;
    double cpu = 0.0;
};

/**
 * A campaign charged part by part: @p passes holds the campaign's
 * parts as timed in each pass, and each part is charged its fastest
 * pass, wall and CPU separately; the result is the sum. nullopt when
 * there is no pass or the passes do not list the same number of parts
 * (a pass with no parts included).
 */
std::optional<UnitTime>
fastestParts(const std::vector<std::vector<UnitTime>> &passes);

/** numerator / base, 0 when the base is 0. */
double ratio(double numerator, double base);

/**
 * failed_pct: statements cut by the budget plus internal errors, as a
 * percentage of statements issued (never of checks).
 */
double failedPct(uint64_t budget_errors, uint64_t internal_errors,
                 uint64_t statements);

/** attribution.useful_ratio: faults attributed per replay run. */
double usefulRatio(uint64_t faults_attributed, uint64_t replays);

/** scheduler.long_pole_share: the largest shard's seconds over drain. */
double longPoleShare(const std::vector<double> &shard_seconds,
                     double drain_seconds);

/** Escape @p text for a JSON string literal (without the quotes). */
std::string jsonEscape(std::string_view text);

/**
 * Chrome trace-event JSON ("X" events, microseconds) for the spans,
 * at most @p max_spans of them; shard becomes the thread lane.
 */
std::string chromeTraceJson(const SpanRecorder &recorder,
                            size_t max_spans);

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
