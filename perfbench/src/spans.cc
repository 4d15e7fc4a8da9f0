#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

namespace perfbench {

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

SpanRecorder &
SpanRecorder::instance()
{
    static SpanRecorder recorder;
    return recorder;
}

uint32_t
SpanRecorder::intern(std::string_view name)
{
    auto it = ids_.find(std::string(name));
    if (it != ids_.end())
        return it->second;
    uint32_t id = static_cast<uint32_t>(names_.size());
    names_.emplace_back(name);
    ids_.emplace(std::string(name), id);
    return id;
}

int32_t
SpanRecorder::open(uint32_t name)
{
    Span span;
    span.name = name;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.shard = shard_;
    int32_t index = static_cast<int32_t>(spans_.size());
    spans_.push_back(span);
    stack_.push_back(index);
    // Stamp the start last so the bookkeeping above is not timed.
    spans_.back().start = nowNs();
    return index;
}

void
SpanRecorder::close(int32_t index)
{
    int64_t end = nowNs();
    spans_[static_cast<size_t>(index)].end = end;
    // Spans close in LIFO order; tolerate a mismatch by unwinding to it.
    while (!stack_.empty()) {
        int32_t top = stack_.back();
        stack_.pop_back();
        if (top == index)
            break;
    }
}

void
SpanRecorder::clear()
{
    spans_.clear();
    stack_.clear();
    shard_ = -1;
}

Percentile
tailPercentile(std::vector<double> values, int wanted)
{
    Percentile out;
    out.samples = values.size();
    if (values.empty())
        return out;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    auto rank = [n](int p) {
        size_t r = static_cast<size_t>(
            std::ceil(static_cast<double>(p) * static_cast<double>(n) /
                      100.0));
        return std::clamp<size_t>(r, 1, n);
    };
    int chosen = 50;
    if (wanted > 50) {
        for (int p = wanted; p > 50; --p) {
            if (n - rank(p) >= 10) {
                chosen = p;
                break;
            }
        }
    }
    out.percentile = chosen;
    out.value = values[rank(chosen) - 1];
    return out;
}

int64_t
selfTime(int64_t start, int64_t end, std::vector<Interval> children)
{
    if (end <= start)
        return 0;
    for (Interval &child : children) {
        child.first = std::max(child.first, start);
        child.second = std::min(child.second, end);
    }
    std::sort(children.begin(), children.end());
    int64_t covered = 0;
    int64_t cursor = start;
    for (const Interval &child : children) {
        int64_t from = std::max(child.first, cursor);
        if (child.second > from) {
            covered += child.second - from;
            cursor = child.second;
        }
    }
    return (end - start) - covered;
}

std::optional<UnitTime>
fastestParts(const std::vector<std::vector<UnitTime>> &passes)
{
    if (passes.empty() || passes.front().empty())
        return std::nullopt;
    std::vector<UnitTime> best = passes.front();
    for (const std::vector<UnitTime> &pass : passes) {
        if (pass.size() != best.size())
            return std::nullopt;
        for (size_t k = 0; k < pass.size(); ++k) {
            best[k].wall = std::min(best[k].wall, pass[k].wall);
            best[k].cpu = std::min(best[k].cpu, pass[k].cpu);
        }
    }
    UnitTime total;
    for (const UnitTime &part : best) {
        total.wall += part.wall;
        total.cpu += part.cpu;
    }
    return total;
}

double
ratio(double numerator, double base)
{
    return base == 0.0 ? 0.0 : numerator / base;
}

double
failedPct(uint64_t budget_errors, uint64_t internal_errors,
          uint64_t statements)
{
    return 100.0 * ratio(static_cast<double>(budget_errors +
                                             internal_errors),
                         static_cast<double>(statements));
}

double
usefulRatio(uint64_t faults_attributed, uint64_t replays)
{
    return ratio(static_cast<double>(faults_attributed),
                 static_cast<double>(replays));
}

double
longPoleShare(const std::vector<double> &shard_seconds,
              double drain_seconds)
{
    double longest = 0.0;
    for (double seconds : shard_seconds)
        longest = std::max(longest, seconds);
    return ratio(longest, drain_seconds);
}

std::string
jsonEscape(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
chromeTraceJson(const SpanRecorder &recorder, size_t max_spans)
{
    const std::vector<Span> &spans = recorder.spans();
    size_t count = std::min(spans.size(), max_spans);
    int64_t origin = count > 0 ? spans.front().start : 0;
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    char buf[256];
    for (size_t i = 0; i < count; ++i) {
        const Span &span = spans[i];
        std::snprintf(
            buf, sizeof(buf),
            "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
            "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
            "\"parent\":%d,\"shard\":%d}}",
            i == 0 ? "" : ",\n",
            jsonEscape(recorder.name(span.name)).c_str(),
            span.shard + 1, (span.start - origin) / 1e3,
            span.duration() / 1e3, i, span.parent, span.shard);
        out += buf;
    }
    out += "\n]}\n";
    return out;
}

} // namespace perfbench
