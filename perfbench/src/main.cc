/**
 * @file
 * perfbench_campaign: the repository's end-to-end campaign benchmark.
 *
 *   perfbench_campaign --workload fleet|triage|txn [--seed N]
 *                      [--seconds S] [--trace 0|1] [--out-dir DIR]
 *                      [--commit SHA]
 *
 * --trace 0 measures the end-to-end metrics untraced: the workload's
 * campaigns run through CampaignScheduler plus ground-truth
 * attribution, repeated a fixed number of passes for the --seconds
 * window, and every pass must reproduce the first one exactly.
 * --trace 1 runs the first campaigns once untraced (the reference) and
 * once as the traced walk, checks the walk reproduced every shard, and
 * reports the per-layer split. The last stdout line is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}; the exit code is
 * non-zero when a correctness check fails.
 */
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "spans.h"
#include "statements.h"
#include "util/log.h"
#include "util/strutil.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;
using sqlpp::format;
using sqlpp::startsWith;

namespace {

struct Options
{
    std::string workload;
    uint64_t seed = 1234;
    double seconds = 30.0;
    int trace = 0;
    std::string outDir = ".";
    std::string commit = "unknown";
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    /** Free-form detail for the human report (sample counts). */
    std::string note;
};

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

double
loadAverage()
{
    double load[1] = {0.0};
    return getloadavg(load, 1) == 1 ? load[0] : -1.0;
}

double
median(std::vector<double> values)
{
    return tailPercentile(std::move(values), 50).value;
}

bool
optimisedBuild()
{
#ifdef __OPTIMIZE__
    return true;
#else
    return false;
#endif
}

/** Per-layer numbers derived from the walk's spans. */
class SpanSummary
{
  public:
    explicit SpanSummary(const SpanRecorder &recorder)
        : recorder_(recorder)
    {
        const std::vector<Span> &spans = recorder.spans();
        children_.resize(spans.size());
        for (size_t i = 0; i < spans.size(); ++i) {
            if (spans[i].parent >= 0)
                children_[static_cast<size_t>(spans[i].parent)]
                    .push_back(static_cast<int32_t>(i));
            byName_[recorder.name(spans[i].name)].push_back(
                static_cast<int32_t>(i));
        }
    }

    /** Durations of every span named @p name, in microseconds. */
    std::vector<double>
    durationsUs(const std::string &name) const
    {
        std::vector<double> out;
        for (int32_t i : spansNamed(name))
            out.push_back(span(i).duration() / 1e3);
        return out;
    }

    /**
     * Self time of span @p i: its duration minus what its children
     * cover. With @p prefix set, only children whose name starts with
     * it are subtracted.
     */
    int64_t
    selfNs(int32_t i, const char *prefix = nullptr) const
    {
        std::vector<Interval> covered;
        for (int32_t child : children_[static_cast<size_t>(i)]) {
            if (prefix != nullptr &&
                !startsWith(recorder_.name(span(child).name), prefix))
                continue;
            covered.emplace_back(span(child).start, span(child).end);
        }
        return selfTime(span(i).start, span(i).end, std::move(covered));
    }

    /** Direct children of @p i whose name starts with @p prefix. */
    size_t
    childCount(int32_t i, const char *prefix) const
    {
        size_t n = 0;
        for (int32_t child : children_[static_cast<size_t>(i)])
            n += startsWith(recorder_.name(span(child).name), prefix);
        return n;
    }

    /** Summed self time of every span in @p layer ("dialect", ...). */
    double
    layerSelfSeconds(const std::string &layer) const
    {
        int64_t total = 0;
        const std::vector<Span> &spans = recorder_.spans();
        for (size_t i = 0; i < spans.size(); ++i) {
            if (startsWith(recorder_.name(spans[i].name), layer + "."))
                total += selfNs(static_cast<int32_t>(i));
        }
        return total / 1e9;
    }

    const std::vector<int32_t> &
    spansNamed(const std::string &name) const
    {
        static const std::vector<int32_t> none;
        auto it = byName_.find(name);
        return it == byName_.end() ? none : it->second;
    }

    const Span &span(int32_t i) const
    {
        return recorder_.spans()[static_cast<size_t>(i)];
    }

  private:
    const SpanRecorder &recorder_;
    std::vector<std::vector<int32_t>> children_;
    std::map<std::string, std::vector<int32_t>> byName_;
};

class Report
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit,
        const std::string &note = "")
    {
        metrics_.push_back({name, value, unit, note});
    }

    /** p50 or tail percentile of @p values under the reporting rule. */
    void
    percentile(const std::string &name, std::vector<double> values,
               int wanted, const std::string &unit)
    {
        Percentile p = tailPercentile(std::move(values), wanted);
        std::string note = format("n=%zu", p.samples);
        if (p.percentile != wanted && p.samples > 0)
            note += format(", reported at p%d", p.percentile);
        add(name, p.value, unit, note);
    }

    const std::vector<Metric> &metrics() const { return metrics_; }

  private:
    std::vector<Metric> metrics_;
};

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_campaign --workload fleet|triage|txn "
                 "[--seed N] [--seconds S] [--trace 0|1] "
                 "[--out-dir DIR] [--commit SHA]\n");
}

bool
parseOptions(int argc, char **argv, Options &options)
{
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc) {
            std::fprintf(stderr, "%s needs a value\n", flag.c_str());
            return false;
        }
        std::string value = argv[++i];
        if (flag == "--workload")
            options.workload = value;
        else if (flag == "--seed")
            options.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            options.seconds = std::strtod(value.c_str(), nullptr);
        else if (flag == "--trace")
            options.trace = std::atoi(value.c_str());
        else if (flag == "--out-dir")
            options.outDir = value;
        else if (flag == "--commit")
            options.commit = value;
        else {
            std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
            return false;
        }
    }
    return !options.workload.empty() &&
           (options.trace == 0 || options.trace == 1);
}

/** Keep @p sample in @p best when it is faster, or when @p first. */
void
keepFastest(UnitTime &best, UnitTime sample, bool first)
{
    if (first || sample.wall < best.wall)
        best.wall = sample.wall;
    if (first || sample.cpu < best.cpu)
        best.cpu = sample.cpu;
}

/** Digest of every shard's stats of @p run, for the report. */
uint64_t
campaignDigest(const CampaignRun &run)
{
    uint64_t hash = sqlpp::fnv1a("campaign");
    for (uint64_t shard : run.shardDigests)
        hash = sqlpp::fnv1a(std::to_string(shard), hash);
    return hash;
}

/** End-to-end metrics: untraced passes plus the checks = 0 runs. */
void
measureEndToEnd(const WorkloadSpec &spec, const Options &options,
                const std::string &checkpoint, Report &report,
                uint64_t &attempted, uint64_t &failed,
                std::vector<std::string> &problems)
{
    // A fixed number of passes over the same campaigns (see passCount),
    // each campaign in a child process killed at the workload's cap.
    // This process runs no campaign itself, so each child's ru_maxrss
    // counts its own campaign only. A killed campaign is charged the
    // cap, counts no checks and counts as one failed operation.
    //
    // Interference from other processes only ever adds time, and on a
    // shared host it comes in bursts shorter than a campaign. So each
    // part of a campaign is charged its fastest pass, wall and CPU
    // alike: every shard's CampaignRunner::run, every shard's
    // attribution, and the rest of the child (fork, scheduling, merge,
    // checkpoint saves, exit). A campaign's time is the sum of its
    // parts; one whose parts cannot be matched across passes (killed,
    // or more than one worker) is charged its fastest pass whole.
    //
    // The host's own speed also moves, by a third and more, in phases
    // of a minute or so that no choice among passes evens out. So the
    // calibration kernel (see calibrationSeconds) runs after every
    // child, and each child's times are scaled to the reference host by
    // kReferenceCalibrationSeconds over the mean of the kernel's
    // seconds just before and just after it. The report prints the
    // unscaled figures too.
    //
    // setup_s: the same campaigns with checks = 0, in five children
    // spread evenly among the campaign children, each running eight
    // repetitions. A child's setup time charges each part of each
    // campaign its fastest repetition, as above, and is scaled the same
    // way; setup_s is the median over the five, so it covers the whole
    // window, not one moment of it. Every repetition must build the
    // same databases.
    const size_t passes = passCount(spec, options.seconds);
    const size_t setup_children = 5, setup_per_child = 8;
    std::vector<double> setup;
    size_t setup_started = 0, setup_done = 0;
    uint64_t setup_digest = 0;
    std::vector<std::vector<std::vector<UnitTime>>> parts(spec.campaigns);
    std::vector<std::vector<std::vector<UnitTime>>> raw_parts(
        spec.campaigns);
    std::vector<UnitTime> whole(spec.campaigns), raw_whole(spec.campaigns);
    std::vector<double> raw_setup, calibrations{calibrationSeconds()};
    // Scale for the child that just ended: the reference over the mean
    // of the kernel's seconds before and after it.
    auto scaleAfterChild = [&calibrations] {
        calibrations.push_back(calibrationSeconds());
        const size_t n = calibrations.size();
        return 2.0 * kReferenceCalibrationSeconds /
               (calibrations[n - 2] + calibrations[n - 1]);
    };
    auto measureSetup = [&] {
        ++setup_started;
        std::vector<SetupRepetition> repetitions = runSetupIsolated(
            spec, options.seed, setup_per_child, checkpoint);
        const double setup_scale = scaleAfterChild();
        if (repetitions.size() != setup_per_child)
            problems.push_back(format("setup child %zu did not finish",
                                      setup_started));
        std::vector<std::vector<std::vector<UnitTime>>> setup_parts(
            spec.campaigns);
        for (const SetupRepetition &repetition : repetitions) {
            if (setup_done == 0)
                setup_digest = repetition.digest;
            else if (repetition.digest != setup_digest)
                problems.push_back(format(
                    "setup repetition %zu built different databases",
                    setup_done));
            for (size_t c = 0; c < spec.campaigns; ++c) {
                std::vector<UnitTime> parts;
                for (double seconds : repetition.campaigns[c])
                    parts.push_back({seconds, 0.0});
                setup_parts[c].push_back(std::move(parts));
            }
            ++setup_done;
        }
        double setup_seconds = 0.0;
        for (size_t c = 0; c < spec.campaigns && !repetitions.empty(); ++c) {
            std::optional<UnitTime> charge = fastestParts(setup_parts[c]);
            if (!charge.has_value()) {
                problems.push_back(format(
                    "setup repetitions of campaign %zu ran different "
                    "shards",
                    c));
                break;
            }
            setup_seconds += charge->wall;
        }
        if (!repetitions.empty()) {
            raw_setup.push_back(setup_seconds);
            setup.push_back(setup_seconds * setup_scale);
        }
    };
    const size_t slots = passes * spec.campaigns;
    size_t slot = 0;
    std::vector<IsolatedRun> first;
    std::vector<double> campaign_rss;
    for (size_t pass = 0; pass < passes; ++pass) {
        for (size_t c = 0; c < spec.campaigns; ++c) {
            IsolatedRun iso =
                runIsolated(spec, campaignSeed(options.seed, c), checkpoint);
            const double scale = scaleAfterChild();
            const UnitTime total{iso.wallSeconds, iso.cpuSeconds};
            std::vector<UnitTime> units;
            if (iso.finished && !iso.run.units.empty()) {
                units = iso.run.units;
                UnitTime rest = total;
                for (const UnitTime &unit : units) {
                    rest.wall -= unit.wall;
                    rest.cpu -= unit.cpu;
                }
                units.push_back(rest);
            }
            std::vector<UnitTime> scaled = units;
            for (UnitTime &unit : scaled)
                unit = {unit.wall * scale, unit.cpu * scale};
            keepFastest(raw_whole[c], total, pass == 0);
            keepFastest(whole[c], {total.wall * scale, total.cpu * scale},
                        pass == 0);
            raw_parts[c].push_back(std::move(units));
            parts[c].push_back(std::move(scaled));
            campaign_rss.push_back(iso.peakRssMb);
            if (!iso.finished && !iso.killed)
                problems.push_back(format(
                    "campaign %zu (seed %llu) died after %.1f s", c,
                    (unsigned long long)campaignSeed(options.seed, c),
                    iso.wallSeconds));
            const CampaignRun &run = iso.run;
            if (pass == 0) {
                if (iso.finished)
                    std::printf(
                        "campaign %2zu seed %10llu: %6llu checks, "
                        "%8.3f s scheduler, %8.3f s attribution, "
                        "%5llu prioritized bugs, %3zu unique bugs, "
                        "%8llu statements, %5.1f MB, digest %016llx\n",
                        c, (unsigned long long)campaignSeed(options.seed, c),
                        (unsigned long long)run.checks, run.runSeconds,
                        run.attributionSeconds,
                        (unsigned long long)run.prioritized, run.uniqueBugs,
                        (unsigned long long)run.statements, iso.peakRssMb,
                        (unsigned long long)campaignDigest(run));
                else if (iso.killed)
                    std::printf("campaign %2zu seed %10llu: killed after "
                                "%.1f s (cap %.0f s)\n",
                                c,
                                (unsigned long long)campaignSeed(options.seed,
                                                                 c),
                                iso.wallSeconds, spec.campaignCapSeconds);
                first.push_back(std::move(iso));
            } else if (iso.finished && first[c].finished &&
                       run.shardDigests != first[c].run.shardDigests) {
                problems.push_back(format(
                    "pass %zu campaign %zu (seed %llu) differs from pass 0",
                    pass, c, (unsigned long long)run.seed));
            }
            ++slot;
            while (setup_started < setup_children &&
                   slot * setup_children >= (setup_started + 1) * slots)
                measureSetup();
        }
    }

    double wall = 0.0, cpu = 0.0, raw_wall = 0.0, raw_cpu = 0.0;
    size_t charged_whole = 0;
    for (size_t c = 0; c < spec.campaigns; ++c) {
        std::optional<UnitTime> charge = fastestParts(parts[c]);
        std::optional<UnitTime> raw = fastestParts(raw_parts[c]);
        if (!charge.has_value() || !raw.has_value()) {
            charge = whole[c];
            raw = raw_whole[c];
            ++charged_whole;
        }
        wall += charge->wall;
        cpu += charge->cpu;
        raw_wall += raw->wall;
        raw_cpu += raw->cpu;
    }

    uint64_t checks = 0, valid = 0, plans = 0, statements = 0;
    uint64_t budget = 0, internal = 0, bugs = 0, prioritized = 0;
    size_t unique = 0, unattributed = 0, finished = 0, killed = 0;
    for (const IsolatedRun &iso : first) {
        if (!iso.finished) {
            ++killed;
            continue;
        }
        const CampaignRun &run = iso.run;
        ++finished;
        checks += run.checks;
        valid += run.valid;
        plans += run.plans;
        statements += run.statements;
        budget += run.budgetErrors;
        internal += run.internalErrors;
        bugs += run.bugsDetected;
        prioritized += run.prioritized;
        unique += run.uniqueBugs;
        unattributed += run.unattributed;
    }
    const double campaigns = static_cast<double>(finished);
    std::string best = format("scaled, fastest of %zu pass%s per part",
                              passes, passes == 1 ? "" : "es");
    if (charged_whole > 0)
        best += format("; %zu campaign%s charged whole", charged_whole,
                       charged_whole == 1 ? "" : "s");
    std::printf("setup per child, fastest repetition per part, unscaled "
                "(s):");
    for (double value : raw_setup)
        std::printf(" %.4f", value);
    std::printf("\n");
    std::vector<double> sorted = calibrations;
    std::sort(sorted.begin(), sorted.end());
    std::printf("host speed: calibration kernel %.3f ms median, %.3f to "
                "%.3f ms over %zu samples (reference %.3f ms)\n",
                1e3 * median(calibrations), 1e3 * sorted.front(),
                1e3 * sorted.back(), sorted.size(),
                1e3 * kReferenceCalibrationSeconds);
    std::printf("unscaled: %.3f checks/s, %.4f ms CPU per check, setup "
                "%.4f s\n",
                ratio(static_cast<double>(checks), raw_wall),
                1e3 * ratio(raw_cpu, static_cast<double>(checks)),
                median(raw_setup));
    report.add("checks_per_s", ratio(static_cast<double>(checks), wall),
               "checks/s", best);
    report.add("cpu_ms_per_check",
               1e3 * ratio(cpu, static_cast<double>(checks)), "ms", best);
    report.add("setup_s", median(setup), "s",
               format("scaled, median over %zu children of the fastest "
                      "of %zu repetitions per part",
                      setup.size(), setup_per_child));
    report.add("peak_rss_mb", median(campaign_rss), "MB",
               format("median over %zu campaign processes, largest %.1f",
                      campaign_rss.size(),
                      *std::max_element(campaign_rss.begin(),
                                        campaign_rss.end())));
    report.add("failed_pct",
               failedPct(budget, internal + killed, statements + killed),
               "%",
               format("%llu of %llu statements, %zu campaigns killed",
                      (unsigned long long)(budget + internal),
                      (unsigned long long)statements, killed));
    report.add("validity_pct",
               100.0 * ratio(static_cast<double>(valid),
                             static_cast<double>(checks)),
               "%");
    report.add("unique_plans", ratio(static_cast<double>(plans), campaigns),
               "count", "mean per finished campaign");
    report.add("unique_bugs", ratio(static_cast<double>(unique), campaigns),
               "count",
               format("mean per campaign; %zu prioritized bugs "
                      "unattributed",
                      unattributed));
    std::printf("bugs: %llu detected, %llu prioritized, %zu "
                "unattributed by attribution\n",
                (unsigned long long)bugs, (unsigned long long)prioritized,
                unattributed);
    if (checks == 0)
        problems.push_back("no checks attempted");
    if (finished > 0 && spec.minUniqueBugs > 0.0 &&
        ratio(static_cast<double>(unique), campaigns) < spec.minUniqueBugs)
        problems.push_back(format(
            "%.2f unique bugs per campaign, below the workload's floor "
            "of %.1f",
            ratio(static_cast<double>(unique), campaigns),
            spec.minUniqueBugs));
    if (spec.faultFree && (bugs != 0 || prioritized != 0))
        problems.push_back(format(
            "fault-free workload reported %llu bugs",
            (unsigned long long)bugs));
    attempted = statements + killed;
    failed = budget + internal + killed;
}

/** Per-layer metrics: untraced reference, traced walk, comparison. */
void
measureLayers(const WorkloadSpec &spec, const Options &options,
              const std::string &checkpoint, Report &report,
              uint64_t &attempted, uint64_t &failed,
              std::vector<std::string> &problems,
              const std::string &trace_path)
{
    // A campaign that a capped child cannot finish is neither run in
    // this process nor walked; it counts as one failed operation.
    const size_t campaigns =
        std::min(spec.tracedCampaigns, spec.campaigns);
    std::vector<CampaignRun> reference;
    for (size_t c = 0; c < campaigns; ++c) {
        uint64_t seed = campaignSeed(options.seed, c);
        IsolatedRun probe;
        if (spec.campaignCapSeconds > 0.0)
            probe = runIsolated(spec, seed, checkpoint);
        if (spec.campaignCapSeconds > 0.0 && !probe.finished &&
            !probe.killed) {
            problems.push_back(format("campaign %zu (seed %llu) died", c,
                                      (unsigned long long)seed));
            continue;
        }
        if (spec.campaignCapSeconds > 0.0 && probe.killed) {
            std::printf("campaign %zu seed %llu: killed at the %.0f s cap, "
                        "not walked\n",
                        c, (unsigned long long)seed, spec.campaignCapSeconds);
            ++attempted;
            ++failed;
            continue;
        }
        reference.push_back(runCampaign(spec, seed, checkpoint, true));
    }

    SpanRecorder &recorder = SpanRecorder::instance();
    recorder.clear();
    StatementLog::instance().clear();
    WalkTotals totals;
    for (const CampaignRun &run : reference)
        walkCampaign(spec, run, checkpoint, totals);
    const double walk_seconds = totals.wallSeconds;
    if (spec.reduceSample > 0 && !reference.empty())
        reduceSample(reference.front(), spec.reduceSample, totals);
    for (const std::string &mismatch : totals.mismatches)
        problems.push_back(mismatch);

    double untraced = 0.0, drain = 0.0, merge = 0.0, queue = 0.0;
    double busy = 0.0, capacity = 0.0, pole = 0.0, attribution = 0.0;
    uint64_t bugs = 0;
    size_t unique = 0, unattributed = 0;
    for (const CampaignRun &run : reference) {
        untraced += run.wallSeconds();
        drain += run.drainSeconds;
        merge += run.runSeconds - run.drainSeconds;
        queue += run.queueWaitSeconds;
        busy += run.busySeconds;
        capacity += static_cast<double>(run.workers) * run.drainSeconds;
        std::vector<double> shard_seconds;
        for (const auto &shard : run.shards)
            shard_seconds.push_back(shard.seconds);
        pole += longPoleShare(shard_seconds, run.drainSeconds);
        attribution += run.attributionSeconds;
        attempted += run.statements;
        failed += run.budgetErrors + run.internalErrors;
        bugs += run.bugsDetected;
        unique += run.uniqueBugs;
        unattributed += run.unattributed;
    }
    if (totals.uniqueBugs != unique || totals.unattributed != unattributed)
        problems.push_back(format(
            "walk attribution: %zu unique / %zu unattributed, untraced "
            "%zu / %zu",
            totals.uniqueBugs, totals.unattributed, unique, unattributed));
    if (spec.faultFree && bugs != 0)
        problems.push_back("fault-free workload reported bugs");

    SpanSummary spans(recorder);
    // generator
    report.percentile("generator.setup_stmt_us.p50",
                      spans.durationsUs("generator.setup_stmt"), 50, "us");
    report.percentile("generator.setup_stmt_us.p99",
                      spans.durationsUs("generator.setup_stmt"), 99, "us");
    report.percentile("generator.shape_us.p50",
                      spans.durationsUs("generator.shape"), 50, "us");
    report.percentile("generator.shape_us.p99",
                      spans.durationsUs("generator.shape"), 99, "us");
    report.add("generator.shape_null_ratio",
               ratio(totals.shapesNull, totals.shapes), "ratio",
               format("%llu of %llu shapes",
                      (unsigned long long)totals.shapesNull,
                      (unsigned long long)totals.shapes));
    report.add("generator.self_s", spans.layerSelfSeconds("generator"), "s");
    // feedback, print, parse
    report.percentile("feedback.record_us.p50",
                      spans.durationsUs("feedback.record"), 50, "us");
    report.add("feedback.self_s", spans.layerSelfSeconds("feedback"), "s");
    report.percentile("sqlir.print_us.p50", spans.durationsUs("sqlir.print"),
                      50, "us");
    report.add("sqlir.self_s", spans.layerSelfSeconds("sqlir"), "s");
    report.percentile("parser.parse_us.p50",
                      spans.durationsUs("parser.parse"), 50, "us");
    report.percentile("parser.parse_us.p99",
                      spans.durationsUs("parser.parse"), 99, "us");
    report.add("parser.self_s", spans.layerSelfSeconds("parser"), "s");
    // execute
    const StatementLog &log = StatementLog::instance();
    report.add("dialect.stmts", static_cast<double>(log.statements),
               "count");
    for (const char *kind : {"select", "write", "txn"}) {
        std::string span = std::string("dialect.exec_") + kind;
        report.percentile(span + "_us.p50", spans.durationsUs(span), 50,
                          "us");
        report.percentile(span + "_us.p99", spans.durationsUs(span), 99,
                          "us");
    }
    report.add("dialect.stmt_max_ms", log.maxNanos / 1e6, "ms");
    report.add("dialect.stmts_over_1ms", static_cast<double>(log.over1ms),
               "count");
    report.add("dialect.stmts_over_10ms",
               static_cast<double>(log.over10ms), "count");
    report.add("dialect.error_ratio", ratio(log.errors, log.statements),
               "ratio");
    report.add("dialect.budget_exhausted",
               static_cast<double>(log.budgetExhausted), "count");
    report.add("dialect.self_s", spans.layerSelfSeconds("dialect"), "s");
    // oracles
    for (const char *name : {"tlp", "norec", "pqs", "eet", "iso"}) {
        std::string span = std::string("oracle.") + name + ".check";
        std::string prefix = std::string("oracle.") + name;
        std::vector<double> compare;
        size_t queries = 0;
        for (int32_t i : spans.spansNamed(span)) {
            compare.push_back(spans.selfNs(i, "dialect.") / 1e3);
            queries += spans.childCount(i, "dialect.");
        }
        OracleTally tally;
        if (auto it = totals.oracles.find(name); it != totals.oracles.end())
            tally = it->second;
        report.percentile(prefix + ".check_us.p50", spans.durationsUs(span),
                          50, "us");
        report.percentile(prefix + ".check_us.p99", spans.durationsUs(span),
                          99, "us");
        report.add(prefix + ".queries_per_check",
                   ratio(queries, tally.checks), "ratio");
        report.percentile(prefix + ".compare_us.p50", compare, 50, "us");
        report.add(prefix + ".skip_ratio", ratio(tally.skipped, tally.checks),
                   "ratio");
        report.add(prefix + ".bug_ratio", ratio(tally.bugs, tally.checks),
                   "ratio");
    }
    report.add("oracle.self_s", spans.layerSelfSeconds("oracle"), "s");
    // prioritizer, reducer
    report.percentile("prioritizer.consider_us.p50",
                      spans.durationsUs("prioritizer.consider"), 50, "us");
    report.add("prioritizer.kept_ratio", ratio(totals.kept, totals.considered),
               "ratio",
               format("%llu of %llu", (unsigned long long)totals.kept,
                      (unsigned long long)totals.considered));
    report.add("prioritizer.self_s", spans.layerSelfSeconds("prioritizer"),
               "s");
    report.percentile("reducer.us_per_bug.p50",
                      spans.durationsUs("reducer.reduce"), 50, "us");
    report.add("reducer.replays_per_bug",
               ratio(totals.reduceReplays, totals.reduced), "ratio",
               format("%llu bugs", (unsigned long long)totals.reduced));
    report.add("reducer.self_s", spans.layerSelfSeconds("reducer"), "s");
    // attribution (seconds from the untraced reference)
    report.add("attribution.s", attribution, "s", "untraced");
    report.add("attribution.replays", static_cast<double>(totals.replays),
               "count");
    report.percentile("attribution.replay_us.p50",
                      spans.durationsUs("attribution.replay"), 50, "us");
    report.add("attribution.useful_ratio",
               usefulRatio(totals.bugsAttributed, totals.replays), "ratio",
               format("%llu faults attributed / %llu replays",
                      (unsigned long long)totals.bugsAttributed,
                      (unsigned long long)totals.replays));
    report.add("attribution.unattributed", static_cast<double>(unattributed),
               "count");
    report.add("attribution.self_s", spans.layerSelfSeconds("attribution"),
               "s");
    // checkpoint
    report.add("checkpoint.saves", static_cast<double>(totals.checkpointSaves),
               "count");
    report.add("checkpoint.bytes", static_cast<double>(totals.checkpointBytes),
               "B");
    report.percentile("checkpoint.save_us.p50",
                      spans.durationsUs("checkpoint.save"), 50, "us");
    report.percentile("checkpoint.restore_us.p50",
                      spans.durationsUs("checkpoint.restore"), 50, "us");
    report.add("checkpoint.self_s", spans.layerSelfSeconds("checkpoint"),
               "s");
    // scheduler (untraced ScheduleReport)
    report.add("scheduler.drain_s", drain, "s", "untraced");
    report.add("scheduler.merge_s", merge, "s", "untraced");
    report.add("scheduler.queue_wait_s", queue, "s", "untraced");
    report.add("scheduler.worker_busy_pct", 100.0 * ratio(busy, capacity),
               "%", "untraced");
    report.add("scheduler.long_pole_share",
               ratio(pole, static_cast<double>(reference.size())), "ratio",
               "untraced, mean per campaign");
    // the walk's own loop, and what tracing cost
    report.add("campaign.self_s", spans.layerSelfSeconds("campaign"), "s");
    report.add("trace.overhead_s", walk_seconds - untraced, "s",
               format("traced walk %.3f s - untraced %.3f s", walk_seconds,
                      untraced));

    std::printf("slow statements (traced walk, %zu campaign%s): %llu over "
                "1 ms, %llu over 10 ms, %llu statements\n",
                reference.size(), reference.size() == 1 ? "" : "s",
                (unsigned long long)log.over1ms,
                (unsigned long long)log.over10ms,
                (unsigned long long)log.statements);
    for (const SlowStatement &s : log.slowest)
        std::printf("  %9.3f ms  %-15s shard %2d check %5lld %-11s %s\n",
                    s.ms, s.dialect.c_str(), s.shard, (long long)s.check,
                    s.phase.c_str(), s.sql.c_str());

    const size_t max_spans = 100000;
    std::ofstream trace(trace_path);
    trace << chromeTraceJson(recorder, max_spans);
    std::printf("spans: %zu recorded, %zu written to %s\n",
                recorder.spans().size(),
                std::min(recorder.spans().size(), max_spans),
                trace_path.c_str());
    if (!trace)
        problems.push_back("could not write " + trace_path);
}

std::string
number(double value)
{
    return format("%.10g", value);
}

} // namespace

int
main(int argc, char **argv)
{
    Options options;
    if (!parseOptions(argc, argv, options)) {
        usage();
        return 2;
    }
    auto spec = findWorkload(options.workload);
    if (!spec.has_value()) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     options.workload.c_str());
        usage();
        return 2;
    }
    sqlpp::setLogLevel(sqlpp::LogLevel::Error);
    std::error_code ec;
    std::filesystem::create_directories(options.outDir, ec);
    std::string stem = format("%s/%s-seed%llu-trace%d", options.outDir.c_str(),
                              options.workload.c_str(),
                              (unsigned long long)options.seed, options.trace);
    std::string checkpoint = stem + ".ckpt";

    double load_start = loadAverage();
    size_t workers = makeConfig(*spec, options.seed, checkpoint).workers;
    std::printf("perfbench campaign: workload %s, seed %llu, trace %d\n",
                options.workload.c_str(), (unsigned long long)options.seed,
                options.trace);

    Report report;
    uint64_t attempted = 0, failed = 0;
    std::vector<std::string> problems;
    auto start = std::chrono::steady_clock::now();
    if (options.trace == 0)
        measureEndToEnd(*spec, options, checkpoint, report, attempted,
                        failed, problems);
    else
        measureLayers(*spec, options, checkpoint, report, attempted, failed,
                      problems, stem + ".trace.json");
    std::filesystem::remove(checkpoint, ec);
    double total_seconds = secondsSince(start);
    double load_end = loadAverage();

    std::string context = format(
        "build=%s optimised=%s compiler=\"%s\" nproc=%ld "
        "loadavg_start=%.2f loadavg_end=%.2f seed=%llu workers=%zu "
        "campaigns=%zu commit=%s",
        PERFBENCH_BUILD_TYPE, optimisedBuild() ? "yes" : "no", __VERSION__,
        sysconf(_SC_NPROCESSORS_ONLN), load_start, load_end,
        (unsigned long long)options.seed, workers,
        options.trace == 0 ? spec->campaigns
                           : std::min(spec->tracedCampaigns, spec->campaigns),
        options.commit.c_str());
    std::printf("context: %s\n", context.c_str());
    if (!optimisedBuild())
        std::printf("WARNING: non-optimised build; timings are not "
                    "comparable\n");
    std::printf("%s metrics (%.1f s):\n",
                options.trace == 0 ? "end-to-end" : "per-layer",
                total_seconds);
    for (const Metric &m : report.metrics())
        std::printf("  %-34s %14.6g %-9s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.note.c_str());
    for (const std::string &problem : problems)
        std::printf("CORRECTNESS FAILURE: %s\n", problem.c_str());
    const bool correct = problems.empty();
    std::printf("correctness: %s\n", correct ? "ok" : "FAILED");

    // Detailed result next to the trace, then the one-line summary.
    std::string metrics_json;
    std::string detail_json;
    for (const Metric &m : report.metrics()) {
        std::string entry = format("\"%s\": {\"value\": %s, \"unit\": \"%s\"",
                                   m.name.c_str(), number(m.value).c_str(),
                                   m.unit.c_str());
        metrics_json += (metrics_json.empty() ? "" : ", ") + entry + "}";
        detail_json += (detail_json.empty() ? "" : ",\n    ") + entry +
                       ", \"note\": \"" + jsonEscape(m.note) + "\"}";
    }
    std::string problems_json;
    for (const std::string &problem : problems)
        problems_json += (problems_json.empty() ? "\"" : ", \"") +
                         jsonEscape(problem) + "\"";
    std::ofstream detail(stem + ".result.json");
    detail << "{\n  \"workload\": \"" << options.workload
           << "\",\n  \"context\": \"" << jsonEscape(context)
           << "\",\n  \"correct\": " << (correct ? "true" : "false")
           << ",\n  \"problems\": [" << problems_json
           << "],\n  \"metrics\": {\n    " << detail_json << "\n  }\n}\n";

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false", (unsigned long long)attempted,
                (unsigned long long)failed, metrics_json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
