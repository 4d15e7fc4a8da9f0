/**
 * @file
 * Workload shapes and the untraced campaign pass.
 */
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <set>
#include <sstream>

#include "bench.h"
#include "dialect/profile.h"
#include "util/metrics.h"
#include "util/strutil.h"

namespace perfbench {

using namespace sqlpp;

namespace {

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Keeps the calibration kernel's result, so its work is not elided. */
volatile uint64_t calibration_sink = 0;

uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

double
calibrationSeconds()
{
    // 2 MiB of random indices for the dependent loads, built once.
    static const std::vector<uint32_t> chain = [] {
        std::vector<uint32_t> table(512 * 1024);
        uint64_t x = 88172645463325252ULL;
        for (uint32_t &next : table) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next = static_cast<uint32_t>(x % table.size());
        }
        return table;
    }();
    double fastest = 0.0;
    for (int run = 0; run < 5; ++run) {
        auto start = std::chrono::steady_clock::now();
        std::map<std::string, uint64_t> table;
        uint64_t x = 88172645463325252ULL;
        for (uint64_t i = 0; i < 10000; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            table[std::to_string(x % 25000)] += i;
        }
        uint64_t total = 0;
        for (const auto &[key, value] : table)
            total += key.size() + value;
        uint32_t at = 0;
        for (uint32_t i = 0; i < 150000; ++i) {
            at = chain[at] ^ (i & 7);
            total += at;
        }
        calibration_sink = total;
        double seconds = secondsSince(start);
        if (run == 0 || seconds < fastest)
            fastest = seconds;
    }
    return fastest;
}

double
threadCpuSeconds()
{
    timespec now{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &now);
    return static_cast<double>(now.tv_sec) + now.tv_nsec / 1e9;
}

ShardClock &
ShardClock::instance()
{
    static ShardClock clock;
    return clock;
}

void
ShardClock::start()
{
    times_.clear();
    enabled_ = true;
}

std::vector<UnitTime>
ShardClock::stop()
{
    enabled_ = false;
    return std::move(times_);
}

void
ShardClock::note(UnitTime time)
{
    times_.push_back(time);
}

std::optional<WorkloadSpec>
findWorkload(const std::string &name)
{
    WorkloadSpec spec;
    spec.name = name;
    SchedulerConfig &config = spec.base;
    config.campaign.feedback.updateInterval = 200;
    if (name == "fleet") {
        // examples/bug_hunt: all 17 campaign dialects, TLP+NoREC. At
        // seed 1234 it takes a minute or more, nearly all of it in the
        // cubrid-like REPEAT statements.
        spec.passSeconds = 100.0;
        config.mode = ScheduleMode::ShardDialects;
        config.workers = 4;
        config.campaign.checks = 600;
        config.campaign.oracles = {"TLP", "NOREC"};
    } else if (name == "triage") {
        // Many short campaigns in one pass: a campaign's cost and memory
        // vary by 30-45% from seed to seed whatever its length, so the
        // run's spread falls with the number of campaigns, not their
        // size, and a second pass buys less than more campaigns do.
        spec.campaigns = 30;
        spec.tracedCampaigns = 3;
        spec.reduceSample = 8;
        spec.campaignCapSeconds = 30.0;
        spec.passSeconds = 30.0;
        spec.minUniqueBugs = 12.0;
        config.mode = ScheduleMode::ShardDialects;
        config.workers = 1;
        config.dialects = {"umbra-like", "cratedb-like", "firebird-like",
                           "monetdb-like"};
        config.campaign.checks = 75;
        // A fresh database every 10 checks: a shard's cost (above all
        // its attribution replays) is set by the database its bugs were
        // found on, and one database per shard makes a campaign's cost
        // swing several-fold from seed to seed.
        config.campaign.rebuildEvery = 10;
        config.campaign.oracles = {"TLP", "NOREC", "PQS", "EET"};
    } else if (name == "txn") {
        // Five campaigns: slice seeds are seed ^ index, so the sixteen
        // slices of one campaign come from one aligned block of sixteen
        // seeds, and blocks differ in cost and above all in memory (one
        // block in six peaks near 53 MB, the rest near 14 MB).
        spec.campaigns = 5;
        spec.faultFree = true;
        spec.campaignCapSeconds = 30.0;
        spec.passSeconds = 10.0;
        config.mode = ScheduleMode::SliceChecks;
        config.workers = 1;
        config.slices = 16;
        config.campaign.dialect = "postgres-like";
        config.campaign.disableFaults = true;
        config.campaign.checks = 16 * 60;
        config.campaign.rebuildEvery = 50;
        config.campaign.oracles = {"ISO", "TLP", "NOREC"};
    } else {
        return std::nullopt;
    }
    return spec;
}

size_t
passCount(const WorkloadSpec &spec, double seconds)
{
    return std::max<size_t>(
        1, static_cast<size_t>(std::lround(seconds / spec.passSeconds)));
}

uint64_t
campaignSeed(uint64_t workload_seed, size_t index)
{
    if (index == 0)
        return workload_seed;
    // Keep seeds well inside 32 bits: shard seeds are seed ^ index.
    return splitmix64(workload_seed * 0x100000001b3ULL + index) >> 33;
}

SchedulerConfig
makeConfig(const WorkloadSpec &spec, uint64_t campaign_seed,
           const std::string &checkpoint_path,
           std::optional<size_t> checks)
{
    SchedulerConfig config = spec.base;
    config.campaign.seed = campaign_seed;
    if (config.mode == ScheduleMode::SliceChecks)
        config.checkpointPath = checkpoint_path;
    if (checks.has_value())
        config.campaign.checks = *checks;
    return config;
}

uint64_t
statsDigest(const CampaignStats &stats)
{
    std::string text = format(
        "%llu|%llu|%llu|%llu|%llu|%llu|%llu|",
        (unsigned long long)stats.setupGenerated,
        (unsigned long long)stats.setupSucceeded,
        (unsigned long long)stats.checksAttempted,
        (unsigned long long)stats.checksValid,
        (unsigned long long)stats.bugsDetected,
        (unsigned long long)stats.checksInapplicable,
        (unsigned long long)stats.resourceErrors);
    uint64_t hash = fnv1a(text);
    for (const BugCase &bug : stats.prioritizedBugs) {
        hash = fnv1a(bug.oracle + "|" + bug.baseText + "|" +
                         bug.predicateText + "|" + bug.details,
                     hash);
        for (const std::string &statement : bug.setup)
            hash = fnv1a(statement, hash);
    }
    for (uint64_t fingerprint : stats.planFingerprints)
        hash = fnv1a(std::to_string(fingerprint), hash);
    return hash;
}

CampaignRun
runCampaign(const WorkloadSpec &spec, uint64_t seed,
            const std::string &checkpoint_path, bool keep_shards,
            std::optional<size_t> checks)
{
    MetricsRegistry &metrics = MetricsRegistry::instance();
    uint64_t statements0 = metrics.counterTotal("connection.statements");
    uint64_t budget0 = metrics.counterTotal("connection.error.budget");
    uint64_t internal0 = metrics.counterTotal("connection.error.internal");
    uint64_t queue0 = metrics.histogramSum("scheduler.shard.queue_us");

    CampaignRun run;
    run.seed = seed;
    SchedulerConfig config =
        makeConfig(spec, seed, checkpoint_path, checks);
    run.workers = config.workers;

    // Shards are timed one by one only on one worker: that worker runs
    // them in a fixed order, and nothing else calls the clock meanwhile.
    const bool timed_units = config.workers == 1;
    if (timed_units)
        ShardClock::instance().start();
    auto start = std::chrono::steady_clock::now();
    ScheduleReport report;
    {
        CampaignScheduler scheduler(config);
        report = scheduler.run();
    }
    run.runSeconds = secondsSince(start);
    if (timed_units)
        run.units = ShardClock::instance().stop();

    // Ground-truth attribution per shard, as bug_hunt reports it
    // (countUniqueBugs, spelled out to also count unattributed bugs).
    auto attribution_start = std::chrono::steady_clock::now();
    run.faults.resize(report.shards.size());
    for (size_t i = 0; i < report.shards.size(); ++i) {
        auto shard_start = std::chrono::steady_clock::now();
        const double shard_cpu = threadCpuSeconds();
        const ShardOutcome &shard = report.shards[i];
        const DialectProfile *profile = findDialect(shard.dialect);
        std::set<FaultId> attributed;
        size_t unattributed = 0;
        for (const BugCase &bug : shard.stats.prioritizedBugs) {
            auto fault = CampaignRunner::attributeFault(*profile, bug);
            run.faults[i].push_back(fault);
            if (fault.has_value())
                attributed.insert(*fault);
            else
                ++unattributed;
        }
        run.uniqueBugs += attributed.size() + (unattributed > 0 ? 1 : 0);
        run.unattributed += unattributed;
        if (timed_units)
            run.units.push_back({secondsSince(shard_start),
                                 threadCpuSeconds() - shard_cpu});
    }
    run.attributionSeconds = secondsSince(attribution_start);

    run.drainSeconds = report.queueDrainSeconds;
    for (const WorkerReport &worker : report.workers)
        run.busySeconds += worker.busySeconds;
    for (const ShardOutcome &shard : report.shards) {
        run.prioritized += shard.stats.prioritizedBugs.size();
        run.shardDigests.push_back(statsDigest(shard.stats));
    }
    run.checks = report.merged.checksAttempted;
    run.valid = report.merged.checksValid;
    run.plans = report.merged.planFingerprints.size();
    run.bugsDetected = report.merged.bugsDetected;
    run.statements =
        metrics.counterTotal("connection.statements") - statements0;
    run.budgetErrors =
        metrics.counterTotal("connection.error.budget") - budget0;
    run.internalErrors =
        metrics.counterTotal("connection.error.internal") - internal0;
    run.queueWaitSeconds =
        (metrics.histogramSum("scheduler.shard.queue_us") - queue0) / 1e6;
    if (keep_shards)
        run.shards = std::move(report.shards);
    return run;
}

namespace {

/** What a child process reported, and what it cost. */
struct ChildResult
{
    /** True when the child exited 0; `output` is then complete. */
    bool finished = false;
    /** True when the child was still running at the cap. */
    bool killed = false;
    std::string output;
    double wallSeconds = 0.0;
    double cpuSeconds = 0.0;
    double peakRssMb = 0.0;
};

/**
 * Run @p body in a forked child and collect the text it returns, killing
 * the child once @p cap_seconds have passed (0 = no cap). The child's
 * ru_maxrss starts from this process's resident set at the fork.
 */
ChildResult
runChild(double cap_seconds, const std::function<std::string()> &body)
{
    ChildResult out;
    int fds[2];
    if (pipe(fds) != 0)
        return out;
    std::fflush(nullptr);
    auto start = std::chrono::steady_clock::now();
    pid_t pid = fork();
    if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        return out;
    }
    if (pid == 0) {
        close(fds[0]);
        std::string text = body();
        for (size_t done = 0; done < text.size();) {
            ssize_t n = write(fds[1], text.data() + done, text.size() - done);
            if (n <= 0)
                _exit(1);
            done += static_cast<size_t>(n);
        }
        _exit(0);
    }
    close(fds[1]);

    // Read until EOF or the cap.
    bool timed_out = false;
    for (;;) {
        int wait_ms = -1;
        if (cap_seconds > 0.0) {
            double left = cap_seconds - secondsSince(start);
            if (left <= 0.0) {
                timed_out = true;
                break;
            }
            wait_ms = static_cast<int>(left * 1e3) + 1;
        }
        pollfd readable{fds[0], POLLIN, 0};
        int ready = poll(&readable, 1, wait_ms);
        if (ready < 0 && errno == EINTR)
            continue;
        if (ready == 0) {
            timed_out = true;
            break;
        }
        if (ready < 0)
            break;
        char buffer[4096];
        ssize_t n = read(fds[0], buffer, sizeof(buffer));
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        out.output.append(buffer, static_cast<size_t>(n));
    }
    if (timed_out) {
        kill(pid, SIGKILL);
        out.killed = true;
    }
    int status = 0;
    rusage usage{};
    while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
    }
    close(fds[0]);
    out.wallSeconds = secondsSince(start);
    out.cpuSeconds = usage.ru_utime.tv_sec + usage.ru_utime.tv_usec / 1e6 +
                     usage.ru_stime.tv_sec + usage.ru_stime.tv_usec / 1e6;
    out.peakRssMb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    out.finished =
        !timed_out && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    return out;
}

} // namespace

IsolatedRun
runIsolated(const WorkloadSpec &spec, uint64_t seed,
            const std::string &checkpoint_path)
{
    ChildResult child = runChild(spec.campaignCapSeconds, [&] {
        CampaignRun run = runCampaign(spec, seed, checkpoint_path, false);
        std::string line = format(
            "%llu %llu %llu %llu %llu %zu %zu %llu %llu %llu %.9f %.9f",
            (unsigned long long)run.checks, (unsigned long long)run.valid,
            (unsigned long long)run.plans,
            (unsigned long long)run.bugsDetected,
            (unsigned long long)run.prioritized, run.uniqueBugs,
            run.unattributed, (unsigned long long)run.statements,
            (unsigned long long)run.budgetErrors,
            (unsigned long long)run.internalErrors, run.runSeconds,
            run.attributionSeconds);
        line += format(" %zu", run.units.size());
        for (const UnitTime &unit : run.units)
            line += format(" %.9f %.9f", unit.wall, unit.cpu);
        for (uint64_t digest : run.shardDigests)
            line += format(" %llu", (unsigned long long)digest);
        return line + "\n";
    });
    IsolatedRun out;
    out.killed = child.killed;
    out.wallSeconds = child.wallSeconds;
    out.cpuSeconds = child.cpuSeconds;
    out.peakRssMb = child.peakRssMb;
    if (!child.finished)
        return out;

    std::istringstream in(child.output);
    CampaignRun &run = out.run;
    run.seed = seed;
    in >> run.checks >> run.valid >> run.plans >> run.bugsDetected >>
        run.prioritized >> run.uniqueBugs >> run.unattributed >>
        run.statements >> run.budgetErrors >> run.internalErrors >>
        run.runSeconds >> run.attributionSeconds;
    size_t units = 0;
    in >> units;
    run.units.resize(units);
    for (UnitTime &unit : run.units)
        in >> unit.wall >> unit.cpu;
    for (uint64_t digest; in >> digest;)
        run.shardDigests.push_back(digest);
    out.finished = !run.shardDigests.empty();
    return out;
}

std::vector<SetupRepetition>
runSetupIsolated(const WorkloadSpec &spec, uint64_t workload_seed,
                 size_t repetitions, const std::string &checkpoint_path)
{
    ChildResult child = runChild(spec.campaignCapSeconds, [&] {
        std::string lines;
        for (size_t r = 0; r < repetitions; ++r) {
            std::string parts;
            uint64_t digest = fnv1a("setup");
            for (size_t c = 0; c < spec.campaigns; ++c) {
                CampaignRun run =
                    runCampaign(spec, campaignSeed(workload_seed, c),
                                checkpoint_path, false, size_t{0});
                // The campaign's parts, then the rest of its wall time.
                double rest = run.wallSeconds();
                parts += format(" %zu", run.units.size() + 1);
                for (const UnitTime &unit : run.units) {
                    parts += format(" %.9f", unit.wall);
                    rest -= unit.wall;
                }
                parts += format(" %.9f", rest);
                for (uint64_t shard : run.shardDigests)
                    digest = fnv1a(std::to_string(shard), digest);
            }
            lines += format("%llu%s\n", (unsigned long long)digest,
                            parts.c_str());
        }
        return lines;
    });
    std::vector<SetupRepetition> out;
    std::istringstream in(child.output);
    SetupRepetition repetition;
    repetition.campaigns.resize(spec.campaigns);
    while (child.finished && in >> repetition.digest) {
        for (std::vector<double> &parts : repetition.campaigns) {
            size_t count = 0;
            in >> count;
            parts.resize(count);
            for (double &seconds : parts)
                in >> seconds;
        }
        if (!in)
            break;
        out.push_back(repetition);
    }
    return out;
}

} // namespace perfbench
