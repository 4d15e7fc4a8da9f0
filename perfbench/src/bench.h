/**
 * @file
 * Campaign benchmark: workload definitions, the untraced campaign pass
 * (public CampaignScheduler/CampaignRunner API, as bug_hunt drives it)
 * and the traced walk that drives each layer's public functions from
 * the benchmark's own code.
 */
#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/scheduler.h"
#include "engine/faults.h"
#include "spans.h"

namespace perfbench {

/** A workload's fixed shape. */
struct WorkloadSpec
{
    std::string name;
    /** Campaign seeds run per pass, derived from the workload seed. */
    size_t campaigns = 1;
    /** Campaigns the traced run walks (the first ones of the pass). */
    size_t tracedCampaigns = 1;
    /** Prioritized bugs the traced run reduces (fixed sample). */
    size_t reduceSample = 0;
    /** A correct platform reports no bug on this workload. */
    bool faultFree = false;
    /**
     * Wall-clock cap on one campaign, 0 = none. Unbounded statements
     * (REPEAT over an empty string, see README) can stall a campaign
     * for minutes; past the cap it is killed and counted as failed.
     */
    double campaignCapSeconds = 0.0;
    /**
     * Nominal wall time of one untraced pass. The pass count is a
     * function of --seconds alone (see passCount), so every commit
     * takes its fastest pass over the same number of passes.
     */
    double passSeconds = 10.0;
    /**
     * Floor on unique_bugs (mean per campaign) below which the untraced
     * run fails, 0 = none: bug-finding is checked, not only timed.
     */
    double minUniqueBugs = 0.0;
    /** Scheduler configuration shared by every campaign of a pass. */
    sqlpp::SchedulerConfig base;
};

/** Known workloads: fleet, triage, txn. nullopt for anything else. */
std::optional<WorkloadSpec> findWorkload(const std::string &name);

/** Untraced passes for a --seconds window: round(seconds / nominal). */
size_t passCount(const WorkloadSpec &spec, double seconds);

/**
 * The campaign seed of the @p index-th campaign of a pass. Campaign 0
 * uses the workload seed itself (1234 reproduces bug_hunt).
 */
uint64_t campaignSeed(uint64_t workload_seed, size_t index);

/**
 * Scheduler configuration of one campaign: the workload's base with the
 * campaign seed and, on sliced workloads, the checkpoint path. @p checks
 * overrides the per-workload check budget when set (setup_s runs with 0).
 */
sqlpp::SchedulerConfig makeConfig(const WorkloadSpec &spec,
                                  uint64_t campaign_seed,
                                  const std::string &checkpoint_path,
                                  std::optional<size_t> checks = {});

/** Order-sensitive digest of one shard's deterministic stats. */
uint64_t statsDigest(const sqlpp::CampaignStats &stats);

/**
 * Seconds of the calibration kernel: the fastest of five runs of a
 * fixed piece of standard-library work, string keys into a std::map
 * and a chain of dependent loads through 2 MiB (the allocation,
 * compare and cache-miss mix the program's engine runs). It uses no
 * code of the repository, so it gauges how fast the host runs such
 * code at the moment, not how fast the program is.
 */
double calibrationSeconds();

/**
 * The calibration kernel's seconds on a quiet host (a 4-vCPU x86-64
 * Xeon guest). Times are scaled by this over the kernel's seconds
 * measured around them, i.e. to what they would be on that host.
 */
constexpr double kReferenceCalibrationSeconds = 0.004;

/** CPU seconds the calling thread has used so far. */
double threadCpuSeconds();

/**
 * Wall and thread-CPU time of every CampaignRunner::run call (one per
 * shard), in the order the shards ran, recorded by the ld --wrap
 * wrapper in src/wrap.cc between start() and stop().
 */
class ShardClock
{
  public:
    static ShardClock &instance();

    bool enabled() const { return enabled_; }
    void start();
    std::vector<UnitTime> stop();
    void note(UnitTime time);

  private:
    bool enabled_ = false;
    std::vector<UnitTime> times_;
};

/** One untraced campaign: scheduler run, merge, attribution. */
struct CampaignRun
{
    uint64_t seed = 0;
    /** Scheduler construction, run() (drain + merge). */
    double runSeconds = 0.0;
    double drainSeconds = 0.0;
    double attributionSeconds = 0.0;
    double queueWaitSeconds = 0.0;
    double busySeconds = 0.0;
    size_t workers = 1;
    uint64_t checks = 0;
    uint64_t valid = 0;
    uint64_t plans = 0;
    uint64_t bugsDetected = 0;
    uint64_t prioritized = 0;
    size_t uniqueBugs = 0;
    size_t unattributed = 0;
    uint64_t statements = 0;
    uint64_t budgetErrors = 0;
    uint64_t internalErrors = 0;
    std::vector<uint64_t> shardDigests;
    /**
     * The campaign's parts, timed one by one: each shard's
     * CampaignRunner::run in the order they ran, then each shard's
     * attribution. Empty with more than one worker, where the order in
     * which shards run is not fixed.
     */
    std::vector<UnitTime> units;
    /** Kept only when requested (the traced run's reference). */
    std::vector<sqlpp::ShardOutcome> shards;
    /** Attributed fault per prioritized bug, per shard. */
    std::vector<std::vector<std::optional<sqlpp::FaultId>>> faults;

    double wallSeconds() const { return runSeconds + attributionSeconds; }
};

CampaignRun runCampaign(const WorkloadSpec &spec, uint64_t seed,
                        const std::string &checkpoint_path,
                        bool keep_shards,
                        std::optional<size_t> checks = {});

/** A campaign run in a child process, killed at the workload's cap. */
struct IsolatedRun
{
    /** True when the child finished and reported its campaign. */
    bool finished = false;
    /** True when the child was still running at the cap. */
    bool killed = false;
    /** Valid when finished; `shards` and `faults` are not carried. */
    CampaignRun run;
    double wallSeconds = 0.0;
    double cpuSeconds = 0.0;
    double peakRssMb = 0.0;
};

IsolatedRun runIsolated(const WorkloadSpec &spec, uint64_t seed,
                        const std::string &checkpoint_path);

/** One setup repetition: every campaign of the workload, checks = 0. */
struct SetupRepetition
{
    /**
     * Per campaign, in campaign order, the wall seconds of its parts
     * (as CampaignRun::units) and last the rest of its wall time.
     */
    std::vector<std::vector<double>> campaigns;
    /** Digest of every shard's stats; equal across repetitions. */
    uint64_t digest = 0;
};

/**
 * @p repetitions setup repetitions in one child process, capped like a
 * campaign. Empty when the child did not finish.
 */
std::vector<SetupRepetition>
runSetupIsolated(const WorkloadSpec &spec, uint64_t workload_seed,
                 size_t repetitions, const std::string &checkpoint_path);

/** Per-oracle tallies of the walk. */
struct OracleTally
{
    uint64_t checks = 0;
    uint64_t skipped = 0;
    uint64_t bugs = 0;
};

/** What the traced walk counted, beyond its spans. */
struct WalkTotals
{
    double wallSeconds = 0.0;
    uint64_t shapes = 0;
    uint64_t shapesNull = 0;
    uint64_t considered = 0;
    uint64_t kept = 0;
    std::map<std::string, OracleTally> oracles;
    uint64_t replays = 0;
    uint64_t bugsAttributed = 0;
    size_t uniqueBugs = 0;
    size_t unattributed = 0;
    uint64_t reduced = 0;
    uint64_t reduceReplays = 0;
    uint64_t checkpointSaves = 0;
    uint64_t checkpointBytes = 0;
    /** Correctness failures: walk vs untraced, restore round trips. */
    std::vector<std::string> mismatches;
};

/**
 * Walk one campaign shard by shard on this thread with spans on, and
 * compare every shard (stats, attribution) with @p reference.
 */
void walkCampaign(const WorkloadSpec &spec, const CampaignRun &reference,
                  const std::string &checkpoint_path, WalkTotals &totals);

/** Reduce the first @p sample prioritized bugs of @p reference. */
void reduceSample(const CampaignRun &reference, size_t sample,
                  WalkTotals &totals);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
