/**
 * @file
 * Exactness of fired-fault attribution.
 *
 * CampaignRunner::attributeFault replays a bug once under a
 * FaultCapture and then ablates only the faults that fired. The
 * reference it must match is full ablation: replay the bug once per
 * enabled fault, lowest id first, and return the first fault whose
 * removal makes the bug disappear. Full ablation lives here, as a test
 * helper, and every test compares the two answers bug by bug:
 *  - on every cell of the 26-fault x 5-oracle grid (single-fault
 *    profiles, as in oracle_fault_matrix_test),
 *  - on the same grid's fault rows in batch execution mode, where
 *    disabling a profile's only fault switches the vectorized kernels
 *    on,
 *  - on twenty triage-shaped campaigns (four fault-rich dialects, all
 *    four single-session logic oracles, a fresh database every ten
 *    checks), unattributed bugs included.
 * Where metrics are compiled in, each bug's attribution.replays plus
 * attribution.ablations_skipped must also add up to the replays full
 * ablation spent.
 */
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "core/campaign.h"
#include "core/scheduler.h"
#include "engine/faults.h"
#include "util/metrics.h"
#include "util/strutil.h"

namespace sqlpp {
namespace {

/** Attribution by ablating every enabled fault; counts its replays. */
std::optional<FaultId>
fullAblation(const DialectProfile &profile, const BugCase &bug,
             uint64_t &replays)
{
    ++replays;
    if (!CampaignRunner::reproduces(profile, bug))
        return std::nullopt;
    for (FaultId fault : profile.faults.ids()) {
        DialectProfile ablated = profile;
        ablated.faults.disable(fault);
        ++replays;
        if (!CampaignRunner::reproduces(ablated, bug))
            return fault;
    }
    return std::nullopt;
}

std::string
describe(const std::optional<FaultId> &fault)
{
    return fault.has_value() ? faultName(*fault) : "none";
}

/** What the comparisons saw, for the tests' non-vacuity checks. */
struct Tally
{
    size_t bugs = 0;
    size_t attributed = 0;
    size_t unattributed = 0;
};

/** Compare attributeFault with full ablation on every bug. */
void
expectExactAttribution(const DialectProfile &profile,
                       const std::vector<BugCase> &bugs, Tally &tally)
{
    MetricsRegistry &metrics = MetricsRegistry::instance();
    for (const BugCase &bug : bugs) {
        uint64_t replays_before = metrics.counterTotal("attribution.replays");
        uint64_t skipped_before =
            metrics.counterTotal("attribution.ablations_skipped");
        std::optional<FaultId> fired = CampaignRunner::attributeFault(
            profile, bug);
        uint64_t spent =
            metrics.counterTotal("attribution.replays") - replays_before;
        uint64_t skipped =
            metrics.counterTotal("attribution.ablations_skipped") -
            skipped_before;

        uint64_t full_replays = 0;
        std::optional<FaultId> full =
            fullAblation(profile, bug, full_replays);
        EXPECT_EQ(describe(fired), describe(full))
            << profile.name << " " << bug.oracle << " " << bug.execMode
            << "\n  base: " << bug.baseText
            << "\n  predicate: " << bug.predicateText;
#ifndef SQLPP_NO_METRICS
        EXPECT_EQ(spent + skipped, full_replays) << profile.name;
        EXPECT_LE(spent, full_replays) << profile.name;
#else
        (void)spent;
        (void)skipped;
#endif
        ++tally.bugs;
        if (full.has_value())
            ++tally.attributed;
        else
            ++tally.unattributed;
    }
}

/** The single-fault grid's base profile (oracle_fault_matrix_test). */
DialectProfile
matrixBaseProfile()
{
    DialectProfile profile = *findDialect("postgres-like");
    profile.name = "fault-matrix";
    profile.behavior.staticTyping = false;
    profile.binaryOps.insert(BinaryOp::NullSafeEq);
    profile.faults = FaultSet();
    return profile;
}

/** One grid cell's mini campaign, prioritized bugs attributed. */
void
checkGridCell(FaultId fault, const char *oracle, ExecMode exec_mode,
              Tally &tally)
{
    DialectProfile profile = matrixBaseProfile();
    profile.faults.enable(fault);
    CampaignConfig config;
    config.seed = 99173;
    config.checks = oracle == std::string("ISO") ? 60 : 300;
    config.oracles = {oracle};
    config.mode = GeneratorMode::Baseline;
    config.execMode = exec_mode;
    CampaignRunner runner(config, profile);
    CampaignStats stats = runner.run();
    SCOPED_TRACE(format("%s x %s", faultName(fault), oracle));
    expectExactAttribution(profile, stats.prioritizedBugs, tally);
}

class GridAttributionTest : public ::testing::TestWithParam<const char *>
{
};

TEST_P(GridAttributionTest, FiredSetEqualsFullAblationOnEveryFault)
{
    declarePlatformMetrics();
    Tally tally;
    for (FaultId fault : allFaultIds())
        checkGridCell(fault, GetParam(), ExecMode::Optimized, tally);
    // Every oracle catches some fault of the grid in these budgets.
    EXPECT_GT(tally.attributed, 0u);
}

INSTANTIATE_TEST_SUITE_P(Oracles, GridAttributionTest,
                         ::testing::Values("TLP", "NOREC", "PQS", "EET",
                                           "ISO"));

TEST(BatchAttributionTest, SingleFaultBatchReplaysAttributeExactly)
{
    // Batch mode runs the kernels only on a fault-free engine, so the
    // ablation of a single-fault profile's fault changes the execution
    // path as well as the fault; attribution must still agree.
    declarePlatformMetrics();
    Tally tally;
    for (FaultId fault : allFaultIds()) {
        if (!isIsolationFault(fault))
            checkGridCell(fault, "TLP", ExecMode::Batch, tally);
    }
    EXPECT_GT(tally.attributed, 0u);
}

class TriageAttributionTest : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(TriageAttributionTest, FiredSetEqualsFullAblation)
{
    declarePlatformMetrics();
    SchedulerConfig config;
    config.mode = ScheduleMode::ShardDialects;
    config.workers = 1;
    config.dialects = {"umbra-like", "cratedb-like", "firebird-like",
                       "monetdb-like"};
    config.campaign.seed = GetParam();
    config.campaign.checks = 40;
    config.campaign.rebuildEvery = 10;
    config.campaign.oracles = {"TLP", "NOREC", "PQS", "EET"};
    config.campaign.feedback.updateInterval = 200;
    ScheduleReport report = CampaignScheduler(config).run();
    Tally tally;
    for (const ShardOutcome &shard : report.shards) {
        SCOPED_TRACE(shard.dialect);
        expectExactAttribution(*findDialect(shard.dialect),
                               shard.stats.prioritizedBugs, tally);
    }
    EXPECT_GT(tally.bugs, 0u);
}

// Twenty seeds, each its own ctest entry so the suite parallelizes.
INSTANTIATE_TEST_SUITE_P(Seeds, TriageAttributionTest,
                         ::testing::Range<uint64_t>(8000, 8020));

} // namespace
} // namespace sqlpp
