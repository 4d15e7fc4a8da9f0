/**
 * @file
 * The traced walk: CampaignRunner::run() re-driven from the benchmark,
 * one public call at a time, with a span around each call. The walk
 * must reproduce the untraced shard stats exactly; that is what makes
 * its per-layer split a description of the same work.
 */
#include <chrono>
#include <filesystem>
#include <memory>
#include <set>

#include "bench.h"
#include "core/baseline.h"
#include "core/checkpoint.h"
#include "dialect/profile.h"
#include "sqlir/printer.h"
#include "spans.h"
#include "statements.h"
#include "util/strutil.h"

namespace perfbench {

using namespace sqlpp;

namespace {

uint32_t
spanName(const std::string &name)
{
    return SpanRecorder::instance().intern(name);
}

/** Everything CampaignRunner keeps per shard, rebuilt in the open. */
struct ShardWalk
{
    explicit ShardWalk(const CampaignConfig &config)
        : config(config), tracker(config.feedback), gate(tracker)
    {
        const DialectProfile *found = findDialect(config.dialect);
        profile = *found;
        if (config.disableFaults)
            profile.faults = FaultSet();
    }

    CampaignConfig config;
    DialectProfile profile;
    FeatureRegistry registry;
    FeedbackTracker tracker;
    FeedbackGate gate;
    SchemaModel model;
};

void
buildState(ShardWalk &walk, Connection &connection, CampaignStats &stats,
           std::vector<std::string> &setup_log)
{
    static const uint32_t setup_span = spanName("campaign.setup");
    static const uint32_t stmt_span = spanName("generator.setup_stmt");
    static const uint32_t record_span = spanName("feedback.record");
    ScopedSpan span(setup_span);
    StatementLog::instance().phase = "setup";
    StatementLog::instance().check = -1;
    GeneratorConfig generator_config = walk.config.generator;
    generator_config.seed = walk.config.seed * 0x9e3779b97f4a7c15ULL +
                            stats.setupGenerated + 1;
    AdaptiveGenerator generator(generator_config, walk.registry,
                                walk.gate, walk.model);
    for (size_t i = 0; i < walk.config.setupStatements; ++i) {
        GeneratedStatement stmt;
        {
            ScopedSpan generate(stmt_span);
            stmt = generator.generateSetupStatement();
        }
        auto result = connection.executeAdapted(stmt.text);
        bool success = result.isOk();
        {
            ScopedSpan record(record_span);
            walk.tracker.record(stmt.features, success, false);
        }
        generator.noteExecution(stmt, success);
        ++stats.setupGenerated;
        if (success) {
            ++stats.setupSucceeded;
            setup_log.push_back(stmt.text);
        }
    }
}

CampaignStats
runShard(ShardWalk &walk, WalkTotals &totals)
{
    static const uint32_t check_span = spanName("campaign.check");
    static const uint32_t shape_span = spanName("generator.shape");
    static const uint32_t record_span = spanName("feedback.record");
    static const uint32_t consider_span = spanName("prioritizer.consider");
    const CampaignConfig &config = walk.config;
    const DialectProfile &profile = walk.profile;
    CampaignStats stats;

    std::vector<std::unique_ptr<Oracle>> oracles;
    std::vector<uint32_t> oracle_spans;
    for (const std::string &name : config.oracles) {
        auto oracle = makeOracle(name);
        if (oracle != nullptr)
            oracles.push_back(std::move(oracle));
    }
    if (oracles.empty())
        oracles.push_back(makeOracle("TLP"));
    for (const auto &oracle : oracles)
        oracle_spans.push_back(spanName(
            "oracle." + toLower(oracle->name()) + ".check"));

    BugPrioritizer prioritizer;
    ConnectionOptions options;
    options.budget = config.budget;
    options.refreshRetry = config.refreshRetry;
    options.execMode = config.execMode;
    auto collect_counters = [&stats](const Connection &connection) {
        stats.resourceErrors += connection.resourceErrors();
        stats.refreshRetries += connection.refreshRetries();
    };

    auto connection = std::make_unique<Connection>(profile, options);
    std::vector<std::string> setup_log;
    walk.model = SchemaModel();
    buildState(walk, *connection, stats, setup_log);

    GeneratorConfig generator_config = config.generator;
    generator_config.seed = config.seed;
    AdaptiveGenerator generator(generator_config, walk.registry,
                                walk.gate, walk.model);

    StatementLog &log = StatementLog::instance();
    for (size_t check = 0; check < config.checks; ++check) {
        if (config.rebuildEvery > 0 && check > 0 &&
            check % config.rebuildEvery == 0) {
            collect_counters(*connection);
            connection = std::make_unique<Connection>(profile, options);
            walk.model = SchemaModel();
            setup_log.clear();
            buildState(walk, *connection, stats, setup_log);
        }
        ScopedSpan check_scope(check_span);
        log.phase = "check";
        log.check = static_cast<int64_t>(check);
        std::optional<QueryShape> shape;
        {
            ScopedSpan generate(shape_span);
            shape = generator.generateQueryShape();
        }
        ++totals.shapes;
        if (!shape.has_value()) {
            ++totals.shapesNull;
            continue;
        }
        ++stats.checksAttempted;
        bool all_ran = true;
        for (size_t o = 0; o < oracles.size(); ++o) {
            Oracle &oracle = *oracles[o];
            OracleTally &tally = totals.oracles[toLower(oracle.name())];
            OracleResult result;
            {
                ScopedSpan oracle_scope(oracle_spans[o]);
                result = oracle.check(*connection, *shape);
            }
            ++tally.checks;
            if (result.outcome == OracleOutcome::Inapplicable) {
                ++stats.checksInapplicable;
                continue;
            }
            if (result.outcome == OracleOutcome::Skipped) {
                ++tally.skipped;
                all_ran = false;
                continue;
            }
            if (result.outcome != OracleOutcome::Bug)
                continue;
            ++tally.bugs;
            ++stats.bugsDetected;
            ++stats.bugsByOracle[oracle.name()];
            FeatureSet bug_features = shape->features;
            bug_features.insert(walk.registry.intern(
                features::oracle(oracle.name()), FeatureKind::Property));
            bool fresh;
            {
                ScopedSpan consider(consider_span);
                fresh = prioritizer.considerNew(bug_features);
            }
            ++totals.considered;
            if (!fresh)
                continue;
            ++totals.kept;
            BugCase bug;
            bug.dialect = profile.name;
            bug.oracle = oracle.name();
            bug.execMode = execModeName(config.execMode);
            bug.setup = setup_log;
            bug.baseText = printSelect(*shape->base);
            bug.predicateText = printExpr(*shape->predicate);
            for (FeatureId id : bug_features)
                bug.featureNames.push_back(walk.registry.name(id));
            bug.details = result.details;
            bug.queries = std::move(result.queries);
            stats.prioritizedBugs.push_back(std::move(bug));
        }
        if (all_ran)
            ++stats.checksValid;
        {
            ScopedSpan record(record_span);
            walk.tracker.record(shape->features, all_ran, true);
        }
        for (uint64_t fingerprint : connection->takeNewPlans())
            stats.planFingerprints.insert(fingerprint);
    }
    collect_counters(*connection);
    log.check = -1;
    return stats;
}

/** attributeFault, one timed reproduces() per replay. */
std::optional<FaultId>
attributeBug(const DialectProfile &profile, const BugCase &bug,
             WalkTotals &totals)
{
    static const uint32_t bug_span = spanName("attribution.bug");
    static const uint32_t replay_span = spanName("attribution.replay");
    ScopedSpan span(bug_span);
    auto replay = [&](const DialectProfile &target) {
        ScopedSpan replay_scope(replay_span);
        ++totals.replays;
        return CampaignRunner::reproduces(target, bug);
    };
    if (!replay(profile))
        return std::nullopt;
    for (FaultId fault : profile.faults.ids()) {
        DialectProfile ablated = profile;
        ablated.faults.disable(fault);
        if (!replay(ablated))
            return fault;
    }
    return std::nullopt;
}

/** Field-level comparison; empty when the stats agree exactly. */
std::string
compareStats(const CampaignStats &walked, const CampaignStats &expected)
{
    std::string out;
    auto field = [&out](const char *name, uint64_t got, uint64_t want) {
        if (got != want)
            out += format(" %s walk=%llu untraced=%llu", name,
                          (unsigned long long)got,
                          (unsigned long long)want);
    };
    field("checks", walked.checksAttempted, expected.checksAttempted);
    field("valid", walked.checksValid, expected.checksValid);
    field("bugs", walked.bugsDetected, expected.bugsDetected);
    field("prioritized", walked.prioritizedBugs.size(),
          expected.prioritizedBugs.size());
    field("plans", walked.planFingerprints.size(),
          expected.planFingerprints.size());
    if (walked.prioritizedBugs != expected.prioritizedBugs)
        out += " prioritized-bug cases differ";
    if (walked.planFingerprints != expected.planFingerprints)
        out += " plan-fingerprint sets differ";
    if (out.empty() && !(walked == expected))
        out += " other CampaignStats fields differ";
    return out;
}

} // namespace

void
walkCampaign(const WorkloadSpec &spec, const CampaignRun &reference,
             const std::string &checkpoint_path, WalkTotals &totals)
{
    static const uint32_t shard_span = spanName("campaign.shard");
    static const uint32_t serialize_span =
        spanName("checkpoint.serialize");
    static const uint32_t save_span = spanName("checkpoint.save");
    static const uint32_t restore_span = spanName("checkpoint.restore");
    SpanRecorder &recorder = SpanRecorder::instance();
    StatementLog &log = StatementLog::instance();

    SchedulerConfig config =
        makeConfig(spec, reference.seed, checkpoint_path);
    CampaignScheduler scheduler(config);
    std::vector<CampaignConfig> plan = scheduler.plan();
    const bool persist = !config.checkpointPath.empty();
    CampaignCheckpoint checkpoint;
    checkpoint.configFingerprint = scheduler.planFingerprint();
    checkpoint.totalShards = plan.size();

    auto start = std::chrono::steady_clock::now();
    recorder.setEnabled(true);
    std::vector<CampaignStats> walked(plan.size());
    for (size_t index = 0; index < plan.size(); ++index) {
        recorder.setShard(static_cast<int32_t>(index));
        log.dialect = plan[index].dialect;
        ShardWalk walk(plan[index]);
        auto shard_start = std::chrono::steady_clock::now();
        {
            ScopedSpan span(shard_span);
            walked[index] = runShard(walk, totals);
        }
        double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - shard_start)
                             .count();
        if (!persist)
            continue;
        // The scheduler's crash-safety path: serialize the finished
        // shard, then rewrite the whole checkpoint file.
        {
            ScopedSpan span(serialize_span);
            checkpoint.shards[index] = checkpointShard(
                walked[index], walk.tracker, walk.registry, 0, seconds);
        }
        {
            ScopedSpan span(save_span);
            Status saved = checkpoint.saveTo(config.checkpointPath);
            if (!saved.isOk())
                totals.mismatches.push_back("checkpoint save failed: " +
                                            saved.toString());
        }
        ++totals.checkpointSaves;
        std::error_code ec;
        auto bytes = std::filesystem::file_size(config.checkpointPath, ec);
        if (!ec)
            totals.checkpointBytes += bytes;
    }

    // Attribution after the drain, as the untraced run does it.
    log.phase = "attribution";
    log.check = -1;
    for (size_t index = 0; index < plan.size(); ++index) {
        recorder.setShard(static_cast<int32_t>(index));
        log.dialect = plan[index].dialect;
        const DialectProfile *profile = findDialect(plan[index].dialect);
        std::set<FaultId> attributed;
        size_t unattributed = 0;
        const auto &bugs = walked[index].prioritizedBugs;
        for (size_t b = 0; b < bugs.size(); ++b) {
            auto fault = attributeBug(*profile, bugs[b], totals);
            if (fault.has_value()) {
                ++totals.bugsAttributed;
                attributed.insert(*fault);
            } else {
                ++unattributed;
            }
            if (index < reference.faults.size() &&
                b < reference.faults[index].size() &&
                reference.faults[index][b] != fault)
                totals.mismatches.push_back(format(
                    "seed %llu shard %zu bug %zu: walk attributes %s, "
                    "untraced %s",
                    (unsigned long long)reference.seed, index, b,
                    fault ? faultName(*fault) : "none",
                    reference.faults[index][b]
                        ? faultName(*reference.faults[index][b])
                        : "none"));
        }
        totals.uniqueBugs +=
            attributed.size() + (unattributed > 0 ? 1 : 0);
        totals.unattributed += unattributed;
    }

    // Every shard must come back from its checkpoint payload intact.
    recorder.setShard(-1);
    for (auto &[index, payload] : checkpoint.shards) {
        RestoredShard restored;
        Status status;
        {
            ScopedSpan span(restore_span);
            status = restoreShard(payload, config.campaign.feedback,
                                  restored);
        }
        if (!status.isOk() || !(restored.stats == walked[index]))
            totals.mismatches.push_back(format(
                "seed %llu shard %zu: checkpoint restore round trip "
                "differs",
                (unsigned long long)reference.seed, index));
    }
    recorder.setEnabled(false);
    totals.wallSeconds += std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
    if (persist)
        std::filesystem::remove(config.checkpointPath);

    if (reference.shards.size() != plan.size()) {
        totals.mismatches.push_back(
            format("seed %llu: untraced run has %zu shards, plan %zu",
                   (unsigned long long)reference.seed,
                   reference.shards.size(), plan.size()));
        return;
    }
    for (size_t index = 0; index < plan.size(); ++index) {
        std::string diff =
            compareStats(walked[index], reference.shards[index].stats);
        if (!diff.empty())
            totals.mismatches.push_back(
                format("seed %llu shard %zu (%s):%s",
                       (unsigned long long)reference.seed, index,
                       plan[index].dialect.c_str(), diff.c_str()));
    }
}

void
reduceSample(const CampaignRun &reference, size_t sample,
             WalkTotals &totals)
{
    static const uint32_t reduce_span = spanName("reducer.reduce");
    static const uint32_t replay_span = spanName("reducer.replay");
    SpanRecorder &recorder = SpanRecorder::instance();
    StatementLog &log = StatementLog::instance();
    recorder.setEnabled(true);
    log.phase = "reduce";
    log.check = -1;
    for (const ShardOutcome &shard : reference.shards) {
        recorder.setShard(static_cast<int32_t>(shard.shardIndex));
        log.dialect = shard.dialect;
        const DialectProfile *profile = findDialect(shard.dialect);
        for (const BugCase &original : shard.stats.prioritizedBugs) {
            if (totals.reduced >= sample)
                break;
            BugCase bug = original;
            ScopedSpan span(reduce_span);
            ReduceStats reduced =
                reduceBugCase(bug, [&](const BugCase &candidate) {
                    ScopedSpan replay(replay_span);
                    return CampaignRunner::reproduces(*profile, candidate);
                });
            ++totals.reduced;
            totals.reduceReplays += reduced.replays;
        }
    }
    recorder.setEnabled(false);
}

} // namespace perfbench
