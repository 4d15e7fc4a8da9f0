/**
 * @file
 * Dialect probe: learn a DBMS's feature matrix from scratch.
 *
 * Demonstrates the adaptive generator's learning loop in isolation: no
 * oracle, just statement generation plus validity feedback. After the
 * probing budget the inferred support table is printed and persisted to
 * a file that future runs can load (the paper's step 4 -> step 1
 * persistence), skipping the learning phase entirely.
 *
 *   ./dialect_probe [dialect] [statements] [state-file]
 *   ./dialect_probe --replay repro.sql
 *
 * --replay re-runs a bug dossier's repro.sql (core/dossier.h) on a
 * fresh connection: exit 0 when the oracle still flags the bug, 1 when
 * it does not reproduce — the verification hook trace_smoke.sh and the
 * dossier integration test rely on. It also names the injected faults
 * that fired during the replay: the candidates ground-truth
 * attribution ablates.
 */
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/baseline.h"
#include "core/dossier.h"
#include "core/feedback.h"
#include "core/generator.h"
#include "dialect/connection.h"
#include "util/persist.h"

using namespace sqlpp;

int
main(int argc, char **argv)
{
    if (argc > 1 && std::strcmp(argv[1], "--replay") == 0) {
        if (argc < 3) {
            std::fprintf(stderr,
                         "usage: dialect_probe --replay repro.sql\n");
            return 2;
        }
        std::string details;
        FaultSet fired;
        bool reproduced = replayReproFile(argv[2], &details, &fired);
        std::printf("%s: %s\n", argv[2],
                    reproduced ? "bug reproduced" : "did NOT reproduce");
        if (!details.empty())
            std::printf("  %s\n", details.c_str());
        std::printf("  fired faults: %s\n", faultNames(fired).c_str());
        return reproduced ? 0 : 1;
    }
    std::string dialect = argc > 1 ? argv[1] : "cratedb-like";
    size_t budget = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 4000;
    std::string state_file = argc > 3 ? argv[3] : "";

    const DialectProfile *profile = findDialect(dialect);
    if (profile == nullptr) {
        std::fprintf(stderr, "unknown dialect '%s'\n", dialect.c_str());
        return 1;
    }

    FeatureRegistry registry;
    FeedbackConfig feedback_config;
    feedback_config.updateInterval = 250;
    feedback_config.ddlFailureLimit = 8;
    FeedbackTracker tracker(feedback_config);

    // Optionally resume from persisted state.
    if (!state_file.empty()) {
        KvStore store;
        if (store.load(state_file).isOk()) {
            tracker.load(registry, store);
            std::printf("loaded %zu persisted entries from %s\n",
                        store.size(), state_file.c_str());
        }
    }

    FeedbackGate gate(tracker);
    SchemaModel model;
    GeneratorConfig generator_config;
    generator_config.seed = 7;
    AdaptiveGenerator generator(generator_config, registry, gate, model);
    Connection connection(*profile);

    std::printf("== probing %s with %zu statements ==\n",
                dialect.c_str(), budget);
    size_t ok_count = 0;
    for (size_t i = 0; i < budget; ++i) {
        bool setup_phase = i < budget / 5 || model.tableCount(false) == 0;
        GeneratedStatement stmt = setup_phase
                                      ? generator.generateSetupStatement()
                                      : generator.generateSelect();
        bool ok = connection.executeAdapted(stmt.text).isOk();
        tracker.record(stmt.features, ok, stmt.isQuery);
        generator.noteExecution(stmt, ok);
        ok_count += ok ? 1 : 0;
    }
    tracker.updateNow();
    std::printf("overall validity: %.1f%%\n\n",
                100.0 * ok_count / budget);

    // Compare the learned verdicts against the ground-truth matrix.
    ProfileGate truth(*profile, registry);
    std::printf("%-28s %8s %8s %10s %s\n", "feature", "N", "y",
                "est.prob", "verdict");
    size_t agree = 0, total = 0;
    for (FeatureId id = 0; id < registry.size(); ++id) {
        const FeatureStats &stat = tracker.stats(id);
        if (stat.executions < 5)
            continue;
        bool learned_ok = tracker.shouldGenerate(id);
        bool truly_ok = truth.allow(id);
        ++total;
        agree += (learned_ok == truly_ok) ? 1 : 0;
        if (!learned_ok || !truly_ok) {
            std::printf("%-28s %8llu %8llu %9.3f%% %s%s\n",
                        registry.name(id).c_str(),
                        (unsigned long long)stat.executions,
                        (unsigned long long)stat.successes,
                        100.0 * tracker.estimatedProbability(id),
                        learned_ok ? "supported" : "UNSUPPORTED",
                        learned_ok == truly_ok ? "" : "   (differs)");
        }
    }
    std::printf("\nlearned/ground-truth agreement: %zu of %zu "
                "exercised features\n",
                agree, total);

    if (!state_file.empty()) {
        KvStore store;
        tracker.save(registry, store);
        if (store.save(state_file).isOk()) {
            std::printf("persisted %zu entries to %s\n", store.size(),
                        state_file.c_str());
        }
    }
    return 0;
}
