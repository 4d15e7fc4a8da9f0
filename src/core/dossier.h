/**
 * @file
 * Bug dossiers: one self-contained forensic directory per BugCase.
 *
 * A reduced statement list tells you *what* triggers a bug; a dossier
 * keeps *how the campaign got there*. For every prioritized bug the
 * writer emits `<dossier-dir>/<bug-id>/` containing
 *
 *   repro.sql      self-contained replay script: metadata comments
 *                  (dialect, oracle, base query, predicate) plus the
 *                  setup statements — replayReproFile() re-runs the
 *                  oracle on a fresh connection from this file alone
 *                  (`dialect_probe --replay` wraps it);
 *   dossier.json   the case summary: id, dialect, oracle, details,
 *                  feature names, shard index, restored-from-checkpoint
 *                  flag, and the oracle's recorded query list;
 *   feedback.json  the FeedbackTracker posterior snapshot for the
 *                  features involved in the case (executions,
 *                  successes, posterior mean, suppression verdict);
 *   events.jsonl   the shard's last-N flight-recorder events
 *                  (sqlpp.trace.v1 lines; empty for shards restored
 *                  from a checkpoint — their rings died with the
 *                  original process);
 *   metrics.json   the sqlpp.metrics.v1 snapshot at dossier time.
 *
 * Bug ids hash only the deterministic identity of the case
 * (dialect|oracle|setup|base|predicate), so the id set — and every
 * repro.sql — is identical for any worker count and across
 * SIGKILL+--resume. The scheduler writes dossiers during its
 * deterministic shard-order merge, covering restored shards too.
 */
#ifndef SQLPP_CORE_DOSSIER_H
#define SQLPP_CORE_DOSSIER_H

#include <string>

#include "core/feedback.h"
#include "core/reducer.h"
#include "engine/faults.h"
#include "util/status.h"

namespace sqlpp {

/** Dossier writer configuration. */
struct DossierConfig
{
    /** Root directory; one subdirectory is created per bug id. */
    std::string directory;
    /** Flight-recorder events to keep in events.jsonl (newest N). */
    size_t maxEvents = 64;
};

/** Campaign-side context captured alongside the case. */
struct DossierContext
{
    /** Shard the bug came from (selects the flight-recorder lane). */
    size_t shardIndex = 0;
    /** The shard was restored from a checkpoint (no live ring). */
    bool fromCheckpoint = false;
    /** Posterior source for feedback.json (null = omit the file). */
    const FeedbackTracker *feedback = nullptr;
    /** Registry naming the tracker's feature ids. */
    const FeatureRegistry *registry = nullptr;
};

/**
 * Deterministic bug id: fnv1a over dialect|oracle|setup|base|predicate
 * rendered as 16 hex digits. Independent of worker count, resume, and
 * trace compilation.
 */
std::string bugCaseId(const BugCase &bug);

/** Render the self-contained repro.sql text for a case. */
std::string renderReproSql(const BugCase &bug);

/**
 * Parse a repro.sql back into the BugCase fields replay needs
 * (dialect, oracle, setup, base, predicate).
 */
StatusOr<BugCase> parseReproFile(const std::string &path);

/**
 * Replay a repro.sql on a fresh connection: rebuild the setup, rerun
 * the oracle. True when the bug still manifests. `details`, when
 * non-null, receives the oracle's evidence (or the failure reason);
 * `fired`, when non-null, the injected faults that fired during the
 * replay (FaultCapture).
 */
bool replayReproFile(const std::string &path,
                     std::string *details = nullptr,
                     FaultSet *fired = nullptr);

/**
 * Write the full dossier directory for one case. Creates
 * `config.directory/<bugCaseId(bug)>/`; an existing dossier for the
 * same id is overwritten file-by-file (the id pins the content, so a
 * rewrite is a no-op in the fields that matter).
 */
Status writeBugDossier(const DossierConfig &config, const BugCase &bug,
                       const DossierContext &context);

} // namespace sqlpp

#endif // SQLPP_CORE_DOSSIER_H
