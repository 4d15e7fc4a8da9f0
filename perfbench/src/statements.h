/**
 * @file
 * Per-statement accounting for the traced walk: every statement that
 * reaches the execution layer (Connection::execute/executeAdapted and
 * the isolation oracle's Database::execute) while tracing is on is
 * timed, classified, and kept in a top-K list of the slowest ones.
 */
#ifndef PERFBENCH_STATEMENTS_H
#define PERFBENCH_STATEMENTS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** select / write / txn, by the statement's leading keyword. */
enum class StatementClass
{
    Select,
    Write,
    Txn,
};

StatementClass classifyStatement(const std::string &sql);

/** One entry of the slow-statement report. */
struct SlowStatement
{
    double ms = 0.0;
    std::string sql;
    std::string dialect;
    int32_t shard = -1;
    /** Check index inside the shard; -1 outside the check loop. */
    int64_t check = -1;
    /** setup / check / attribution / reduce. */
    std::string phase;
};

class StatementLog
{
  public:
    static StatementLog &instance();

    /** Where the walk is; stamped on every statement noted. */
    std::string dialect;
    int64_t check = -1;
    std::string phase = "setup";

    void note(const std::string &sql, int64_t nanos, bool ok,
              bool budget_exhausted, int32_t shard);
    void clear();

    uint64_t statements = 0;
    uint64_t errors = 0;
    uint64_t budgetExhausted = 0;
    uint64_t over1ms = 0;
    uint64_t over10ms = 0;
    int64_t maxNanos = 0;
    /** Slowest statements, slowest first. */
    std::vector<SlowStatement> slowest;
    size_t keep = 10;
};

} // namespace perfbench

#endif // PERFBENCH_STATEMENTS_H
