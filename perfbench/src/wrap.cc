/**
 * @file
 * Link-time wrappers (ld --wrap, see CMakeLists.txt) around the public
 * functions the walk cannot time from its own call sites because the
 * program calls them internally: statement execution inside oracles
 * and replays, parsing inside execution, and printing inside oracles
 * and the generator; and one shard's campaign (CampaignRunner::run,
 * called by the scheduler), which the untraced run times per shard. With tracing off each wrapper is one branch and a
 * tail call; with tracing on it records a span (and, for statements, a
 * StatementLog entry). Only calls that cross object files are wrapped,
 * so a function calling itself internally is timed once, at the top.
 */
#include <algorithm>
#include <cctype>
#include <string>

#include "bench.h"
#include "core/campaign.h"
#include "dialect/connection.h"
#include "engine/database.h"
#include "parser/parser.h"
#include "sqlir/printer.h"
#include "spans.h"
#include "statements.h"

using sqlpp::CampaignRunner;
using sqlpp::CampaignStats;
using sqlpp::Connection;
using sqlpp::Database;
using sqlpp::ErrorCode;
using sqlpp::Expr;
using sqlpp::ResultSet;
using sqlpp::SelectStmt;
using sqlpp::SessionId;
using sqlpp::StatusOr;
using sqlpp::StmtPtr;

#define SQLPP_STR "NSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE"
#define CONN_EXECUTE "_ZN5sqlpp10Connection7executeERK" SQLPP_STR
#define CONN_EXECUTE_ADAPTED                                          \
    "_ZN5sqlpp10Connection14executeAdaptedERK" SQLPP_STR
#define DB_EXECUTE "_ZN5sqlpp8Database7executeERK" SQLPP_STR
#define DB_EXECUTE_SESSION "_ZN5sqlpp8Database7executeERK" SQLPP_STR "j"
#define PARSE_STATEMENT "_ZN5sqlpp14parseStatementERK" SQLPP_STR
#define PRINT_SELECT "_ZN5sqlpp11printSelectB5cxx11ERKNS_10SelectStmtE"
#define PRINT_EXPR "_ZN5sqlpp9printExprB5cxx11ERKNS_4ExprE"
#define RUNNER_RUN "_ZN5sqlpp14CampaignRunner3runEv"

// A member function's `this` travels as the first ordinary argument
// (after any hidden return slot), so these free-function views share
// the members' calling convention.
StatusOr<ResultSet> realConnExecute(Connection *, const std::string &)
    asm("__real_" CONN_EXECUTE);
StatusOr<ResultSet> wrapConnExecute(Connection *, const std::string &)
    asm("__wrap_" CONN_EXECUTE);
StatusOr<ResultSet> realConnExecuteAdapted(Connection *,
                                           const std::string &)
    asm("__real_" CONN_EXECUTE_ADAPTED);
StatusOr<ResultSet> wrapConnExecuteAdapted(Connection *,
                                           const std::string &)
    asm("__wrap_" CONN_EXECUTE_ADAPTED);
StatusOr<ResultSet> realDbExecute(Database *, const std::string &)
    asm("__real_" DB_EXECUTE);
StatusOr<ResultSet> wrapDbExecute(Database *, const std::string &)
    asm("__wrap_" DB_EXECUTE);
StatusOr<ResultSet> realDbExecuteSession(Database *, const std::string &,
                                         SessionId)
    asm("__real_" DB_EXECUTE_SESSION);
StatusOr<ResultSet> wrapDbExecuteSession(Database *, const std::string &,
                                         SessionId)
    asm("__wrap_" DB_EXECUTE_SESSION);
StatusOr<StmtPtr> realParseStatement(const std::string &)
    asm("__real_" PARSE_STATEMENT);
StatusOr<StmtPtr> wrapParseStatement(const std::string &)
    asm("__wrap_" PARSE_STATEMENT);
std::string realPrintSelect(const SelectStmt &) asm("__real_" PRINT_SELECT);
std::string wrapPrintSelect(const SelectStmt &) asm("__wrap_" PRINT_SELECT);
std::string realPrintExpr(const Expr &) asm("__real_" PRINT_EXPR);
std::string wrapPrintExpr(const Expr &) asm("__wrap_" PRINT_EXPR);
CampaignStats realRunnerRun(CampaignRunner *) asm("__real_" RUNNER_RUN);
CampaignStats wrapRunnerRun(CampaignRunner *) asm("__wrap_" RUNNER_RUN);

namespace perfbench {

StatementClass
classifyStatement(const std::string &sql)
{
    size_t i = 0;
    while (i < sql.size() &&
           (std::isspace(static_cast<unsigned char>(sql[i])) ||
            sql[i] == '('))
        ++i;
    std::string word;
    while (i < sql.size() &&
           std::isalpha(static_cast<unsigned char>(sql[i])))
        word += static_cast<char>(
            std::toupper(static_cast<unsigned char>(sql[i++])));
    if (word == "SELECT" || word == "WITH" || word == "VALUES")
        return StatementClass::Select;
    if (word == "BEGIN" || word == "START" || word == "COMMIT" ||
        word == "ROLLBACK" || word == "SAVEPOINT" || word == "RELEASE" ||
        word == "END")
        return StatementClass::Txn;
    return StatementClass::Write;
}

StatementLog &
StatementLog::instance()
{
    static StatementLog log;
    return log;
}

void
StatementLog::note(const std::string &sql, int64_t nanos, bool ok,
                   bool budget_exhausted, int32_t shard)
{
    ++statements;
    if (!ok)
        ++errors;
    if (budget_exhausted)
        ++budgetExhausted;
    if (nanos > 1000000)
        ++over1ms;
    if (nanos > 10000000)
        ++over10ms;
    maxNanos = std::max(maxNanos, nanos);
    double ms = nanos / 1e6;
    if (slowest.size() >= keep && ms <= slowest.back().ms)
        return;
    SlowStatement entry;
    entry.ms = ms;
    entry.sql = sql.size() > 400 ? sql.substr(0, 400) + "..." : sql;
    entry.dialect = dialect;
    entry.shard = shard;
    entry.check = check;
    entry.phase = phase;
    auto at = std::upper_bound(
        slowest.begin(), slowest.end(), ms,
        [](double value, const SlowStatement &s) { return value > s.ms; });
    slowest.insert(at, std::move(entry));
    if (slowest.size() > keep)
        slowest.pop_back();
}

void
StatementLog::clear()
{
    *this = StatementLog();
}

namespace {

uint32_t
statementSpanName(StatementClass kind)
{
    static const uint32_t ids[] = {
        SpanRecorder::instance().intern("dialect.exec_select"),
        SpanRecorder::instance().intern("dialect.exec_write"),
        SpanRecorder::instance().intern("dialect.exec_txn"),
    };
    return ids[static_cast<int>(kind)];
}

template <typename Call>
StatusOr<ResultSet>
timedStatement(const std::string &sql, Call &&call)
{
    SpanRecorder &recorder = SpanRecorder::instance();
    int32_t index = recorder.open(statementSpanName(classifyStatement(sql)));
    StatusOr<ResultSet> result = call();
    recorder.close(index);
    const Span &span = recorder.spans()[static_cast<size_t>(index)];
    StatementLog::instance().note(
        sql, span.duration(), result.isOk(),
        result.status().code() == ErrorCode::BudgetExhausted,
        span.shard);
    return result;
}

} // namespace
} // namespace perfbench

using perfbench::SpanRecorder;

StatusOr<ResultSet>
wrapConnExecute(Connection *self, const std::string &sql)
{
    if (!SpanRecorder::instance().enabled())
        return realConnExecute(self, sql);
    return perfbench::timedStatement(
        sql, [&] { return realConnExecute(self, sql); });
}

StatusOr<ResultSet>
wrapConnExecuteAdapted(Connection *self, const std::string &sql)
{
    if (!SpanRecorder::instance().enabled())
        return realConnExecuteAdapted(self, sql);
    return perfbench::timedStatement(
        sql, [&] { return realConnExecuteAdapted(self, sql); });
}

StatusOr<ResultSet>
wrapDbExecute(Database *self, const std::string &sql)
{
    if (!SpanRecorder::instance().enabled())
        return realDbExecute(self, sql);
    return perfbench::timedStatement(
        sql, [&] { return realDbExecute(self, sql); });
}

StatusOr<ResultSet>
wrapDbExecuteSession(Database *self, const std::string &sql,
                     SessionId session)
{
    if (!SpanRecorder::instance().enabled())
        return realDbExecuteSession(self, sql, session);
    return perfbench::timedStatement(
        sql, [&] { return realDbExecuteSession(self, sql, session); });
}

StatusOr<StmtPtr>
wrapParseStatement(const std::string &sql)
{
    if (!SpanRecorder::instance().enabled())
        return realParseStatement(sql);
    static const uint32_t name =
        SpanRecorder::instance().intern("parser.parse");
    perfbench::ScopedSpan span(name);
    return realParseStatement(sql);
}

std::string
wrapPrintSelect(const SelectStmt &select)
{
    if (!SpanRecorder::instance().enabled())
        return realPrintSelect(select);
    static const uint32_t name =
        SpanRecorder::instance().intern("sqlir.print");
    perfbench::ScopedSpan span(name);
    return realPrintSelect(select);
}

std::string
wrapPrintExpr(const Expr &expr)
{
    if (!SpanRecorder::instance().enabled())
        return realPrintExpr(expr);
    static const uint32_t name =
        SpanRecorder::instance().intern("sqlir.print");
    perfbench::ScopedSpan span(name);
    return realPrintExpr(expr);
}

CampaignStats
wrapRunnerRun(CampaignRunner *self)
{
    perfbench::ShardClock &clock = perfbench::ShardClock::instance();
    if (!clock.enabled())
        return realRunnerRun(self);
    const int64_t start = perfbench::nowNs();
    const double cpu = perfbench::threadCpuSeconds();
    CampaignStats stats = realRunnerRun(self);
    clock.note({(perfbench::nowNs() - start) / 1e9,
                perfbench::threadCpuSeconds() - cpu});
    return stats;
}
