/**
 * @file
 * Fault injection: the ground-truth logic bugs of the DBMS substrate.
 *
 * The paper finds unknown logic bugs in production DBMSs; our substrate
 * instead ships a library of *known* semantic faults that each dialect
 * profile enables a subset of. Every fault is a deliberate, localized
 * deviation from correct SQL semantics in the planner or evaluator —
 * the same classes of defects the paper reports (wrong three-valued
 * logic, bad index scans, illegal predicate movement around outer
 * joins, constant-folding slips, join-key coercion bugs).
 *
 * Ground-truth identities let the evaluation measure what the paper
 * could only approximate by bisecting CrateDB commits: how many of the
 * prioritized bug-inducing test cases map to distinct underlying bugs
 * (Table 5).
 *
 * Oracle visibility (by construction, mirroring the paper's findings):
 *  - Planner faults are visible to both NoREC and TLP (the optimized
 *    WHERE path diverges from reference evaluation).
 *  - Faults in NOT / IS NULL / WHERE NULL-handling break TLP's
 *    partition law (every row satisfies exactly one of p, NOT p,
 *    p IS NULL) and are TLP-only.
 *  - IsTrueFalseTrue corrupts the projected `(p) IS TRUE` reference
 *    side and is NoREC-only.
 *  - A few faults (marked "latent") are invisible to both oracles,
 *    modelling the paper's observation that bug-finding never saturates.
 */
#ifndef SQLPP_ENGINE_FAULTS_H
#define SQLPP_ENGINE_FAULTS_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace sqlpp {

/** Every injectable logic bug. Values are stable (used in reports). */
enum class FaultId : uint32_t
{
    /** Planner: index scan for `col > k` also returns rows with col = k. */
    IndexRangeGtIncludesEqual = 1,
    /** Planner: index scan for `col < k` also returns rows with col = k. */
    IndexRangeLtIncludesEqual = 2,
    /** Planner: `col IS NULL` via index misses rows (NULLs unindexed). */
    IndexSkipsNull = 3,
    /** Planner: index equality probe coerces a text key to an integer. */
    IndexEqTextCoerce = 4,
    /** Planner: a partial index is used without checking its predicate. */
    PartialIndexIgnoresPredicate = 5,
    /** Planner: single-table WHERE conjunct pushed below an outer join. */
    PushdownThroughOuterJoin = 6,
    /**
     * Planner: when a query has a WHERE clause, the "flattener" moves a
     * RIGHT JOIN's ON term into it (paper Listing 4's root cause). The
     * WHERE-conditionality is what makes the fault oracle-visible: a
     * predicate-free query plans correctly, a predicated one does not.
     */
    OnToWhereRightJoin = 7,
    /** Planner: hash join matches NULL keys as equal. */
    HashJoinNullMatch = 8,
    /** Planner: constant folding reduces NULLIF(x, x) to x, not NULL. */
    ConstFoldNullifIdentity = 9,
    /**
     * Planner: the constant folder treats a literal TRUE as the
     * *absorbing* element of AND instead of the identity — a top-level
     * WHERE of shape `<x> AND TRUE` folds to TRUE, keeping every row.
     * Only rewrite-shaped inputs (EET's `p AND TRUE` wrapper) ever
     * present this tree, so plain generated predicates sail past it.
     */
    ConstFoldTrueAbsorbsAnd = 10,

    /** Evaluator: NOT NULL evaluates to TRUE instead of NULL. */
    NotNullTrue = 20,
    /** Evaluator: (x IS NULL) returns FALSE for a NULL boolean operand. */
    IsNullFalseForBoolNull = 21,
    /** Executor: WHERE keeps rows whose predicate evaluates to NULL. */
    WhereNullAsTrue = 22,
    /**
     * Evaluator: mixed-type equality (TEXT vs INT) flips its result when
     * evaluated under an odd number of enclosing NOTs — the
     * context-dependent comparison mechanism behind the paper's
     * ten-year-old SQLite REPLACE bug (Listing 3).
     */
    NegContextMixedEq = 23,
    /** Evaluator: (FALSE IS TRUE) evaluates to TRUE. */
    IsTrueFalseTrue = 24,
    /** Executor: DISTINCT collapses any two rows that both contain NULL. */
    DistinctNullCollapse = 25,
    /**
     * Evaluator: REPLACE returns a numeric value (not TEXT) when its
     * subject is numeric — the direct cause of the paper's Listing 3
     * SQLite bug; observable through mixed-type comparisons, and
     * TLP-visible in combination with NegContextMixedEq.
     */
    ReplaceNumericSubject = 26,
    /**
     * Evaluator: a double negation evaluated as the *root* of a value
     * expression short-circuits its three-valued logic — `NOT (NOT p)`
     * at an evaluation root returns FALSE where p is NULL. In WHERE
     * position NULL and FALSE both exclude the row, so every WHERE-based
     * oracle is structurally blind; only an oracle that projects the
     * doubly-negated predicate as a *value* (EET's projection lane) can
     * observe the NULL -> FALSE collapse.
     */
    DoubleNegNullFalse = 27,

    /** Latent evaluator: <=> with two NULL operands yields FALSE. */
    NullSafeEqBothNullFalse = 40,
    /** Latent aggregate: SUM over zero rows yields 0 instead of NULL. */
    SumEmptyZero = 41,
    /** Latent executor: GROUP BY makes every NULL key its own group. */
    GroupByNullSeparate = 42,
    /** Latent evaluator: LIKE treats '_' as a literal underscore. */
    LikeUnderscoreLiteral = 43,

    /**
     * Isolation faults (60-block): multi-session transaction bugs.
     * Each is an exact no-op for single-session auto-commit use — only
     * interleaved sessions with open transactions can observe them, so
     * every single-session oracle is structurally blind and only the
     * interleaving-aware IsolationOracle ("ISO") detects them.
     */
    /** Reads see other sessions' uncommitted writes. */
    TxnDirtyRead = 60,
    /**
     * In-transaction reads track latest-committed state instead of the
     * BEGIN snapshot (read committed where snapshot was claimed).
     */
    TxnNonRepeatableRead = 61,
    /**
     * Only *predicated* reads (WHERE present) rescan latest-committed
     * state inside a transaction — the index-rescan phantom: full
     * scans honour the snapshot, filtered scans leak new rows.
     */
    TxnPhantomClaimedSnapshot = 62,
    /**
     * COMMIT publishes the session's private version of the database
     * wholesale instead of replaying its writes onto the latest
     * committed state — concurrent committers' rows are clobbered.
     */
    TxnLostUpdate = 63,
};

/** All fault ids, in declaration order (ascending). */
inline constexpr FaultId kAllFaultIds[] = {
    FaultId::IndexRangeGtIncludesEqual,
    FaultId::IndexRangeLtIncludesEqual,
    FaultId::IndexSkipsNull,
    FaultId::IndexEqTextCoerce,
    FaultId::PartialIndexIgnoresPredicate,
    FaultId::PushdownThroughOuterJoin,
    FaultId::OnToWhereRightJoin,
    FaultId::HashJoinNullMatch,
    FaultId::ConstFoldNullifIdentity,
    FaultId::ConstFoldTrueAbsorbsAnd,
    FaultId::NotNullTrue,
    FaultId::IsNullFalseForBoolNull,
    FaultId::WhereNullAsTrue,
    FaultId::NegContextMixedEq,
    FaultId::IsTrueFalseTrue,
    FaultId::DistinctNullCollapse,
    FaultId::ReplaceNumericSubject,
    FaultId::DoubleNegNullFalse,
    FaultId::NullSafeEqBothNullFalse,
    FaultId::SumEmptyZero,
    FaultId::GroupByNullSeparate,
    FaultId::LikeUnderscoreLiteral,
    FaultId::TxnDirtyRead,
    FaultId::TxnNonRepeatableRead,
    FaultId::TxnPhantomClaimedSnapshot,
    FaultId::TxnLostUpdate,
};

// FaultSet stores one bit per id value.
static_assert(std::all_of(std::begin(kAllFaultIds), std::end(kAllFaultIds),
                          [](FaultId id) {
                              return static_cast<uint32_t>(id) < 64;
                          }),
              "every fault id must fit a 64-bit FaultSet mask");

/** All fault ids, in declaration order. */
const std::vector<FaultId> &allFaultIds();

/** Short stable name of a fault (e.g. "ON_TO_WHERE_RIGHT_JOIN"). */
const char *faultName(FaultId id);

/** One-line human description. */
const char *faultDescription(FaultId id);

/** True if the fault lives in the optimizing planner (not the evaluator). */
bool isPlannerFault(FaultId id);

/** True if the fault is invisible to both shipped oracles by design. */
bool isLatentFault(FaultId id);

/** True for the multi-session isolation fault family (60-block). */
bool isIsolationFault(FaultId id);

/**
 * A subset of faults: the ones a Database configuration enables, or the
 * ones a replay saw fire (FaultCapture). One bit per id value, so a
 * hook's isEnabled() is a mask test and a copy is one word.
 */
class FaultSet
{
  public:
    FaultSet() = default;
    explicit FaultSet(std::initializer_list<FaultId> ids)
    {
        for (FaultId id : ids)
            enable(id);
    }

    void enable(FaultId id) { mask_ |= bit(id); }
    void disable(FaultId id) { mask_ &= ~bit(id); }
    bool isEnabled(FaultId id) const { return (mask_ & bit(id)) != 0; }
    bool empty() const { return mask_ == 0; }
    size_t size() const { return std::popcount(mask_); }

    /**
     * Divergence point of a fault hook: true when @p id is enabled, and
     * then recorded as fired in the thread's FaultCapture. Call it only
     * where the faulty branch departs from correct behaviour, after
     * every structural condition of that branch has been checked.
     */
    bool fires(FaultId id) const;

    /** The ids in the set, in ascending id order. */
    std::vector<FaultId>
    ids() const
    {
        std::vector<FaultId> out;
        for (uint64_t rest = mask_; rest != 0; rest &= rest - 1)
            out.push_back(static_cast<FaultId>(std::countr_zero(rest)));
        return out;
    }

    /** The faults in both sets. */
    FaultSet
    operator&(const FaultSet &other) const
    {
        FaultSet both;
        both.mask_ = mask_ & other.mask_;
        return both;
    }

    FaultSet &
    operator|=(const FaultSet &other)
    {
        mask_ |= other.mask_;
        return *this;
    }

    bool operator==(const FaultSet &) const = default;

  private:
    static constexpr uint64_t
    bit(FaultId id)
    {
        return uint64_t{1} << static_cast<uint32_t>(id);
    }

    uint64_t mask_ = 0;
};

/**
 * Thread-local record of the faults that fired: the fault hooks whose
 * faulty branch actually departed from correct behaviour while the
 * capture was installed.
 *
 * Exactness rule: a fault that did not fire could have been disabled
 * without changing anything the engine did. So a replay with that
 * fault disabled is bit-identical to the captured one, and ground-truth
 * attribution (CampaignRunner::attributeFault) only has to ablate the
 * fired faults. Every hook therefore marks at its divergence point
 * (FaultSet::fires / noteFaultFired), and a read of the whole set that
 * changes behaviour marks the faults it depends on.
 *
 * RAII, like CoverageCapture: constructing installs the capture on the
 * current thread (stacking over any previous one); destructing restores
 * the previous capture and credits it with everything that fired in
 * between. With no capture installed a divergence point costs one null
 * check.
 */
class FaultCapture
{
  public:
    FaultCapture();
    ~FaultCapture();
    FaultCapture(const FaultCapture &) = delete;
    FaultCapture &operator=(const FaultCapture &) = delete;

    /** Faults that fired on this thread since construction. */
    const FaultSet &fired() const { return fired_; }

    /** The calling thread's innermost capture, or nullptr. */
    static FaultCapture *
    active()
    {
        return t_active;
    }

    /** Record that @p id fired (called via noteFaultFired). */
    void note(FaultId id) { fired_.enable(id); }

  private:
    static inline constinit thread_local FaultCapture *t_active = nullptr;

    FaultSet fired_;
    FaultCapture *previous_ = nullptr;
};

/** Record that @p id departed from correct behaviour on this thread. */
inline void
noteFaultFired(FaultId id)
{
    if (FaultCapture *capture = FaultCapture::active())
        capture->note(id);
}

inline bool
FaultSet::fires(FaultId id) const
{
    if (!isEnabled(id))
        return false;
    noteFaultFired(id);
    return true;
}

/** Names of the faults in @p faults, ascending ("A, B"; "none"). */
std::string faultNames(const FaultSet &faults);

} // namespace sqlpp

#endif // SQLPP_ENGINE_FAULTS_H
