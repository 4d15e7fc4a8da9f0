#include "engine/faults.h"

namespace sqlpp {

const std::vector<FaultId> &
allFaultIds()
{
    static const std::vector<FaultId> ids(std::begin(kAllFaultIds),
                                          std::end(kAllFaultIds));
    return ids;
}

FaultCapture::FaultCapture() : previous_(t_active)
{
    t_active = this;
}

FaultCapture::~FaultCapture()
{
    t_active = previous_;
    if (previous_ != nullptr)
        previous_->fired_ |= fired_;
}

const char *
faultName(FaultId id)
{
    switch (id) {
      case FaultId::IndexRangeGtIncludesEqual:
        return "INDEX_RANGE_GT_INCLUDES_EQUAL";
      case FaultId::IndexRangeLtIncludesEqual:
        return "INDEX_RANGE_LT_INCLUDES_EQUAL";
      case FaultId::IndexSkipsNull: return "INDEX_SKIPS_NULL";
      case FaultId::IndexEqTextCoerce: return "INDEX_EQ_TEXT_COERCE";
      case FaultId::PartialIndexIgnoresPredicate:
        return "PARTIAL_INDEX_IGNORES_PREDICATE";
      case FaultId::PushdownThroughOuterJoin:
        return "PUSHDOWN_THROUGH_OUTER_JOIN";
      case FaultId::OnToWhereRightJoin: return "ON_TO_WHERE_RIGHT_JOIN";
      case FaultId::HashJoinNullMatch: return "HASH_JOIN_NULL_MATCH";
      case FaultId::ConstFoldNullifIdentity:
        return "CONST_FOLD_NULLIF_IDENTITY";
      case FaultId::ConstFoldTrueAbsorbsAnd:
        return "CONST_FOLD_TRUE_ABSORBS_AND";
      case FaultId::NotNullTrue: return "NOT_NULL_TRUE";
      case FaultId::IsNullFalseForBoolNull:
        return "IS_NULL_FALSE_FOR_BOOL_NULL";
      case FaultId::WhereNullAsTrue: return "WHERE_NULL_AS_TRUE";
      case FaultId::NegContextMixedEq: return "NEG_CONTEXT_MIXED_EQ";
      case FaultId::IsTrueFalseTrue: return "IS_TRUE_FALSE_TRUE";
      case FaultId::DistinctNullCollapse: return "DISTINCT_NULL_COLLAPSE";
      case FaultId::ReplaceNumericSubject:
        return "REPLACE_NUMERIC_SUBJECT";
      case FaultId::DoubleNegNullFalse:
        return "DOUBLE_NEG_NULL_FALSE";
      case FaultId::NullSafeEqBothNullFalse:
        return "NULL_SAFE_EQ_BOTH_NULL_FALSE";
      case FaultId::SumEmptyZero: return "SUM_EMPTY_ZERO";
      case FaultId::GroupByNullSeparate: return "GROUP_BY_NULL_SEPARATE";
      case FaultId::LikeUnderscoreLiteral:
        return "LIKE_UNDERSCORE_LITERAL";
      case FaultId::TxnDirtyRead: return "TXN_DIRTY_READ";
      case FaultId::TxnNonRepeatableRead:
        return "TXN_NON_REPEATABLE_READ";
      case FaultId::TxnPhantomClaimedSnapshot:
        return "TXN_PHANTOM_CLAIMED_SNAPSHOT";
      case FaultId::TxnLostUpdate: return "TXN_LOST_UPDATE";
    }
    return "UNKNOWN_FAULT";
}

std::string
faultNames(const FaultSet &faults)
{
    std::string out;
    for (FaultId id : faults.ids()) {
        if (!out.empty())
            out += ", ";
        out += faultName(id);
    }
    return out.empty() ? "none" : out;
}

const char *
faultDescription(FaultId id)
{
    switch (id) {
      case FaultId::IndexRangeGtIncludesEqual:
        return "index range scan for col > k also returns col = k";
      case FaultId::IndexRangeLtIncludesEqual:
        return "index range scan for col < k also returns col = k";
      case FaultId::IndexSkipsNull:
        return "IS NULL index probe misses NULL rows";
      case FaultId::IndexEqTextCoerce:
        return "index equality probe coerces text keys to integers";
      case FaultId::PartialIndexIgnoresPredicate:
        return "partial index chosen without predicate implication check";
      case FaultId::PushdownThroughOuterJoin:
        return "WHERE conjunct pushed below an outer join";
      case FaultId::OnToWhereRightJoin:
        return "RIGHT JOIN ON term moved into the WHERE clause";
      case FaultId::HashJoinNullMatch:
        return "hash join treats NULL join keys as equal";
      case FaultId::ConstFoldNullifIdentity:
        return "constant folding rewrites NULLIF(x, x) to x";
      case FaultId::ConstFoldTrueAbsorbsAnd:
        return "constant folding absorbs WHERE <x> AND TRUE into TRUE";
      case FaultId::NotNullTrue:
        return "NOT NULL evaluates to TRUE instead of NULL";
      case FaultId::IsNullFalseForBoolNull:
        return "IS NULL returns FALSE for NULL boolean operands";
      case FaultId::WhereNullAsTrue:
        return "WHERE keeps rows whose predicate is NULL";
      case FaultId::NegContextMixedEq:
        return "mixed-type equality flips under enclosing NOT";
      case FaultId::IsTrueFalseTrue:
        return "FALSE IS TRUE evaluates to TRUE";
      case FaultId::DistinctNullCollapse:
        return "DISTINCT collapses distinct rows that contain NULL";
      case FaultId::ReplaceNumericSubject:
        return "REPLACE returns a numeric value for numeric subjects";
      case FaultId::DoubleNegNullFalse:
        return "root NOT (NOT p) collapses NULL to FALSE";
      case FaultId::NullSafeEqBothNullFalse:
        return "NULL <=> NULL evaluates to FALSE";
      case FaultId::SumEmptyZero:
        return "SUM over the empty set returns 0 instead of NULL";
      case FaultId::GroupByNullSeparate:
        return "GROUP BY separates NULL keys into distinct groups";
      case FaultId::LikeUnderscoreLiteral:
        return "LIKE treats '_' as a literal character";
      case FaultId::TxnDirtyRead:
        return "reads see other sessions' uncommitted writes";
      case FaultId::TxnNonRepeatableRead:
        return "in-transaction reads follow latest-committed state";
      case FaultId::TxnPhantomClaimedSnapshot:
        return "predicated reads leak committed phantoms into snapshots";
      case FaultId::TxnLostUpdate:
        return "COMMIT clobbers concurrently committed writes";
    }
    return "?";
}

bool
isPlannerFault(FaultId id)
{
    switch (id) {
      case FaultId::IndexRangeGtIncludesEqual:
      case FaultId::IndexRangeLtIncludesEqual:
      case FaultId::IndexSkipsNull:
      case FaultId::IndexEqTextCoerce:
      case FaultId::PartialIndexIgnoresPredicate:
      case FaultId::PushdownThroughOuterJoin:
      case FaultId::OnToWhereRightJoin:
      case FaultId::HashJoinNullMatch:
      case FaultId::ConstFoldNullifIdentity:
      case FaultId::ConstFoldTrueAbsorbsAnd:
        return true;
      default:
        return false;
    }
}

bool
isLatentFault(FaultId id)
{
    switch (id) {
      // Latent *alone*: flips results only through context-dependent
      // comparison, i.e. in combination with NegContextMixedEq
      // (the Listing 3 pairing on the sqlite-like profile).
      case FaultId::ReplaceNumericSubject:
      case FaultId::NullSafeEqBothNullFalse:
      case FaultId::SumEmptyZero:
      case FaultId::GroupByNullSeparate:
      case FaultId::LikeUnderscoreLiteral:
        return true;
      default:
        return false;
    }
}

bool
isIsolationFault(FaultId id)
{
    switch (id) {
      case FaultId::TxnDirtyRead:
      case FaultId::TxnNonRepeatableRead:
      case FaultId::TxnPhantomClaimedSnapshot:
      case FaultId::TxnLostUpdate:
        return true;
      default:
        return false;
    }
}

} // namespace sqlpp
