#include "engine/vec_eval.h"

#include <cstdint>
#include <optional>
#include <utility>

namespace sqlpp {

namespace {

/**
 * Charge one evaluator step per active lane for the node being entered.
 * Mirrors evalExprImpl's charge-at-entry, aggregated per chunk.
 */
bool
chargeNode(VecEvalContext &ctx, size_t active_lanes)
{
    if (ctx.budget == nullptr)
        return true;
    Status s = ctx.budget->chargeSteps(active_lanes);
    if (!s.isOk()) {
        ctx.budgetError = std::move(s);
        return false;
    }
    return true;
}

std::optional<bool>
truthAt(const VecColumn &col, uint32_t lane)
{
    if (col.isNull(lane))
        return std::nullopt;
    return valueTruth(col.values[lane]);
}

std::optional<int64_t>
numericAt(const VecColumn &col, uint32_t lane)
{
    if (col.isNull(lane))
        return std::nullopt;
    return valueToNumeric(col.values[lane]);
}

std::optional<std::string>
textAt(const VecColumn &col, uint32_t lane)
{
    if (col.isNull(lane))
        return std::nullopt;
    return valueToText(col.values[lane]);
}

/** compareSql over lanes of two columns; nullopt when either is NULL. */
std::optional<int>
compareAt(const VecColumn &lhs, const VecColumn &rhs, uint32_t lane)
{
    if (lhs.isNull(lane) || rhs.isNull(lane))
        return std::nullopt;
    return compareSql(lhs.values[lane], rhs.values[lane]);
}

/**
 * Fault-free equality (evalEquality with NegContextMixedEq off, which
 * is a compile precondition).
 */
std::optional<bool>
equalAt(const VecColumn &lhs, const VecColumn &rhs, uint32_t lane)
{
    auto cmp = compareAt(lhs, rhs, lane);
    if (!cmp.has_value())
        return std::nullopt;
    return *cmp == 0;
}

class VecLiteral : public VecExpr
{
  public:
    explicit VecLiteral(Value value) : value_(std::move(value)) {}

    VecStatus
    eval(VecEvalContext &ctx, const SelVector &sel,
         VecColumn &out) const override
    {
        if (!chargeNode(ctx, sel.size()))
            return VecStatus::Budget;
        out.reset(ctx.laneCount);
        for (uint32_t lane : sel)
            out.set(lane, value_);
        return VecStatus::Ok;
    }

  private:
    Value value_;
};

class VecColumnRef : public VecExpr
{
  public:
    explicit VecColumnRef(size_t offset) : offset_(offset) {}

    VecStatus
    eval(VecEvalContext &ctx, const SelVector &sel,
         VecColumn &out) const override
    {
        if (!chargeNode(ctx, sel.size()))
            return VecStatus::Budget;
        out.reset(ctx.laneCount);
        for (uint32_t lane : sel)
            out.set(lane, (*ctx.rows[lane])[offset_]);
        return VecStatus::Ok;
    }

  private:
    size_t offset_;
};

class VecUnary : public VecExpr
{
  public:
    VecUnary(UnaryOp op, VecExprPtr operand)
        : op_(op), operand_(std::move(operand))
    {
    }

    VecStatus
    eval(VecEvalContext &ctx, const SelVector &sel,
         VecColumn &out) const override
    {
        if (!chargeNode(ctx, sel.size()))
            return VecStatus::Budget;
        VecStatus st = operand_->eval(ctx, sel, buf_);
        if (st != VecStatus::Ok)
            return st;
        out.reset(ctx.laneCount);
        for (uint32_t lane : sel) {
            switch (op_) {
              case UnaryOp::Not: {
                auto truth = truthAt(buf_, lane);
                if (!truth.has_value())
                    out.setNull(lane);
                else
                    out.set(lane, Value::boolean(!*truth));
                break;
              }
              case UnaryOp::Neg: {
                auto numeric = numericAt(buf_, lane);
                if (!numeric) {
                    out.setNull(lane);
                    break;
                }
                if (*numeric == INT64_MIN)
                    return VecStatus::RowError;
                out.set(lane, Value::integer(-*numeric));
                break;
              }
              case UnaryOp::Plus: {
                auto numeric = numericAt(buf_, lane);
                if (!numeric)
                    out.setNull(lane);
                else
                    out.set(lane, Value::integer(*numeric));
                break;
              }
              case UnaryOp::BitNot: {
                auto numeric = numericAt(buf_, lane);
                if (!numeric)
                    out.setNull(lane);
                else
                    out.set(lane, Value::integer(~*numeric));
                break;
              }
              case UnaryOp::IsNull:
                out.set(lane, Value::boolean(buf_.isNull(lane)));
                break;
              case UnaryOp::IsNotNull:
                out.set(lane, Value::boolean(!buf_.isNull(lane)));
                break;
              case UnaryOp::IsTrue: {
                auto truth = truthAt(buf_, lane);
                out.set(lane,
                        Value::boolean(truth.has_value() && *truth));
                break;
              }
              case UnaryOp::IsFalse: {
                auto truth = truthAt(buf_, lane);
                out.set(lane,
                        Value::boolean(truth.has_value() && !*truth));
                break;
              }
              case UnaryOp::IsNotTrue: {
                auto truth = truthAt(buf_, lane);
                out.set(lane,
                        Value::boolean(!(truth.has_value() && *truth)));
                break;
              }
              case UnaryOp::IsNotFalse: {
                auto truth = truthAt(buf_, lane);
                out.set(lane,
                        Value::boolean(!(truth.has_value() && !*truth)));
                break;
              }
            }
        }
        return VecStatus::Ok;
    }

  private:
    UnaryOp op_;
    VecExprPtr operand_;
    mutable VecColumn buf_;
};

/**
 * AND/OR with vectorized short-circuiting: the right operand evaluates
 * only over lanes the left side did not decide, exactly the rows the
 * row evaluator would have evaluated it for (same errors, same budget).
 */
class VecLogical : public VecExpr
{
  public:
    VecLogical(bool is_and, VecExprPtr lhs, VecExprPtr rhs)
        : is_and_(is_and), lhs_(std::move(lhs)), rhs_(std::move(rhs))
    {
    }

    VecStatus
    eval(VecEvalContext &ctx, const SelVector &sel,
         VecColumn &out) const override
    {
        if (!chargeNode(ctx, sel.size()))
            return VecStatus::Budget;
        VecStatus st = lhs_->eval(ctx, sel, lhs_buf_);
        if (st != VecStatus::Ok)
            return st;
        rhs_sel_.clear();
        for (uint32_t lane : sel) {
            auto a = truthAt(lhs_buf_, lane);
            bool decided = a.has_value() && (is_and_ ? !*a : *a);
            if (!decided)
                rhs_sel_.push_back(lane);
        }
        if (!rhs_sel_.empty()) {
            st = rhs_->eval(ctx, rhs_sel_, rhs_buf_);
            if (st != VecStatus::Ok)
                return st;
        }
        out.reset(ctx.laneCount);
        for (uint32_t lane : sel) {
            auto a = truthAt(lhs_buf_, lane);
            if (is_and_) {
                if (a.has_value() && !*a) {
                    out.set(lane, Value::boolean(false));
                    continue;
                }
                auto b = truthAt(rhs_buf_, lane);
                if (b.has_value() && !*b)
                    out.set(lane, Value::boolean(false));
                else if (a.has_value() && b.has_value())
                    out.set(lane, Value::boolean(*a && *b));
                else
                    out.setNull(lane);
            } else {
                if (a.has_value() && *a) {
                    out.set(lane, Value::boolean(true));
                    continue;
                }
                auto b = truthAt(rhs_buf_, lane);
                if (b.has_value() && *b)
                    out.set(lane, Value::boolean(true));
                else if (a.has_value() && b.has_value())
                    out.set(lane, Value::boolean(*a || *b));
                else
                    out.setNull(lane);
            }
        }
        return VecStatus::Ok;
    }

  private:
    bool is_and_;
    VecExprPtr lhs_;
    VecExprPtr rhs_;
    mutable VecColumn lhs_buf_;
    mutable VecColumn rhs_buf_;
    mutable SelVector rhs_sel_;
};

/** Every non-logical binary operator; both sides evaluate eagerly. */
class VecBinary : public VecExpr
{
  public:
    VecBinary(BinaryOp op, VecExprPtr lhs, VecExprPtr rhs,
              bool case_insensitive_like)
        : op_(op), lhs_(std::move(lhs)), rhs_(std::move(rhs)),
          ci_like_(case_insensitive_like)
    {
    }

    VecStatus
    eval(VecEvalContext &ctx, const SelVector &sel,
         VecColumn &out) const override
    {
        if (!chargeNode(ctx, sel.size()))
            return VecStatus::Budget;
        VecStatus st = lhs_->eval(ctx, sel, lhs_buf_);
        if (st != VecStatus::Ok)
            return st;
        st = rhs_->eval(ctx, sel, rhs_buf_);
        if (st != VecStatus::Ok)
            return st;
        out.reset(ctx.laneCount);
        for (uint32_t lane : sel) {
            st = combine(ctx, lane, out);
            if (st != VecStatus::Ok)
                return st;
        }
        return VecStatus::Ok;
    }

  private:
    VecStatus
    combine(VecEvalContext &ctx, uint32_t lane, VecColumn &out) const
    {
        switch (op_) {
          case BinaryOp::Add:
          case BinaryOp::Sub:
          case BinaryOp::Mul:
          case BinaryOp::Div:
          case BinaryOp::Mod:
            return arithmetic(ctx, lane, out);
          case BinaryOp::BitAnd:
          case BinaryOp::BitOr:
          case BinaryOp::BitXor:
          case BinaryOp::ShiftLeft:
          case BinaryOp::ShiftRight:
            return bitwise(lane, out);
          case BinaryOp::Concat: {
            auto a = textAt(lhs_buf_, lane);
            auto b = textAt(rhs_buf_, lane);
            if (!a || !b)
                out.setNull(lane);
            else
                out.set(lane, Value::text(*a + *b));
            return VecStatus::Ok;
          }
          case BinaryOp::Like:
          case BinaryOp::NotLike: {
            auto text = textAt(lhs_buf_, lane);
            auto pattern = textAt(rhs_buf_, lane);
            if (!text || !pattern) {
                out.setNull(lane);
                return VecStatus::Ok;
            }
            bool matched = likeMatch(*text, *pattern, ci_like_,
                                     /*underscore_is_literal=*/false);
            out.set(lane, Value::boolean(op_ == BinaryOp::Like
                                             ? matched
                                             : !matched));
            return VecStatus::Ok;
          }
          case BinaryOp::Glob: {
            auto text = textAt(lhs_buf_, lane);
            auto pattern = textAt(rhs_buf_, lane);
            if (!text || !pattern)
                out.setNull(lane);
            else
                out.set(lane,
                        Value::boolean(globMatch(*text, *pattern)));
            return VecStatus::Ok;
          }
          case BinaryOp::Eq: {
            auto eq = equalAt(lhs_buf_, rhs_buf_, lane);
            if (!eq.has_value())
                out.setNull(lane);
            else
                out.set(lane, Value::boolean(*eq));
            return VecStatus::Ok;
          }
          case BinaryOp::NotEq:
          case BinaryOp::NotEqBang: {
            auto eq = equalAt(lhs_buf_, rhs_buf_, lane);
            if (!eq.has_value())
                out.setNull(lane);
            else
                out.set(lane, Value::boolean(!*eq));
            return VecStatus::Ok;
          }
          case BinaryOp::NullSafeEq: {
            bool lnull = lhs_buf_.isNull(lane);
            bool rnull = rhs_buf_.isNull(lane);
            if (lnull && rnull) {
                out.set(lane, Value::boolean(true));
            } else if (lnull || rnull) {
                out.set(lane, Value::boolean(false));
            } else {
                auto eq = equalAt(lhs_buf_, rhs_buf_, lane);
                out.set(lane, Value::boolean(eq.value_or(false)));
            }
            return VecStatus::Ok;
          }
          case BinaryOp::IsDistinctFrom:
          case BinaryOp::IsNotDistinctFrom: {
            bool lnull = lhs_buf_.isNull(lane);
            bool rnull = rhs_buf_.isNull(lane);
            bool same;
            if (lnull && rnull) {
                same = true;
            } else if (lnull || rnull) {
                same = false;
            } else {
                auto eq = equalAt(lhs_buf_, rhs_buf_, lane);
                same = eq.value_or(false);
            }
            bool distinct = !same;
            out.set(lane, Value::boolean(op_ == BinaryOp::IsDistinctFrom
                                             ? distinct
                                             : !distinct));
            return VecStatus::Ok;
          }
          case BinaryOp::Less:
          case BinaryOp::LessEq:
          case BinaryOp::Greater:
          case BinaryOp::GreaterEq: {
            auto cmp = compareAt(lhs_buf_, rhs_buf_, lane);
            if (!cmp.has_value()) {
                out.setNull(lane);
                return VecStatus::Ok;
            }
            bool result = false;
            switch (op_) {
              case BinaryOp::Less: result = *cmp < 0; break;
              case BinaryOp::LessEq: result = *cmp <= 0; break;
              case BinaryOp::Greater: result = *cmp > 0; break;
              case BinaryOp::GreaterEq: result = *cmp >= 0; break;
              default: break;
            }
            out.set(lane, Value::boolean(result));
            return VecStatus::Ok;
          }
          default:
            // And/Or are VecLogical; anything else is a compiler bug —
            // fail safe to the row evaluator.
            return VecStatus::RowError;
        }
    }

    VecStatus
    arithmetic(VecEvalContext &ctx, uint32_t lane, VecColumn &out) const
    {
        auto a = numericAt(lhs_buf_, lane);
        auto b = numericAt(rhs_buf_, lane);
        if (!a || !b) {
            out.setNull(lane);
            return VecStatus::Ok;
        }
        int64_t result = 0;
        switch (op_) {
          case BinaryOp::Add:
            if (__builtin_add_overflow(*a, *b, &result))
                return VecStatus::RowError;
            break;
          case BinaryOp::Sub:
            if (__builtin_sub_overflow(*a, *b, &result))
                return VecStatus::RowError;
            break;
          case BinaryOp::Mul:
            if (__builtin_mul_overflow(*a, *b, &result))
                return VecStatus::RowError;
            break;
          case BinaryOp::Div:
            if (*b == 0) {
                if (ctx.behavior == nullptr ||
                    ctx.behavior->divZeroIsNull) {
                    out.setNull(lane);
                    return VecStatus::Ok;
                }
                return VecStatus::RowError;
            }
            if (*a == INT64_MIN && *b == -1)
                return VecStatus::RowError;
            result = *a / *b;
            break;
          case BinaryOp::Mod:
            if (*b == 0) {
                if (ctx.behavior == nullptr ||
                    ctx.behavior->divZeroIsNull) {
                    out.setNull(lane);
                    return VecStatus::Ok;
                }
                return VecStatus::RowError;
            }
            if (*a == INT64_MIN && *b == -1)
                result = 0;
            else
                result = *a % *b;
            break;
          default:
            return VecStatus::RowError;
        }
        out.set(lane, Value::integer(result));
        return VecStatus::Ok;
    }

    VecStatus
    bitwise(uint32_t lane, VecColumn &out) const
    {
        auto a = numericAt(lhs_buf_, lane);
        auto b = numericAt(rhs_buf_, lane);
        if (!a || !b) {
            out.setNull(lane);
            return VecStatus::Ok;
        }
        uint64_t ua = static_cast<uint64_t>(*a);
        uint64_t ub = static_cast<uint64_t>(*b);
        switch (op_) {
          case BinaryOp::BitAnd:
            out.set(lane, Value::integer(static_cast<int64_t>(ua & ub)));
            break;
          case BinaryOp::BitOr:
            out.set(lane, Value::integer(static_cast<int64_t>(ua | ub)));
            break;
          case BinaryOp::BitXor:
            out.set(lane, Value::integer(static_cast<int64_t>(ua ^ ub)));
            break;
          case BinaryOp::ShiftLeft:
            if (*b < 0 || *b > 63)
                out.set(lane, Value::integer(0));
            else
                out.set(lane,
                        Value::integer(static_cast<int64_t>(ua << ub)));
            break;
          case BinaryOp::ShiftRight:
            if (*b < 0 || *b > 63)
                out.set(lane, Value::integer(0));
            else
                out.set(lane, Value::integer(*a >> ub)); // arithmetic
            break;
          default:
            return VecStatus::RowError;
        }
        return VecStatus::Ok;
    }

    BinaryOp op_;
    VecExprPtr lhs_;
    VecExprPtr rhs_;
    bool ci_like_;
    mutable VecColumn lhs_buf_;
    mutable VecColumn rhs_buf_;
};

class VecBetween : public VecExpr
{
  public:
    VecBetween(VecExprPtr operand, VecExprPtr low, VecExprPtr high,
               bool negated)
        : operand_(std::move(operand)), low_(std::move(low)),
          high_(std::move(high)), negated_(negated)
    {
    }

    VecStatus
    eval(VecEvalContext &ctx, const SelVector &sel,
         VecColumn &out) const override
    {
        if (!chargeNode(ctx, sel.size()))
            return VecStatus::Budget;
        // The row evaluator computes operand, low, and high for every
        // row before comparing; mirror that (errors and budget alike).
        VecStatus st = operand_->eval(ctx, sel, operand_buf_);
        if (st != VecStatus::Ok)
            return st;
        st = low_->eval(ctx, sel, low_buf_);
        if (st != VecStatus::Ok)
            return st;
        st = high_->eval(ctx, sel, high_buf_);
        if (st != VecStatus::Ok)
            return st;
        out.reset(ctx.laneCount);
        for (uint32_t lane : sel) {
            auto low_cmp = compareAt(operand_buf_, low_buf_, lane);
            auto high_cmp = compareAt(operand_buf_, high_buf_, lane);
            std::optional<bool> ge_low =
                low_cmp ? std::optional<bool>(*low_cmp >= 0)
                        : std::nullopt;
            std::optional<bool> le_high =
                high_cmp ? std::optional<bool>(*high_cmp <= 0)
                         : std::nullopt;
            std::optional<bool> both;
            if ((ge_low && !*ge_low) || (le_high && !*le_high))
                both = false;
            else if (ge_low && le_high)
                both = *ge_low && *le_high;
            if (!both.has_value())
                out.setNull(lane);
            else
                out.set(lane,
                        Value::boolean(negated_ ? !*both : *both));
        }
        return VecStatus::Ok;
    }

  private:
    VecExprPtr operand_;
    VecExprPtr low_;
    VecExprPtr high_;
    bool negated_;
    mutable VecColumn operand_buf_;
    mutable VecColumn low_buf_;
    mutable VecColumn high_buf_;
};

class VecInList : public VecExpr
{
  public:
    VecInList(VecExprPtr operand, std::vector<VecExprPtr> items,
              bool negated)
        : operand_(std::move(operand)), items_(std::move(items)),
          negated_(negated)
    {
    }

    VecStatus
    eval(VecEvalContext &ctx, const SelVector &sel,
         VecColumn &out) const override
    {
        if (!chargeNode(ctx, sel.size()))
            return VecStatus::Budget;
        VecStatus st = operand_->eval(ctx, sel, operand_buf_);
        if (st != VecStatus::Ok)
            return st;
        matched_.assign(ctx.laneCount, 0);
        saw_null_.assign(ctx.laneCount, 0);
        for (uint32_t lane : sel) {
            if (operand_buf_.isNull(lane))
                saw_null_[lane] = 1;
        }
        // The row evaluator probes every list item (no early exit);
        // keep that order so item errors surface identically.
        for (const VecExprPtr &item : items_) {
            st = item->eval(ctx, sel, item_buf_);
            if (st != VecStatus::Ok)
                return st;
            for (uint32_t lane : sel) {
                auto eq = equalAt(operand_buf_, item_buf_, lane);
                if (!eq.has_value())
                    saw_null_[lane] = 1;
                else if (*eq)
                    matched_[lane] = 1;
            }
        }
        out.reset(ctx.laneCount);
        for (uint32_t lane : sel) {
            std::optional<bool> result;
            if (matched_[lane])
                result = true;
            else if (saw_null_[lane])
                result = std::nullopt;
            else
                result = false;
            if (!result.has_value())
                out.setNull(lane);
            else
                out.set(lane,
                        Value::boolean(negated_ ? !*result : *result));
        }
        return VecStatus::Ok;
    }

  private:
    VecExprPtr operand_;
    std::vector<VecExprPtr> items_;
    bool negated_;
    mutable VecColumn operand_buf_;
    mutable VecColumn item_buf_;
    mutable std::vector<uint8_t> matched_;
    mutable std::vector<uint8_t> saw_null_;
};

class VecCast : public VecExpr
{
  public:
    VecCast(VecExprPtr operand, DataType target)
        : operand_(std::move(operand)), target_(target)
    {
    }

    VecStatus
    eval(VecEvalContext &ctx, const SelVector &sel,
         VecColumn &out) const override
    {
        if (!chargeNode(ctx, sel.size()))
            return VecStatus::Budget;
        VecStatus st = operand_->eval(ctx, sel, buf_);
        if (st != VecStatus::Ok)
            return st;
        out.reset(ctx.laneCount);
        for (uint32_t lane : sel) {
            if (buf_.isNull(lane)) {
                out.setNull(lane);
                continue;
            }
            const Value &value = buf_.values[lane];
            switch (target_) {
              case DataType::Int:
                out.set(lane, Value::integer(*valueToNumeric(value)));
                break;
              case DataType::Text:
                out.set(lane, Value::text(*valueToText(value)));
                break;
              case DataType::Bool:
                out.set(lane, Value::boolean(
                                  valueTruth(value).value_or(false)));
                break;
            }
        }
        return VecStatus::Ok;
    }

  private:
    VecExprPtr operand_;
    DataType target_;
    mutable VecColumn buf_;
};

VecExprPtr
compileNode(const Expr &expr, const Scope &scope,
            const EngineBehavior &behavior)
{
    switch (expr.kind()) {
      case ExprKind::Literal:
        return std::make_unique<VecLiteral>(
            static_cast<const LiteralExpr &>(expr).value);
      case ExprKind::ColumnRef: {
        const auto &ref = static_cast<const ColumnRefExpr &>(expr);
        // Only references the local frame resolves cleanly: a failed
        // resolve may be a correlated (outer-frame) reference and an
        // ambiguous one must produce the row evaluator's exact error.
        auto offset = scope.resolve(ref.table, ref.column);
        if (!offset.isOk())
            return nullptr;
        return std::make_unique<VecColumnRef>(offset.value());
      }
      case ExprKind::Unary: {
        const auto &unary = static_cast<const UnaryExpr &>(expr);
        VecExprPtr operand =
            compileNode(*unary.operand, scope, behavior);
        if (operand == nullptr)
            return nullptr;
        return std::make_unique<VecUnary>(unary.op, std::move(operand));
      }
      case ExprKind::Binary: {
        const auto &bin = static_cast<const BinaryExpr &>(expr);
        VecExprPtr lhs = compileNode(*bin.lhs, scope, behavior);
        VecExprPtr rhs = compileNode(*bin.rhs, scope, behavior);
        if (lhs == nullptr || rhs == nullptr)
            return nullptr;
        if (bin.op == BinaryOp::And || bin.op == BinaryOp::Or) {
            return std::make_unique<VecLogical>(
                bin.op == BinaryOp::And, std::move(lhs),
                std::move(rhs));
        }
        return std::make_unique<VecBinary>(bin.op, std::move(lhs),
                                           std::move(rhs),
                                           behavior.caseInsensitiveLike);
      }
      case ExprKind::Between: {
        const auto &between = static_cast<const BetweenExpr &>(expr);
        VecExprPtr operand =
            compileNode(*between.operand, scope, behavior);
        VecExprPtr low = compileNode(*between.low, scope, behavior);
        VecExprPtr high = compileNode(*between.high, scope, behavior);
        if (operand == nullptr || low == nullptr || high == nullptr)
            return nullptr;
        return std::make_unique<VecBetween>(
            std::move(operand), std::move(low), std::move(high),
            between.negated);
      }
      case ExprKind::InList: {
        const auto &in = static_cast<const InListExpr &>(expr);
        VecExprPtr operand = compileNode(*in.operand, scope, behavior);
        if (operand == nullptr)
            return nullptr;
        std::vector<VecExprPtr> items;
        items.reserve(in.items.size());
        for (const ExprPtr &item : in.items) {
            VecExprPtr compiled = compileNode(*item, scope, behavior);
            if (compiled == nullptr)
                return nullptr;
            items.push_back(std::move(compiled));
        }
        return std::make_unique<VecInList>(std::move(operand),
                                           std::move(items),
                                           in.negated);
      }
      case ExprKind::Cast: {
        const auto &cast = static_cast<const CastExpr &>(expr);
        VecExprPtr operand =
            compileNode(*cast.operand, scope, behavior);
        if (operand == nullptr)
            return nullptr;
        return std::make_unique<VecCast>(std::move(operand),
                                         cast.target);
      }
      default:
        // CASE (short-circuiting arms), function calls (registry +
        // coverage probes), and subqueries stay on the row evaluator.
        return nullptr;
    }
}

} // namespace

VecExprPtr
compileVecExpr(const Expr &expr, const Scope &scope,
               const EngineBehavior &behavior, const FaultSet &faults)
{
    // Kernels implement the fault-free semantics only. Any injected
    // fault must flow through the shared row evaluator so it manifests
    // identically in every execution mode — that is what makes the
    // fault × oracle detection matrix mode-invariant.
    if (!faults.empty()) {
        // Disabling a profile's only fault switches the kernels on, so
        // when this expression has a kernel the refusal is that fault's
        // doing (FaultCapture's exactness rule).
        if (FaultCapture::active() != nullptr && faults.size() == 1 &&
            compileNode(expr, scope, behavior) != nullptr) {
            noteFaultFired(faults.ids().front());
        }
        return nullptr;
    }
    return compileNode(expr, scope, behavior);
}

} // namespace sqlpp
