#include "src/solver/simplex.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "src/common/check.h"
#include "src/obs/registry.h"
#include "src/solver/presolve.h"

namespace threesigma {
namespace {

constexpr double kPivotTol = 1e-9;
// Pivots between eta-file reinversions. Each pivot appends one eta, so this
// bounds both FTRAN/BTRAN cost growth and numerical drift of the
// incrementally-updated basic values (reinversion recomputes them exactly).
constexpr int kRefactorInterval = 64;

}  // namespace

LpColumnIndex::LpColumnIndex(const LpModel& model) {
  // Counting sort of the row-wise terms into columns; scanning rows in order
  // leaves each column's entries in ascending row order.
  const int n = model.num_variables();
  start.assign(static_cast<size_t>(n) + 1, 0);
  for (const LpRow& r : model.rows()) {
    for (const LpTerm& t : r.terms) {
      ++start[static_cast<size_t>(t.var) + 1];
    }
  }
  for (int j = 0; j < n; ++j) {
    start[static_cast<size_t>(j) + 1] += start[static_cast<size_t>(j)];
  }
  row.resize(static_cast<size_t>(start[static_cast<size_t>(n)]));
  val.resize(row.size());
  std::vector<int> fill(start.begin(), start.end() - 1);
  for (int r = 0; r < model.num_rows(); ++r) {
    for (const LpTerm& t : model.row(r).terms) {
      const int k = fill[static_cast<size_t>(t.var)]++;
      row[static_cast<size_t>(k)] = r;
      val[static_cast<size_t>(k)] = t.coeff;
    }
  }
}

// Simplex state over the extended variable set:
//   [0, n)            structural variables
//   [n, n+m)          slack variables (one per row)
//   [n+m, n+m+k)      Phase-1 artificials (cold starts only)
// Everything derived from the rows (right-hand sides, slack bounds) is set up
// once; each Solve reloads the structural bounds and objective and resets the
// per-solve state, so it starts from exactly the state a fresh engine would.
class SimplexEngine {
 public:
  SimplexEngine(const LpModel& model, const LpColumnIndex& columns);

  // Solves the model in the full space (options.presolve is not consulted).
  LpSolution Solve(const SimplexOptions& options);

 private:
  // Per-solve ingestion: structural bounds and objective from the model,
  // artificials dropped, per-solve counters and the eta file reset.
  void LoadModel();
  // Cold start: structural vars parked at their bound nearest zero, slack
  // basis where residuals fit, Phase-1 artificials where they do not.
  void ColdStart();
  // Installs options_->start_basis (statuses over structural + slack vars)
  // with repair; returns false when the basis is unusable outright.
  bool TryWarmStart();

  // --- Eta-file basis machinery -------------------------------------------
  // Factorizes the basis given by proposed_ (any length; sorted in place),
  // assigning pivot rows and rewriting basis_/status_/value_ for demoted or
  // promoted variables. Strict mode fails instead of repairing and keeps the
  // current eta file (mid-run reinversions of a basis maintained by nonzero
  // pivots).
  bool FactorProposed(bool strict);
  void ResetToSlackBasis();
  void Ftran(std::vector<double>* x);
  void Btran(std::vector<double>* y);
  void AppendEta(const std::vector<double>& column, int pivot_row);
  void RecomputeBasicValues();
  void Refactorize();  // FactorProposed(basis_, strict) + value recompute.

  // --- Iteration engines ---------------------------------------------------
  // Primal simplex on the current (phase-dependent) objective.
  LpStatus RunPrimal(bool phase1);
  // Bounded-variable dual simplex from a dual-feasible basis. Returns
  // kOptimal when primal feasibility is restored, kInfeasible when a violated
  // row admits no entering column (proven empty), kIterationLimit when it
  // gives up at the pivot cap (caller falls back to a cold start: same
  // optimal objective, but a degenerate LP may return another vertex).
  LpStatus RunDual();

  // --- Pricing -------------------------------------------------------------
  // Candidate-list partial pricing: re-price the current list, else harvest a
  // fresh list with one full scan. Returns the entering variable or -1.
  int PickEntering(const std::vector<double>& y, int* direction);
  void RebuildCandidates(const std::vector<double>& y);
  int PriceList(const std::vector<double>& y, int* direction);

  // --- Helpers -------------------------------------------------------------
  template <typename Fn>
  void ForEachColumnEntry(int j, Fn&& fn) const {
    if (j < n_) {
      for (int k = col_start_[j]; k < col_start_[j + 1]; ++k) {
        fn(col_row_[k], col_val_[k]);
      }
    } else if (j < n_ + m_) {
      fn(j - n_, 1.0);
    } else {
      fn(artificial_row_[j - n_ - m_], artificial_sign_[j - n_ - m_]);
    }
  }
  // Nonbasic and not fixed: the columns pricing and ratio tests consider.
  bool Movable(int j) const {
    return status_[static_cast<size_t>(j)] != BasisStatus::kBasic &&
           lower_[static_cast<size_t>(j)] != upper_[static_cast<size_t>(j)];
  }
  // d_j = c_j - yᵀa_j, accumulated over the column's rows in ascending order.
  // A slack's unit column gives c_j - y_r (y_r * 1.0 is y_r exactly).
  double ReducedCost(int j, const std::vector<double>& y) const;
  void ComputeDuals(std::vector<double>* y);
  bool PrimalFeasible() const;
  // Flips nonbasic variables whose reduced cost has the wrong sign to their
  // other (finite) bound; false when a flip target is infinite.
  bool MakeDualFeasible(const std::vector<double>& y);
  void ParkNonbasic(int j, BasisStatus preferred);
  LpSolution Finish(LpStatus status);

  const LpModel& model_;
  const SimplexOptions* options_ = nullptr;  // Set for the duration of Solve.
  const int m_;            // rows
  const int n_;            // structural vars
  int total_ = 0;          // structural + slack + artificial
  int num_artificials_ = 0;

  // Compressed-sparse-column structural matrix (borrowed LpColumnIndex).
  const int* const col_start_;
  const int* const col_row_;
  const double* const col_val_;

  std::vector<double> lower_, upper_, obj_;        // extended, length total_
  std::vector<double> rhs_;                        // row right-hand sides
  std::vector<int> artificial_row_;                // artificial var -> its row
  std::vector<double> artificial_sign_;            // +-1 coefficient of artificial

  std::vector<int> basis_;                         // row -> basic var
  std::vector<BasisStatus> status_;                // extended var statuses
  std::vector<double> value_;                      // extended var values

  // Product-form basis inverse: B⁻¹ = T_K … T_1 where each eta T applies
  //   x[p] /= pivot_value;  x[i] -= v_i * x[p]  (off-pivot entries v_i).
  struct Eta {
    int pivot_row;
    double pivot_value;
    int begin, end;  // Off-pivot entries in the shared pools below.
  };
  std::vector<Eta> etas_;
  std::vector<int> eta_rows_;
  std::vector<double> eta_vals_;

  // Scratch, sized once and reused by every solve.
  std::vector<double> y_, alpha_, rho_, work_;
  // The dual ratio test's rho·a_j by column, its eligibility marks, and the
  // eligible columns in ascending index.
  std::vector<double> row_alpha_;
  std::vector<uint8_t> dual_marks_;
  std::vector<int> dual_eligible_;
  std::vector<int> cand_;  // Partial-pricing candidate list (indices only —
                           // reduced costs are always re-priced fresh).
  struct Scored {
    double score;
    int j;
  };
  std::vector<Scored> scored_;     // RebuildCandidates' favourable columns.
  std::vector<double> saved_obj_;  // The real objective during Phase 1.
  // FactorProposed's buffers: the proposed basic set, the eta file kept for
  // a strict-mode back-out, and per-row/per-variable marks.
  std::vector<int> proposed_;
  std::vector<Eta> saved_etas_;
  std::vector<int> saved_eta_rows_;
  std::vector<double> saved_eta_vals_;
  std::vector<char> row_pivoted_;
  std::vector<char> used_;
  std::vector<int> new_basis_;
  std::vector<double> factor_col_;
  std::vector<int> demoted_;

  LpStats stats_;
  int iterations_ = 0;
  int max_iterations_ = 0;
  int degenerate_streak_ = 0;
  int pivots_since_refactor_ = 0;
};

double SimplexEngine::ReducedCost(int j, const std::vector<double>& y) const {
  double d = obj_[static_cast<size_t>(j)];
  if (j < n_) {
    for (int k = col_start_[j]; k < col_start_[j + 1]; ++k) {
      d -= y[static_cast<size_t>(col_row_[k])] * col_val_[k];
    }
  } else if (j < n_ + m_) {
    d -= y[static_cast<size_t>(j - n_)];
  } else {
    d -= y[static_cast<size_t>(artificial_row_[static_cast<size_t>(j - n_ - m_)])] *
         artificial_sign_[static_cast<size_t>(j - n_ - m_)];
  }
  return d;
}

SimplexEngine::SimplexEngine(const LpModel& model, const LpColumnIndex& columns)
    : model_(model),
      m_(model.num_rows()),
      n_(model.num_variables()),
      col_start_(columns.start.data()),
      col_row_(columns.row.data()),
      col_val_(columns.val.data()) {
  TS_CHECK_EQ(static_cast<int>(columns.start.size()), n_ + 1);
  rhs_.resize(static_cast<size_t>(m_));
  for (int r = 0; r < m_; ++r) {
    rhs_[static_cast<size_t>(r)] = model_.row(r).rhs;
  }
  // Slack variables: row sense becomes a bound on the slack. Nothing writes
  // slack bounds afterwards, so they are set up once.
  lower_.assign(static_cast<size_t>(n_), 0.0);
  upper_.assign(static_cast<size_t>(n_), 0.0);
  for (int r = 0; r < m_; ++r) {
    const RowSense sense = model_.row(r).sense;
    double lo = 0.0;
    double up = 0.0;
    if (sense == RowSense::kLessEqual) {
      up = kLpInfinity;
    } else if (sense == RowSense::kGreaterEqual) {
      lo = -kLpInfinity;
    }
    lower_.push_back(lo);
    upper_.push_back(up);
  }
  y_.resize(static_cast<size_t>(m_));
  alpha_.resize(static_cast<size_t>(m_));
  rho_.resize(static_cast<size_t>(m_));
  work_.resize(static_cast<size_t>(m_));
}

void SimplexEngine::LoadModel() {
  // Drop a previous solve's artificials; slack bounds stay as set up.
  lower_.resize(static_cast<size_t>(n_ + m_));
  upper_.resize(static_cast<size_t>(n_ + m_));
  obj_.assign(static_cast<size_t>(n_ + m_), 0.0);
  for (int j = 0; j < n_; ++j) {
    lower_[static_cast<size_t>(j)] = model_.lower(j);
    upper_[static_cast<size_t>(j)] = model_.upper(j);
    obj_[static_cast<size_t>(j)] = model_.objective(j);
    TS_CHECK_MSG(lower_[static_cast<size_t>(j)] > -kLpInfinity ||
                     upper_[static_cast<size_t>(j)] < kLpInfinity,
                 "variable " << j << " must have a finite bound");
  }
  total_ = n_ + m_;
  num_artificials_ = 0;
  artificial_row_.clear();
  artificial_sign_.clear();
  etas_.clear();
  eta_rows_.clear();
  eta_vals_.clear();
  cand_.clear();
  stats_ = LpStats{};
  iterations_ = 0;
  degenerate_streak_ = 0;
  pivots_since_refactor_ = 0;
}

void SimplexEngine::Ftran(std::vector<double>* x) {
  ++stats_.ftran;
  for (const Eta& e : etas_) {
    double t = (*x)[static_cast<size_t>(e.pivot_row)];
    if (t == 0.0) {
      continue;  // Sparse skip: untouched pivot rows cost nothing.
    }
    t /= e.pivot_value;
    (*x)[static_cast<size_t>(e.pivot_row)] = t;
    for (int k = e.begin; k < e.end; ++k) {
      (*x)[static_cast<size_t>(eta_rows_[static_cast<size_t>(k)])] -=
          eta_vals_[static_cast<size_t>(k)] * t;
    }
  }
}

void SimplexEngine::Btran(std::vector<double>* y) {
  ++stats_.btran;
  for (auto it = etas_.rbegin(); it != etas_.rend(); ++it) {
    double acc = (*y)[static_cast<size_t>(it->pivot_row)];
    for (int k = it->begin; k < it->end; ++k) {
      acc -= eta_vals_[static_cast<size_t>(k)] *
             (*y)[static_cast<size_t>(eta_rows_[static_cast<size_t>(k)])];
    }
    (*y)[static_cast<size_t>(it->pivot_row)] = acc / it->pivot_value;
  }
}

void SimplexEngine::AppendEta(const std::vector<double>& column, int pivot_row) {
  Eta e;
  e.pivot_row = pivot_row;
  e.pivot_value = column[static_cast<size_t>(pivot_row)];
  e.begin = static_cast<int>(eta_rows_.size());
  for (int r = 0; r < m_; ++r) {
    const double v = column[static_cast<size_t>(r)];
    if (r != pivot_row && v != 0.0) {
      eta_rows_.push_back(r);
      eta_vals_.push_back(v);
    }
  }
  e.end = static_cast<int>(eta_rows_.size());
  if (e.pivot_value == 1.0 && e.end == e.begin) {
    // An identity eta (a unit column pivoting on its own row: slacks in a
    // reinversion) would apply x[p] /= 1.0, which leaves every double as it
    // is, so it is not stored.
    return;
  }
  etas_.push_back(e);
}

void SimplexEngine::ParkNonbasic(int j, BasisStatus preferred) {
  // Rest at the preferred bound when finite, else the other one.
  if (preferred == BasisStatus::kAtLower && lower_[static_cast<size_t>(j)] > -kLpInfinity) {
    status_[static_cast<size_t>(j)] = BasisStatus::kAtLower;
    value_[static_cast<size_t>(j)] = lower_[static_cast<size_t>(j)];
  } else if (upper_[static_cast<size_t>(j)] < kLpInfinity) {
    status_[static_cast<size_t>(j)] = BasisStatus::kAtUpper;
    value_[static_cast<size_t>(j)] = upper_[static_cast<size_t>(j)];
  } else {
    status_[static_cast<size_t>(j)] = BasisStatus::kAtLower;
    value_[static_cast<size_t>(j)] = lower_[static_cast<size_t>(j)];
  }
}

bool SimplexEngine::FactorProposed(bool strict) {
  ++stats_.refactorizations;
  // Strict mode must be able to back out: a numerically near-singular basis
  // (legal — pivot magnitudes are only bounded below by kPivotTol) fails
  // reinversion, and the run then simply keeps its current eta file.
  if (strict) {
    etas_.swap(saved_etas_);
    eta_rows_.swap(saved_eta_rows_);
    eta_vals_.swap(saved_eta_vals_);
  }
  const auto restore = [&]() {
    etas_.swap(saved_etas_);
    eta_rows_.swap(saved_eta_rows_);
    eta_vals_.swap(saved_eta_vals_);
  };
  etas_.clear();
  eta_rows_.clear();
  eta_vals_.clear();
  pivots_since_refactor_ = 0;

  // Reinversion order: sparsest columns first (slacks and artificials are
  // unit columns and pivot with zero fill; scheduler bases are then nearly
  // triangular). Deterministic tie-break on variable id.
  const auto nnz = [&](int j) {
    return j < n_ ? col_start_[static_cast<size_t>(j) + 1] - col_start_[static_cast<size_t>(j)]
                  : 1;
  };
  std::sort(proposed_.begin(), proposed_.end(),
            [&](int a, int b) { return nnz(a) != nnz(b) ? nnz(a) < nnz(b) : a < b; });

  row_pivoted_.assign(static_cast<size_t>(m_), 0);
  used_.assign(static_cast<size_t>(total_), 0);
  new_basis_.assign(static_cast<size_t>(m_), -1);
  factor_col_.resize(static_cast<size_t>(m_));
  demoted_.clear();
  for (int j : proposed_) {
    if (used_[static_cast<size_t>(j)]) {
      if (strict) {
        restore();
        return false;
      }
      demoted_.push_back(j);
      continue;
    }
    std::fill(factor_col_.begin(), factor_col_.end(), 0.0);
    ForEachColumnEntry(j, [&](int r, double v) { factor_col_[static_cast<size_t>(r)] = v; });
    Ftran(&factor_col_);
    int pivot = -1;
    double best = 1e-10;
    for (int r = 0; r < m_; ++r) {
      if (!row_pivoted_[static_cast<size_t>(r)] &&
          std::fabs(factor_col_[static_cast<size_t>(r)]) > best) {
        best = std::fabs(factor_col_[static_cast<size_t>(r)]);
        pivot = r;
      }
    }
    if (pivot < 0) {
      if (strict) {
        restore();
        return false;
      }
      demoted_.push_back(j);
      continue;
    }
    AppendEta(factor_col_, pivot);
    row_pivoted_[static_cast<size_t>(pivot)] = 1;
    new_basis_[static_cast<size_t>(pivot)] = j;
    used_[static_cast<size_t>(j)] = 1;
  }
  // Complete any unpivoted rows with their own slack (always independent of
  // the already-pivoted set unless numerically degenerate — then give up and
  // let the caller reset to the identity slack basis).
  for (int r = 0; r < m_; ++r) {
    if (row_pivoted_[static_cast<size_t>(r)]) {
      continue;
    }
    if (strict) {
      restore();
      return false;
    }
    const int sv = n_ + r;
    if (used_[static_cast<size_t>(sv)]) {
      return false;
    }
    std::fill(factor_col_.begin(), factor_col_.end(), 0.0);
    factor_col_[static_cast<size_t>(r)] = 1.0;
    Ftran(&factor_col_);
    if (std::fabs(factor_col_[static_cast<size_t>(r)]) <= 1e-10) {
      return false;
    }
    AppendEta(factor_col_, r);
    row_pivoted_[static_cast<size_t>(r)] = 1;
    new_basis_[static_cast<size_t>(r)] = sv;
    used_[static_cast<size_t>(sv)] = 1;
  }
  for (int j : demoted_) {
    if (!used_[static_cast<size_t>(j)]) {
      ParkNonbasic(j, BasisStatus::kAtLower);
    }
  }
  basis_.swap(new_basis_);
  for (int r = 0; r < m_; ++r) {
    status_[static_cast<size_t>(basis_[static_cast<size_t>(r)])] = BasisStatus::kBasic;
  }
  return true;
}

void SimplexEngine::ResetToSlackBasis() {
  etas_.clear();
  eta_rows_.clear();
  eta_vals_.clear();
  pivots_since_refactor_ = 0;
  for (int j = 0; j < total_; ++j) {
    if (status_[static_cast<size_t>(j)] == BasisStatus::kBasic) {
      ParkNonbasic(j, BasisStatus::kAtLower);
    }
  }
  basis_.assign(static_cast<size_t>(m_), -1);
  for (int r = 0; r < m_; ++r) {
    basis_[static_cast<size_t>(r)] = n_ + r;
    status_[static_cast<size_t>(n_ + r)] = BasisStatus::kBasic;
  }
}

void SimplexEngine::Refactorize() {
  // Opportunistic: if the basis is too ill-conditioned to reinvert, keep the
  // existing (restored) eta file and try again after the next interval. The
  // eta file is always a valid representation — reinversion only compacts it.
  proposed_ = basis_;
  if (FactorProposed(/*strict=*/true)) {
    RecomputeBasicValues();
  }
}

void SimplexEngine::RecomputeBasicValues() {
  // w = b - A_N x_N, then x_B = B⁻¹ w via FTRAN.
  work_ = rhs_;
  for (int j = 0; j < total_; ++j) {
    if (status_[static_cast<size_t>(j)] == BasisStatus::kBasic ||
        value_[static_cast<size_t>(j)] == 0.0) {
      continue;
    }
    const double xj = value_[static_cast<size_t>(j)];
    ForEachColumnEntry(j, [&](int r, double v) { work_[static_cast<size_t>(r)] -= v * xj; });
  }
  Ftran(&work_);
  for (int r = 0; r < m_; ++r) {
    value_[static_cast<size_t>(basis_[static_cast<size_t>(r)])] = work_[static_cast<size_t>(r)];
  }
}

void SimplexEngine::ComputeDuals(std::vector<double>* y) {
  for (int r = 0; r < m_; ++r) {
    (*y)[static_cast<size_t>(r)] = obj_[static_cast<size_t>(basis_[static_cast<size_t>(r)])];
  }
  Btran(y);
}

bool SimplexEngine::PrimalFeasible() const {
  for (int r = 0; r < m_; ++r) {
    const int bv = basis_[static_cast<size_t>(r)];
    const double v = value_[static_cast<size_t>(bv)];
    if (v < lower_[static_cast<size_t>(bv)] - options_->feasibility_tol ||
        v > upper_[static_cast<size_t>(bv)] + options_->feasibility_tol) {
      return false;
    }
  }
  return true;
}

bool SimplexEngine::MakeDualFeasible(const std::vector<double>& y) {
  for (int j = 0; j < total_; ++j) {
    if (status_[static_cast<size_t>(j)] == BasisStatus::kBasic ||
        lower_[static_cast<size_t>(j)] == upper_[static_cast<size_t>(j)]) {
      continue;
    }
    const double d = ReducedCost(j, y);
    if (status_[static_cast<size_t>(j)] == BasisStatus::kAtLower &&
        d > options_->optimality_tol) {
      if (upper_[static_cast<size_t>(j)] >= kLpInfinity) {
        return false;
      }
      status_[static_cast<size_t>(j)] = BasisStatus::kAtUpper;
      value_[static_cast<size_t>(j)] = upper_[static_cast<size_t>(j)];
    } else if (status_[static_cast<size_t>(j)] == BasisStatus::kAtUpper &&
               d < -options_->optimality_tol) {
      if (lower_[static_cast<size_t>(j)] <= -kLpInfinity) {
        return false;
      }
      status_[static_cast<size_t>(j)] = BasisStatus::kAtLower;
      value_[static_cast<size_t>(j)] = lower_[static_cast<size_t>(j)];
    }
  }
  return true;
}

void SimplexEngine::ColdStart() {
  stats_.cold_start = true;
  // Discard any artificials and warm-start state from a failed install.
  lower_.resize(static_cast<size_t>(n_ + m_));
  upper_.resize(static_cast<size_t>(n_ + m_));
  obj_.resize(static_cast<size_t>(n_ + m_));
  artificial_row_.clear();
  artificial_sign_.clear();
  num_artificials_ = 0;
  total_ = n_ + m_;

  // Initial nonbasic placement for structural vars: the finite bound nearest
  // zero (scheduler variables have lower bound 0, so this is their lower).
  status_.assign(static_cast<size_t>(total_), BasisStatus::kAtLower);
  value_.assign(static_cast<size_t>(total_), 0.0);
  for (int j = 0; j < n_; ++j) {
    ParkNonbasic(j, BasisStatus::kAtLower);
  }

  // Residual of each row with all structural vars at their initial bound
  // (in work_, which Refactorize below overwrites).
  std::vector<double>& residual = work_;
  residual = rhs_;
  for (int j = 0; j < n_; ++j) {
    const double xj = value_[static_cast<size_t>(j)];
    if (xj != 0.0) {
      ForEachColumnEntry(
          j, [&](int r, double v) { residual[static_cast<size_t>(r)] -= v * xj; });
    }
  }

  // Slack starts basic when the residual fits its bounds; otherwise the slack
  // is parked at the bound nearest the residual and an artificial carries the
  // remaining infeasibility.
  basis_.assign(static_cast<size_t>(m_), -1);
  for (int r = 0; r < m_; ++r) {
    const int sv = n_ + r;
    const double res = residual[static_cast<size_t>(r)];
    if (res >= lower_[static_cast<size_t>(sv)] - options_->feasibility_tol &&
        res <= upper_[static_cast<size_t>(sv)] + options_->feasibility_tol) {
      basis_[static_cast<size_t>(r)] = sv;
      status_[static_cast<size_t>(sv)] = BasisStatus::kBasic;
      value_[static_cast<size_t>(sv)] = res;
      continue;
    }
    const bool below = res < lower_[static_cast<size_t>(sv)];
    const double parked = below ? lower_[static_cast<size_t>(sv)] : upper_[static_cast<size_t>(sv)];
    status_[static_cast<size_t>(sv)] = below ? BasisStatus::kAtLower : BasisStatus::kAtUpper;
    value_[static_cast<size_t>(sv)] = parked;
    const double gap = res - parked;
    const int av = n_ + m_ + num_artificials_;
    artificial_row_.push_back(r);
    artificial_sign_.push_back(gap >= 0.0 ? 1.0 : -1.0);
    lower_.push_back(0.0);
    upper_.push_back(kLpInfinity);
    obj_.push_back(0.0);
    status_.push_back(BasisStatus::kBasic);
    value_.push_back(std::fabs(gap));
    basis_[static_cast<size_t>(r)] = av;
    ++num_artificials_;
  }
  total_ = n_ + m_ + num_artificials_;

  cand_.clear();
  degenerate_streak_ = 0;
  Refactorize();
}

bool SimplexEngine::TryWarmStart() {
  const LpBasis& b = options_->start_basis;
  if (static_cast<int>(b.status.size()) != n_ + m_) {
    return false;  // Different model shape; the hint is meaningless.
  }
  total_ = n_ + m_;
  num_artificials_ = 0;
  status_.assign(static_cast<size_t>(total_), BasisStatus::kAtLower);
  value_.assign(static_cast<size_t>(total_), 0.0);
  proposed_.clear();
  for (int j = 0; j < total_; ++j) {
    const BasisStatus s = b.status[static_cast<size_t>(j)];
    if (s == BasisStatus::kBasic) {
      status_[static_cast<size_t>(j)] = BasisStatus::kBasic;
      proposed_.push_back(j);
    } else {
      // Statuses are symbolic, so "at lower" snaps to the *current* bound —
      // which is how a parent basis stays valid after branching tightens the
      // child's box.
      ParkNonbasic(j, s);
    }
  }
  basis_.assign(static_cast<size_t>(m_), -1);
  if (!FactorProposed(/*strict=*/false)) {
    ResetToSlackBasis();
  }
  RecomputeBasicValues();
  cand_.clear();
  degenerate_streak_ = 0;
  return true;
}

// ---------------------------------------------------------------------------
// Pricing
// ---------------------------------------------------------------------------

void SimplexEngine::RebuildCandidates(const std::vector<double>& y) {
  const double tol = options_->optimality_tol;
  scored_.clear();
  const auto consider = [&](int j, double d) {
    const bool favorable =
        (status_[static_cast<size_t>(j)] == BasisStatus::kAtLower && d > tol) ||
        (status_[static_cast<size_t>(j)] == BasisStatus::kAtUpper && d < -tol);
    if (favorable) {
      scored_.push_back(Scored{std::fabs(d), j});
    }
  };
  // Reduced costs straight off the CSC arrays (structural columns), then the
  // unit slack columns, then any artificials; same sums as ReducedCost.
  const double* const yv = y.data();
  for (int j = 0; j < n_; ++j) {
    if (!Movable(j)) {
      continue;
    }
    double d = obj_[static_cast<size_t>(j)];
    for (int k = col_start_[j]; k < col_start_[j + 1]; ++k) {
      d -= yv[col_row_[k]] * col_val_[k];
    }
    consider(j, d);
  }
  for (int r = 0; r < m_; ++r) {
    const int j = n_ + r;
    if (Movable(j)) {
      consider(j, obj_[static_cast<size_t>(j)] - yv[r]);
    }
  }
  for (int j = n_ + m_; j < total_; ++j) {
    if (Movable(j)) {
      consider(j, ReducedCost(j, y));
    }
  }
  // Keep the best `cap` under (score desc, index asc) — a strict total order,
  // so selecting them first and sorting only those gives the same list as
  // sorting everything.
  const auto better = [](const Scored& a, const Scored& b) {
    return a.score != b.score ? a.score > b.score : a.j < b.j;
  };
  const size_t cap = static_cast<size_t>(std::clamp(total_ / 8, 8, 64));
  if (scored_.size() > cap) {
    std::nth_element(scored_.begin(), scored_.begin() + static_cast<std::ptrdiff_t>(cap),
                     scored_.end(), better);
    scored_.resize(cap);
  }
  std::sort(scored_.begin(), scored_.end(), better);
  cand_.clear();
  for (const Scored& sc : scored_) {
    cand_.push_back(sc.j);
  }
}

int SimplexEngine::PriceList(const std::vector<double>& y, int* direction) {
  int pick = -1;
  int dir = +1;
  double best = options_->optimality_tol;
  size_t keep = 0;
  for (const int j : cand_) {
    if (status_[static_cast<size_t>(j)] == BasisStatus::kBasic ||
        lower_[static_cast<size_t>(j)] == upper_[static_cast<size_t>(j)]) {
      continue;  // Entered the basis or got fixed; drop from the list.
    }
    const double d = ReducedCost(j, y);
    int dj = 0;
    if (status_[static_cast<size_t>(j)] == BasisStatus::kAtLower &&
        d > options_->optimality_tol) {
      dj = +1;
    } else if (status_[static_cast<size_t>(j)] == BasisStatus::kAtUpper &&
               d < -options_->optimality_tol) {
      dj = -1;
    }
    if (dj == 0) {
      continue;  // No longer favorable; drop.
    }
    cand_[keep++] = j;
    if (std::fabs(d) > best) {
      best = std::fabs(d);
      pick = j;
      dir = dj;
    }
  }
  cand_.resize(keep);
  if (pick >= 0) {
    *direction = dir;
  }
  return pick;
}

int SimplexEngine::PickEntering(const std::vector<double>& y, int* direction) {
  const int from_list = PriceList(y, direction);
  if (from_list >= 0) {
    return from_list;
  }
  RebuildCandidates(y);
  if (cand_.empty()) {
    return -1;  // Full scan found nothing favorable: optimal.
  }
  return PriceList(y, direction);
}

// ---------------------------------------------------------------------------
// Primal simplex
// ---------------------------------------------------------------------------

LpStatus SimplexEngine::RunPrimal(bool phase1) {
  while (true) {
    if (iterations_ >= max_iterations_) {
      return LpStatus::kIterationLimit;
    }
    ComputeDuals(&y_);

    // Entering variable: candidate-list Dantzig normally, Bland's-rule full
    // scan under a degeneracy streak (guarantees termination).
    const bool bland = degenerate_streak_ > 2 * (m_ + 8);
    int entering = -1;
    int direction = +1;  // +1: increase from lower; -1: decrease from upper.
    if (bland) {
      for (int j = 0; j < total_ && entering < 0; ++j) {
        if (status_[static_cast<size_t>(j)] == BasisStatus::kBasic ||
            lower_[static_cast<size_t>(j)] == upper_[static_cast<size_t>(j)]) {
          continue;
        }
        const double d = ReducedCost(j, y_);
        if (status_[static_cast<size_t>(j)] == BasisStatus::kAtLower &&
            d > options_->optimality_tol) {
          entering = j;
          direction = +1;
        } else if (status_[static_cast<size_t>(j)] == BasisStatus::kAtUpper &&
                   d < -options_->optimality_tol) {
          entering = j;
          direction = -1;
        }
      }
    } else {
      entering = PickEntering(y_, &direction);
    }
    if (entering < 0) {
      return LpStatus::kOptimal;
    }
    ++iterations_;
    if (phase1) {
      ++stats_.phase1_iterations;
    } else {
      ++stats_.phase2_iterations;
    }

    // alpha = B⁻¹ a_entering.
    std::fill(alpha_.begin(), alpha_.end(), 0.0);
    ForEachColumnEntry(entering,
                       [&](int r, double v) { alpha_[static_cast<size_t>(r)] = v; });
    Ftran(&alpha_);

    // Ratio test. Moving the entering variable by delta in `direction`
    // changes basic variable r by -direction * alpha[r] * delta.
    double limit = upper_[static_cast<size_t>(entering)] -
                   lower_[static_cast<size_t>(entering)];  // Bound-flip span.
    int leaving_row = -1;
    double leaving_target = 0.0;  // Bound the leaving variable lands on.
    for (int r = 0; r < m_; ++r) {
      const double rate = -static_cast<double>(direction) * alpha_[static_cast<size_t>(r)];
      if (std::fabs(rate) < kPivotTol) {
        continue;
      }
      const int bv = basis_[static_cast<size_t>(r)];
      double ratio;
      double target;
      if (rate < 0.0) {
        // Basic value decreases toward its lower bound.
        if (lower_[static_cast<size_t>(bv)] <= -kLpInfinity) {
          continue;
        }
        ratio = (value_[static_cast<size_t>(bv)] - lower_[static_cast<size_t>(bv)]) / (-rate);
        target = lower_[static_cast<size_t>(bv)];
      } else {
        if (upper_[static_cast<size_t>(bv)] >= kLpInfinity) {
          continue;
        }
        ratio = (upper_[static_cast<size_t>(bv)] - value_[static_cast<size_t>(bv)]) / rate;
        target = upper_[static_cast<size_t>(bv)];
      }
      ratio = std::max(ratio, 0.0);
      const bool better =
          ratio < limit - 1e-12 ||
          (leaving_row >= 0 && ratio < limit + 1e-12 &&
           std::fabs(alpha_[static_cast<size_t>(r)]) >
               std::fabs(alpha_[static_cast<size_t>(leaving_row)]));
      if (better) {
        limit = ratio;
        leaving_row = r;
        leaving_target = target;
      }
    }

    if (limit >= kLpInfinity) {
      return LpStatus::kUnbounded;
    }

    const double step = limit;
    if (step < 1e-11) {
      ++degenerate_streak_;
    } else {
      degenerate_streak_ = 0;
    }

    if (leaving_row < 0) {
      // Bound flip: the entering variable runs to its other bound. Basic
      // values move by -direction * alpha * span (incremental, no solve).
      const double span = step;
      status_[static_cast<size_t>(entering)] =
          status_[static_cast<size_t>(entering)] == BasisStatus::kAtLower
              ? BasisStatus::kAtUpper
              : BasisStatus::kAtLower;
      value_[static_cast<size_t>(entering)] =
          status_[static_cast<size_t>(entering)] == BasisStatus::kAtLower
              ? lower_[static_cast<size_t>(entering)]
              : upper_[static_cast<size_t>(entering)];
      for (int r = 0; r < m_; ++r) {
        const double a = alpha_[static_cast<size_t>(r)];
        if (a != 0.0) {
          value_[static_cast<size_t>(basis_[static_cast<size_t>(r)])] -=
              static_cast<double>(direction) * span * a;
        }
      }
      continue;
    }

    // Pivot: entering becomes basic, leaving goes to the bound it hit. Basic
    // values update incrementally; the eta file gains one column.
    const int leaving = basis_[static_cast<size_t>(leaving_row)];
    const double entering_value =
        value_[static_cast<size_t>(entering)] + static_cast<double>(direction) * step;
    for (int r = 0; r < m_; ++r) {
      if (r == leaving_row) {
        continue;
      }
      const double a = alpha_[static_cast<size_t>(r)];
      if (a != 0.0) {
        value_[static_cast<size_t>(basis_[static_cast<size_t>(r)])] -=
            static_cast<double>(direction) * step * a;
      }
    }
    status_[static_cast<size_t>(leaving)] =
        leaving_target == lower_[static_cast<size_t>(leaving)] ? BasisStatus::kAtLower
                                                               : BasisStatus::kAtUpper;
    value_[static_cast<size_t>(leaving)] = leaving_target;
    basis_[static_cast<size_t>(leaving_row)] = entering;
    status_[static_cast<size_t>(entering)] = BasisStatus::kBasic;
    value_[static_cast<size_t>(entering)] = entering_value;

    TS_CHECK_MSG(std::fabs(alpha_[static_cast<size_t>(leaving_row)]) > kPivotTol,
                 "numerically zero pivot");
    AppendEta(alpha_, leaving_row);
    if (++pivots_since_refactor_ >= kRefactorInterval) {
      Refactorize();
    }
  }
}

// ---------------------------------------------------------------------------
// Dual simplex
// ---------------------------------------------------------------------------

LpStatus SimplexEngine::RunDual() {
  // Safety cap: a dual re-optimization that has not converged in O(m) pivots
  // is degenerate or numerically stuck; the caller cold-starts instead. That
  // returns the same optimal objective, but a degenerate LP may come back at
  // a different optimal vertex.
  const int max_dual = 3 * m_ + 200;
  // Stall telemetry: a streak of more than m + 200 dual-degenerate pivots
  // (winning ratio <= kPivotTol, so the dual objective does not move) marks
  // the run dual_stalled. Most such runs wander on to the cap, but not all:
  // giving up at the streak instead moves scheduling decisions (DESIGN.md,
  // "Stalled dual runs"), so the streak only reports.
  const int stall_streak_limit = m_ + 200;
  int dual_pivots = 0;
  int stall_streak = 0;
  while (true) {
    if (iterations_ >= max_iterations_) {
      return LpStatus::kIterationLimit;
    }
    if (dual_pivots >= max_dual) {
      stats_.dual_capped = true;
      return LpStatus::kIterationLimit;
    }

    // Leaving row: the basic variable with the largest bound violation
    // (tie-break: smallest row index — deterministic).
    int lrow = -1;
    double viol = options_->feasibility_tol;
    bool below = false;
    for (int r = 0; r < m_; ++r) {
      const int bv = basis_[static_cast<size_t>(r)];
      const double v = value_[static_cast<size_t>(bv)];
      const double lo = lower_[static_cast<size_t>(bv)];
      const double up = upper_[static_cast<size_t>(bv)];
      if (lo > -kLpInfinity && lo - v > viol) {
        viol = lo - v;
        lrow = r;
        below = true;
      } else if (up < kLpInfinity && v - up > viol) {
        viol = v - up;
        lrow = r;
        below = false;
      }
    }
    if (lrow < 0) {
      return LpStatus::kOptimal;  // Primal feasibility restored.
    }
    ++iterations_;
    ++stats_.dual_iterations;
    ++dual_pivots;

    // rho = eᵣᵀ B⁻¹ (the pivot row of the basis inverse).
    std::fill(rho_.begin(), rho_.end(), 0.0);
    rho_[static_cast<size_t>(lrow)] = 1.0;
    Btran(&rho_);
    ComputeDuals(&y_);

    // alpha_rj = rho·a_j for every column. Structural columns accumulate row
    // by row over the rows where rho is nonzero, in ascending row order: per
    // column that is the column-order sum minus its zero terms, which can
    // change only the sign of a zero alpha_rj (never eligible either way).
    // Each slack's unit column gives rho_r; any artificials sum their entry.
    const double* const rho = rho_.data();
    row_alpha_.resize(static_cast<size_t>(total_));
    double* const arow = row_alpha_.data();
    std::fill(arow, arow + n_, 0.0);
    for (int r = 0; r < m_; ++r) {
      const double rr = rho[r];
      if (rr == 0.0) {
        continue;
      }
      for (const LpTerm& t : model_.row(r).terms) {
        arow[t.var] += rr * t.coeff;
      }
    }
    std::copy(rho, rho + m_, arow + n_);
    for (int j = n_ + m_; j < total_; ++j) {
      double arj = 0.0;
      ForEachColumnEntry(j, [&](int r, double v) { arj += rho[r] * v; });
      arow[j] = arj;
    }

    // Eligible columns: not fixed, with |alpha_rj| > kPivotTol of the sign
    // that moves the violated variable toward its bound (x_basic changes by
    // -alpha_rj * dx_j, and a nonbasic can only move off its own bound).
    // About one column in five qualifies, in no predictable pattern, so a
    // branch-free pass marks them and a second pass lists them in ascending
    // index. The marking pass reads raw pointers (a byte store could
    // otherwise alias the vectors' own fields), which lets the compiler
    // vectorize it; `toward * alpha_rj` is exact (toward is +-1).
    const double toward = below ? -1.0 : 1.0;
    dual_marks_.resize(static_cast<size_t>(total_));
    dual_eligible_.resize(static_cast<size_t>(total_));
    uint8_t* const marks = dual_marks_.data();
    int* const eligible = dual_eligible_.data();
    const BasisStatus* const status = status_.data();
    const double* const lower = lower_.data();
    const double* const upper = upper_.data();
    const int total = total_;
    for (int j = 0; j < total; ++j) {
      const double t = toward * arow[j];
      marks[j] = static_cast<uint8_t>(
          (lower[j] != upper[j]) & (((status[j] == BasisStatus::kAtLower) & (t > kPivotTol)) |
                                    ((status[j] == BasisStatus::kAtUpper) & (t < -kPivotTol))));
    }
    int num_eligible = 0;
    for (int j = 0; j < total; ++j) {
      eligible[num_eligible] = j;
      num_eligible += marks[j];
    }

    // Dual ratio test: among the eligible columns, enter the one whose
    // reduced cost hits zero first (smallest |d|/|alpha_rj|); ties go to the
    // larger pivot magnitude, then the smaller index (the list ascends, so a
    // later column never wins a tie on index).
    int entering = -1;
    double best_ratio = std::numeric_limits<double>::infinity();
    double best_mag = 0.0;
    for (int k = 0; k < num_eligible; ++k) {
      const int j = eligible[k];
      const double mag = std::fabs(arow[j]);
      // Ratios are >= 0, so once the best one is within the tie band of zero
      // (a degenerate pivot) nothing beats it outright, and a column that
      // cannot win the tie on magnitude is passed over without pricing it.
      if (best_ratio <= 1e-12 && mag <= best_mag + 1e-12) {
        continue;
      }
      const double d = ReducedCost(j, y_);
      const bool at_lower = status_[static_cast<size_t>(j)] == BasisStatus::kAtLower;
      const double slack = std::max(0.0, at_lower ? -d : d);  // Dual headroom.
      const double ratio = slack / mag;
      const bool wins = ratio < best_ratio - 1e-12 ||
                        (ratio < best_ratio + 1e-12 && (entering < 0 || mag > best_mag + 1e-12));
      if (wins) {
        entering = j;
        best_ratio = ratio;
        best_mag = mag;
      }
    }
    if (entering < 0) {
      // No column can repair the violated row: the (child) LP is empty.
      return LpStatus::kInfeasible;
    }
    stall_streak = best_ratio <= kPivotTol ? stall_streak + 1 : 0;
    if (stall_streak > stall_streak_limit) {
      stats_.dual_stalled = true;
    }

    std::fill(alpha_.begin(), alpha_.end(), 0.0);
    ForEachColumnEntry(entering,
                       [&](int r, double v) { alpha_[static_cast<size_t>(r)] = v; });
    Ftran(&alpha_);
    const double are = alpha_[static_cast<size_t>(lrow)];
    if (std::fabs(are) <= kPivotTol) {
      return LpStatus::kIterationLimit;  // Numerical disagreement; cold-start.
    }

    const int leaving = basis_[static_cast<size_t>(lrow)];
    const double target = below ? lower_[static_cast<size_t>(leaving)]
                                : upper_[static_cast<size_t>(leaving)];
    // Drive the leaving variable exactly onto its violated bound.
    const double dxj = (value_[static_cast<size_t>(leaving)] - target) / are;
    for (int r = 0; r < m_; ++r) {
      if (r == lrow) {
        continue;
      }
      const double a = alpha_[static_cast<size_t>(r)];
      if (a != 0.0) {
        value_[static_cast<size_t>(basis_[static_cast<size_t>(r)])] -= a * dxj;
      }
    }
    const double entering_value = value_[static_cast<size_t>(entering)] + dxj;
    status_[static_cast<size_t>(leaving)] =
        below ? BasisStatus::kAtLower : BasisStatus::kAtUpper;
    value_[static_cast<size_t>(leaving)] = target;
    basis_[static_cast<size_t>(lrow)] = entering;
    status_[static_cast<size_t>(entering)] = BasisStatus::kBasic;
    value_[static_cast<size_t>(entering)] = entering_value;
    AppendEta(alpha_, lrow);
    if (++pivots_since_refactor_ >= kRefactorInterval) {
      Refactorize();
    }
  }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

LpSolution SimplexEngine::Finish(LpStatus status) {
  LpSolution result;
  result.status = status;
  result.iterations = iterations_;
  if (status == LpStatus::kOptimal || status == LpStatus::kIterationLimit) {
    RecomputeBasicValues();  // Squash incremental drift before export.
    result.values.resize(static_cast<size_t>(n_));
    for (int j = 0; j < n_; ++j) {
      // Clamp tiny numerical overshoot back into the box.
      result.values[static_cast<size_t>(j)] =
          std::clamp(value_[static_cast<size_t>(j)], model_.lower(j), model_.upper(j));
    }
    result.objective = model_.ObjectiveValue(result.values);
    result.basis.status.resize(static_cast<size_t>(n_ + m_));
    for (int j = 0; j < n_ + m_; ++j) {
      result.basis.status[static_cast<size_t>(j)] = status_[static_cast<size_t>(j)];
    }
  }
  result.stats = stats_;
  return result;
}

LpSolution SimplexEngine::Solve(const SimplexOptions& options) {
  options_ = &options;
  LpSolution result;
  if (m_ == 0) {
    // Pure bound problem: each variable sits at whichever bound its objective
    // prefers.
    result.status = LpStatus::kOptimal;
    result.values.resize(static_cast<size_t>(n_));
    result.basis.status.resize(static_cast<size_t>(n_));
    for (int j = 0; j < n_; ++j) {
      const double c = model_.objective(j);
      double v;
      if (c > 0.0) {
        v = model_.upper(j);
      } else if (c < 0.0) {
        v = model_.lower(j);
      } else {
        v = model_.lower(j) > -kLpInfinity ? model_.lower(j) : model_.upper(j);
      }
      if (v >= kLpInfinity || v <= -kLpInfinity) {
        result.status = LpStatus::kUnbounded;
        result.values.clear();
        result.basis.status.clear();
        return result;
      }
      result.values[static_cast<size_t>(j)] = v;
      result.basis.status[static_cast<size_t>(j)] =
          v == model_.upper(j) ? BasisStatus::kAtUpper : BasisStatus::kAtLower;
      result.objective += c * v;
    }
    return result;
  }

  LoadModel();
  max_iterations_ = options_->max_iterations > 0 ? options_->max_iterations
                                                : 200 * (n_ + 2 * m_) + 2000;

  // Warm path: install the hint; if it lands primal feasible Phase 1 is
  // skipped outright, if it lands dual feasible the dual simplex re-optimizes
  // in a few pivots (the branch-and-bound child case). Anything else falls
  // through to a cold start — a warm start can change the pivot count and,
  // on a degenerate LP, which optimal vertex comes back, never the optimal
  // objective.
  if (!options_->start_basis.empty() && TryWarmStart()) {
    stats_.warm_basis_used = true;
    if (PrimalFeasible()) {
      return Finish(RunPrimal(/*phase1=*/false));
    }
    ComputeDuals(&y_);
    if (MakeDualFeasible(y_)) {
      RecomputeBasicValues();  // Bound flips moved nonbasic values.
      const LpStatus dual = RunDual();
      if (dual == LpStatus::kInfeasible) {
        result.status = LpStatus::kInfeasible;
        result.iterations = iterations_;
        result.stats = stats_;
        return result;
      }
      if (dual == LpStatus::kOptimal) {
        // Certify: dual pivots preserved dual feasibility, so this is
        // normally zero extra pivots.
        return Finish(RunPrimal(/*phase1=*/false));
      }
      // Dual gave up (degeneracy/numerics): cold-start below.
    }
    stats_.warm_basis_used = false;
  }

  ColdStart();
  if (num_artificials_ > 0) {
    // Phase 1: drive artificial infeasibility to zero (max -sum(artificials)).
    saved_obj_ = obj_;
    for (int j = 0; j < total_; ++j) {
      obj_[static_cast<size_t>(j)] = j >= n_ + m_ ? -1.0 : 0.0;
    }
    const LpStatus phase1 = RunPrimal(/*phase1=*/true);
    double infeasibility = 0.0;
    for (int j = n_ + m_; j < total_; ++j) {
      infeasibility += value_[static_cast<size_t>(j)];
    }
    if (phase1 == LpStatus::kIterationLimit) {
      result.status = LpStatus::kIterationLimit;
      result.iterations = iterations_;
      result.stats = stats_;
      return result;
    }
    if (infeasibility > 1e-6) {
      result.status = LpStatus::kInfeasible;
      result.iterations = iterations_;
      result.stats = stats_;
      return result;
    }
    // Retire artificials: pin them to zero so Phase 2 cannot resurrect them.
    for (int j = n_ + m_; j < total_; ++j) {
      lower_[static_cast<size_t>(j)] = 0.0;
      upper_[static_cast<size_t>(j)] = 0.0;
      if (status_[static_cast<size_t>(j)] != BasisStatus::kBasic) {
        status_[static_cast<size_t>(j)] = BasisStatus::kAtLower;
        value_[static_cast<size_t>(j)] = 0.0;
      }
    }
    obj_.swap(saved_obj_);
    degenerate_streak_ = 0;
    cand_.clear();
  }
  return Finish(RunPrimal(/*phase1=*/false));
}

namespace {

// LP work counters, recorded once per LP solve. Only striped registry adds —
// never spans (span rings are driver-thread state; emission from a worker
// thread would make trace export thread-count-dependent).
void RecordLpCounters(const LpSolution& result) {
  struct LpCounters {
    obs::Counter* solves;
    obs::Counter* pivots;
    obs::Counter* primal_pivots;
    obs::Counter* dual_pivots;
    obs::Counter* cold_starts;
    obs::Counter* ftran;
    obs::Counter* btran;
    obs::Counter* refactorizations;
    obs::Counter* warm_basis_used;
    obs::Counter* dual_stalls;
    obs::Counter* dual_cap_hits;
    obs::Counter* dual_wasted_pivots;
    obs::Histogram* pivots_hist;
  };
  static const LpCounters* const counters = [] {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    auto* c = new LpCounters();
    c->solves = reg.GetCounter("solver.lp_solves");
    c->pivots = reg.GetCounter("solver.lp_pivots");
    c->primal_pivots = reg.GetCounter("solver.lp_primal_pivots");
    c->dual_pivots = reg.GetCounter("solver.lp_dual_pivots");
    c->cold_starts = reg.GetCounter("solver.lp_cold_starts");
    c->ftran = reg.GetCounter("solver.ftran");
    c->btran = reg.GetCounter("solver.btran");
    c->refactorizations = reg.GetCounter("solver.refactorizations");
    c->warm_basis_used = reg.GetCounter("solver.warm_basis_used");
    c->dual_stalls = reg.GetCounter("solver.lp_dual_stalls");
    c->dual_cap_hits = reg.GetCounter("solver.lp_dual_cap_hits");
    c->dual_wasted_pivots = reg.GetCounter("solver.lp_dual_wasted_pivots");
    c->pivots_hist = reg.GetHistogram(
        "solver.lp_pivots_per_solve", {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0,
                                       256.0, 512.0, 1024.0});
    return c;
  }();
  counters->solves->Increment();
  counters->pivots->Add(result.iterations);
  counters->primal_pivots->Add(result.stats.phase1_iterations +
                               result.stats.phase2_iterations);
  counters->dual_pivots->Add(result.stats.dual_iterations);
  if (result.stats.cold_start) {
    counters->cold_starts->Increment();
  }
  counters->ftran->Add(result.stats.ftran);
  counters->btran->Add(result.stats.btran);
  counters->refactorizations->Add(result.stats.refactorizations);
  if (result.stats.warm_basis_used) {
    counters->warm_basis_used->Increment();
  }
  if (result.stats.dual_stalled) {
    counters->dual_stalls->Increment();
  }
  if (result.stats.dual_capped) {
    counters->dual_cap_hits->Increment();
  }
  if (result.stats.cold_start) {
    // A dual run that ends in a cold restart contributes nothing to the answer.
    counters->dual_wasted_pivots->Add(result.stats.dual_iterations);
  }
  counters->pivots_hist->Observe(static_cast<double>(result.iterations));
}

// Presolves `model`, solves the reduced model on a one-shot engine of its own
// and maps the answer back; `full` (an engine over `model`) takes the model
// when presolve cannot reduce it.
LpSolution SolvePresolved(const LpModel& model, const SimplexOptions& options,
                          SimplexEngine& full) {
  PresolveResult pre = Presolve(model);
  if (pre.proven_infeasible) {
    LpSolution result;
    result.status = LpStatus::kInfeasible;
    return result;
  }
  if (pre.proven_unbounded) {
    // A row-free variable with an unbounded preferred direction: the model is
    // unbounded iff the rest is feasible — let the full simplex decide.
    return full.Solve(options);
  }
  SimplexOptions reduced_options = options;
  reduced_options.presolve = false;
  // A start basis rides through the reductions (statuses of surviving
  // variables and rows); the simplex repairs whatever the eliminations
  // knocked out of the basic set.
  if (!options.start_basis.empty()) {
    reduced_options.start_basis =
        pre.MapBasisToReduced(options.start_basis, model.num_variables(), model.num_rows());
  }
  const LpColumnIndex columns(pre.reduced);
  SimplexEngine engine(pre.reduced, columns);
  LpSolution reduced = engine.Solve(reduced_options);
  if (reduced.status == LpStatus::kOptimal || reduced.status == LpStatus::kIterationLimit) {
    reduced.values = pre.ExpandSolution(reduced.values);
    reduced.objective = model.ObjectiveValue(reduced.values);
    reduced.basis = pre.MapBasisToFull(reduced.basis, model.num_variables(), model.num_rows());
  }
  return reduced;
}

}  // namespace

SimplexWorkspace::SimplexWorkspace(const LpModel& model, const LpColumnIndex& columns)
    : model_(model), engine_(std::make_unique<SimplexEngine>(model, columns)) {}

SimplexWorkspace::~SimplexWorkspace() = default;

LpSolution SimplexWorkspace::Solve(const SimplexOptions& options) {
  LpSolution result =
      options.presolve ? SolvePresolved(model_, options, *engine_) : engine_->Solve(options);
  RecordLpCounters(result);
  return result;
}

LpSolution SolveLp(const LpModel& model, const SimplexOptions& options) {
  const LpColumnIndex columns(model);
  SimplexWorkspace workspace(model, columns);
  return workspace.Solve(options);
}

}  // namespace threesigma
