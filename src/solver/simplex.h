// Sparse revised simplex for bounded variables (primal two-phase + dual).
//
// Solves   max cᵀx   s.t.  rows (≤ / ≥ / =),  l ≤ x ≤ u.
//
// This is the LP engine underneath the branch-and-bound MILP solver that
// replaces the external solver of the paper (§4.3, "solved by an external
// MILP solver"). Scheduler MILPs are extremely sparse — each 0/1 option
// variable touches one demand row plus a handful of expected-capacity rows —
// and consecutive branch-and-bound nodes differ by a single bound change, so
// the engine is built around that structure:
//   - the constraint matrix is held in compressed-sparse-column form
//     (LpColumnIndex, built once per MILP); every row gets a slack variable
//     with bounds encoding its sense,
//   - a SimplexWorkspace is built over one constraint matrix and solves any
//     number of LPs that differ only in variable bounds and objective (the
//     branch-and-bound node sequence), reusing every buffer; SolveLp is a
//     one-shot workspace,
//   - the basis inverse is a product-form eta file: reinversion triangularizes
//     the basis column pattern (slack/singleton columns pivot first) and each
//     simplex pivot appends one sparse eta, giving O(nnz) FTRAN/BTRAN instead
//     of the O(m²)-per-pivot dense inverse; periodic refactorization bounds
//     eta growth and self-corrects numerical drift,
//   - primal pricing uses a candidate list (partial pricing): a full reduced-
//     cost scan harvests the best candidates, subsequent pivots re-price only
//     the list until it runs dry; a Bland's-rule full scan takes over after a
//     degeneracy streak to guarantee termination,
//   - the two full-column scans are tight loops: the candidate-list rebuild
//     prices straight off the CSC arrays and partially sorts only the best
//     candidates; the dual ratio test accumulates the pivot row row by row
//     over the rows where it is nonzero; reinversion stores no identity etas,
//   - a basis (variable statuses over structural + slack variables) can be
//     exported from a solved LP and imported as a starting point: a primal-
//     feasible import skips Phase 1 outright, a dual-feasible import
//     re-optimizes with the bounded-variable dual simplex (the branch-and-
//     bound child case: the parent's optimal basis stays dual feasible under
//     a bound change), and anything else falls back to a cold start, so a
//     warm start never changes the optimal *objective*, only the pivot count
//     (and, on a degenerate LP, which optimal vertex comes back).
//
// Determinism: every choice (pricing, ratio-test tie-breaks, reinversion
// order, repair) is a pure function of the model and options — never of
// wall clock, thread count, or what a reused workspace solved before. Every
// floating-point value that feeds a choice is computed from the same operands
// in the same order on every path; per column, sums run over rows in
// ascending order.

#ifndef SRC_SOLVER_SIMPLEX_H_
#define SRC_SOLVER_SIMPLEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/solver/lp_model.h"

namespace threesigma {

enum class LpStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
};

// Status of one variable relative to a basis. Nonbasic statuses are symbolic
// ("at the current lower bound"), so a basis remains meaningful after the
// bounds themselves move — exactly what branch-and-bound does to children.
enum class BasisStatus : uint8_t { kBasic, kAtLower, kAtUpper };

// A simplex basis over the structural variables followed by the slack
// variables (num_variables + num_rows entries). Imports are best-effort: a
// stale or dimension-mismatched basis is repaired or discarded, never trusted
// into a wrong answer.
struct LpBasis {
  std::vector<BasisStatus> status;
  bool empty() const { return status.empty(); }
};

// Work counters for one LP solve (micro_solver reports these).
struct LpStats {
  int phase1_iterations = 0;  // Primal Phase-1 pivots (artificial cleanup).
  int phase2_iterations = 0;  // Primal Phase-2 pivots.
  int dual_iterations = 0;    // Dual simplex pivots (warm re-optimization).
  int64_t ftran = 0;          // Forward basis solves B⁻¹a.
  int64_t btran = 0;          // Backward basis solves yᵀB⁻¹.
  int refactorizations = 0;   // Eta-file reinversions.
  bool warm_basis_used = false;  // The start basis survived install+repair.
  bool cold_start = false;       // The solve ran the cold two-phase start.
  // The warm dual re-optimization ran more than m + 200 dual-degenerate
  // pivots in a row (it may still have converged).
  bool dual_stalled = false;
  // The warm dual re-optimization gave up at its 3m + 200 pivot cap and the
  // solve restarted cold.
  bool dual_capped = false;
};

struct LpSolution {
  LpStatus status = LpStatus::kInfeasible;
  double objective = 0.0;
  // Structural variable values (empty unless kOptimal / kIterationLimit).
  std::vector<double> values;
  // Total simplex pivots (phase 1 + phase 2 + dual).
  int iterations = 0;
  // Final basis (empty unless kOptimal / kIterationLimit); reusable as
  // SimplexOptions::start_basis for a nearby model.
  LpBasis basis;
  LpStats stats;
};

struct SimplexOptions {
  // Hard cap on pivots across both phases; 0 means "derived from model size".
  int max_iterations = 0;
  // Reduced-cost optimality tolerance.
  double optimality_tol = 1e-7;
  // Bound/feasibility tolerance.
  double feasibility_tol = 1e-7;
  // Run presolve reductions first (solver/presolve.h); branch-and-bound
  // nodes benefit most (their bound fixings eliminate variables outright).
  // A start basis is mapped through the reductions (see presolve.h).
  bool presolve = true;
  // Starting basis hint (e.g. the parent node's optimal basis). Empty means
  // cold start. Never changes the optimal objective, only the pivot count (a
  // degenerate LP may return another optimal vertex).
  LpBasis start_basis;
};

// The constraint matrix by column (compressed sparse column): column j's
// entries are [start[j], start[j + 1]) of `row` / `val`, rows ascending.
struct LpColumnIndex {
  LpColumnIndex() = default;
  explicit LpColumnIndex(const LpModel& model);

  std::vector<int> start;  // num_variables + 1 offsets.
  std::vector<int> row;
  std::vector<double> val;
};

class SimplexEngine;

// Simplex state for a sequence of LPs over one constraint matrix. Between
// solves the model's variable bounds and objective may change; its rows may
// not. Buffers (bounds, duals, eta file, candidate list) keep their capacity
// from one solve to the next, and a solve's result does not depend on what
// the workspace solved before: Solve(options) equals SolveLp(model, options)
// bit for bit, pivot for pivot. Each Solve records the LP registry counters
// (solver.lp_*) once.
class SimplexWorkspace {
 public:
  // `model` and `columns` (an index of `model`'s rows) are borrowed and must
  // outlive the workspace.
  SimplexWorkspace(const LpModel& model, const LpColumnIndex& columns);
  ~SimplexWorkspace();
  SimplexWorkspace(const SimplexWorkspace&) = delete;
  SimplexWorkspace& operator=(const SimplexWorkspace&) = delete;

  // Solves the LP relaxation of the model as it stands now. With
  // options.presolve the reduced model gets a one-shot workspace of its own
  // (each call reduces a different variable subset).
  LpSolution Solve(const SimplexOptions& options);

 private:
  const LpModel& model_;
  std::unique_ptr<SimplexEngine> engine_;
};

// Solves the LP relaxation of `model` (integrality is ignored) on a one-shot
// workspace.
LpSolution SolveLp(const LpModel& model, const SimplexOptions& options = {});

}  // namespace threesigma

#endif  // SRC_SOLVER_SIMPLEX_H_
