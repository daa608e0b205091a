// Branch-and-bound mixed-integer solver over LpModel.
//
// The scheduler's problems are pure 0/1 programs: one binary indicator per
// placement/preemption option (§4.3.3). The solver mirrors the scalability
// techniques of §4.3.6:
//   - warm start: the previous cycle's placement is validated and installed
//     as the initial incumbent ("leaving the cluster state unchanged ... a
//     feasible solution"),
//   - best-found-within-budget: node and wall-clock budgets bound the search;
//     the incumbent is returned when the budget expires,
//   - a greedy rounding pass on each LP relaxation supplies incumbents early
//     so pruning is effective.
//
// Greedy rounding (every fractional node, models whose rows are all <=):
// floor every integer variable, then raise toward its LP value each variable
// that can move up and has a non-negative objective, in the total order
// (fractional part desc, objective desc, variable index asc), skipping any
// raise that would break a row. The column index it walks is built once per
// solver, so a call costs O(nnz + k log k) for k raisable variables and
// allocates nothing per variable.
//
// Node LPs: the same column index (simplex layout, rows ascending) serves
// every node LP. Each Solve runs all its node LPs, the root included, on one
// SimplexWorkspace over a working copy of the model whose rows never change;
// a node only moves bounds, and the workspace keeps its buffers from node to
// node. Nodes with a parent basis solve in the full space; a node without
// one (a root with no hint, or basis_warmstart off) is presolved, and its
// reduced model gets a one-shot workspace of its own.
//
// Node selection: the tree is explored depth-first in batches. Each batch
// pops up to 16 nodes off the subproblem stack and drops those whose parent
// LP bound cannot beat the incumbent as of the batch start; the rest are
// solved and committed one by one in pop order, their children going back
// onto the stack. Ties between equal-objective incumbents go to the
// lexicographically smallest node id. The explored tree, node counts, and
// returned solution are a pure function of the model and options; only the
// wall-clock budget can break this (it truncates the search at a
// hardware-dependent point).

#ifndef SRC_SOLVER_MILP_H_
#define SRC_SOLVER_MILP_H_

#include <cstdint>
#include <vector>

#include "src/solver/lp_model.h"
#include "src/solver/simplex.h"

namespace threesigma {

enum class MilpStatus {
  kOptimal,     // Proven optimal.
  kFeasible,    // Best incumbent at budget expiry.
  kInfeasible,  // No integral feasible point exists (or none found + LP infeasible).
};

struct MilpSolution {
  MilpStatus status = MilpStatus::kInfeasible;
  double objective = 0.0;
  std::vector<double> values;
  int nodes_explored = 0;
  int lp_iterations = 0;
  // LP work breakdown across all nodes (see LpStats). With basis warm-starting
  // most nodes re-optimize in a few dual pivots and phase-1 work collapses.
  int64_t lp_phase1_iterations = 0;
  int64_t lp_dual_iterations = 0;
  int64_t ftran_count = 0;
  int64_t btran_count = 0;
  int refactorizations = 0;
  // Nodes whose LP accepted a parent basis (install survived repair).
  int warm_started_nodes = 0;
  // Greedy rounding passes run (one per fractional node) and how many of
  // them replaced the incumbent.
  int greedy_rounds = 0;
  int greedy_incumbents = 0;
  // Optimal basis of the root relaxation; feed it back as
  // MilpOptions::root_basis on the next, similar model (cross-cycle reuse).
  LpBasis root_basis;
  // True when the returned incumbent came from the warm start and was never
  // improved (diagnostic for the warm-start ablation bench).
  bool warm_start_returned = false;
  // Deepest the subproblem stack ever got (work-queue depth diagnostic).
  int max_queue_depth = 0;
  // Incumbent replacements found by the search (the warm start does not
  // count). Deterministic, like every field here: the solver reads the clock
  // only for MilpOptions::time_limit_seconds.
  int incumbent_improvements = 0;
};

struct MilpOptions {
  // Wall-clock budget in seconds; <= 0 disables the limit. Mirrors the
  // paper's "best solution found within a configurable fraction of the
  // scheduling interval". NOTE: an expiring time limit truncates the search
  // non-deterministically; disable it when bit-reproducibility matters.
  double time_limit_seconds = 0.0;
  // Branch-and-bound node budget; <= 0 disables the limit.
  int max_nodes = 0;
  // Integrality tolerance.
  double integrality_tol = 1e-6;
  // Initial incumbent (e.g. the previous scheduling cycle's solution). Used
  // only if it is feasible for the current model.
  std::vector<double> warm_start;
  // Thread each node's optimal basis to its children, which then re-optimize
  // with a few dual pivots instead of a cold two-phase solve. Every
  // relaxation still solves to proven optimality, so bounds, prunes, and the
  // returned objective are unaffected. On a degenerate relaxation a warm
  // solve may land on a different optimal vertex than a cold one, which can
  // reorder branching — with a unique MILP optimum the returned solution is
  // identical either way.
  bool basis_warmstart = true;
  // Starting basis hint for the root relaxation (e.g. the previous cycle's
  // MilpSolution::root_basis). Ignored unless basis_warmstart is on.
  LpBasis root_basis;
};

class MilpSolver {
 public:
  // `integer_vars` lists the variables constrained to integral values; for
  // the scheduler these are all the [0,1] indicator variables. The solver
  // indexes `model`'s rows here, so the model must outlive it and keep its
  // rows unchanged.
  MilpSolver(const LpModel& model, std::vector<int> integer_vars);

  MilpSolution Solve(const MilpOptions& options = {});

 private:
  // A variable the greedy pass may raise, with its precomputed sort key.
  struct GreedyCandidate {
    double frac;
    double objective;
    int var;
  };

  // Rounds an LP-relaxation point to a feasible integral point greedily;
  // returns true on success.
  bool GreedyRound(const std::vector<double>& relaxed, std::vector<double>* out);

  const LpModel& model_;
  std::vector<int> integer_vars_;
  // The constraint matrix by column, rows ascending: read by GreedyRound and
  // by every node LP.
  LpColumnIndex columns_;
  // Greedy rounding handles only models whose rows are all <=.
  bool all_rows_le_ = true;
  // GreedyRound's scratch, reused across calls.
  std::vector<double> greedy_activity_;
  std::vector<GreedyCandidate> greedy_candidates_;
};

}  // namespace threesigma

#endif  // SRC_SOLVER_MILP_H_
