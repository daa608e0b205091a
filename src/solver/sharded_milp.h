// Exact shard decomposition for the per-cycle placement MILP.
//
// The scheduler's MILP is block-separable: jobs only interact through the
// expected-capacity rows of the equivalence sets they can land on, so the
// bipartite variable↔row constraint graph usually splits into independent
// connected components ("shards"). Each shard is compiled into its own
// sub-MILP and solved independently — optionally in parallel on the solver
// thread pool — and the per-shard optima are scattered back into one
// full-length solution vector.
//
// Exactness: components share no variables and no rows, so the feasible set
// of the monolithic model is the Cartesian product of the shard feasible
// sets and the objective is a sum of per-shard objectives. Solving every
// shard to proven optimality therefore yields a global optimum. The merged
// objective is recomputed through the *full* model's ObjectiveValue so the
// floating-point accumulation order matches the monolithic solve exactly:
// identical solution vectors produce bitwise-identical objectives.
//
// Determinism: the decomposition is a deterministic union-find (components
// ordered by smallest member variable index, variables and rows in ascending
// model order inside each shard), every sub-solve runs the deterministic
// serial branch-and-bound, and the merge walks shards in order on the
// calling thread. The result is byte-identical at any shard/thread count.
// Budgets are the one caveat: each shard receives the full node budget, so a
// *binding* max_nodes explores a different (larger) portion of the tree than
// the monolithic search — run unbudgeted when comparing against monolithic.
//
// Warm bases: each shard's root-relaxation basis is returned keyed by a
// structural fingerprint (variable/row counts, row senses, local sparsity
// pattern — not coefficients), so the next cycle's matching shard can warm
// start its root LP. Bases never change answers, only pivot counts, so a
// fingerprint collision is harmless.

#ifndef SRC_SOLVER_SHARDED_MILP_H_
#define SRC_SOLVER_SHARDED_MILP_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/solver/lp_model.h"
#include "src/solver/milp.h"

namespace threesigma {

// One connected component of the constraint graph, compiled as a standalone
// sub-MILP. `vars` / `rows` are the ascending global indices backing the
// sub-model; local index i corresponds to global index vars[i] (rows[i]).
struct MilpShard {
  std::vector<int> vars;
  std::vector<int> rows;
  // Local indices of the integral variables, preserving the caller's
  // integer_vars ordering (branching tie-breaks follow this order).
  std::vector<int> integer_vars;
  // Structural fingerprint for cross-cycle basis reuse.
  uint64_t fingerprint = 0;
  LpModel model;
};

struct ShardDecomposition {
  // Ordered by smallest member global variable index.
  std::vector<MilpShard> shards;
  // True when a zero-term row (possible through the general LpModel API once
  // AddRow coalesces terms away; the scheduler never builds one) has an
  // unsatisfiable right-hand side, making the whole program infeasible
  // before any solve.
  bool trivially_infeasible = false;
};

// Splits `model` into connected components via union-find over variables
// (all variables sharing a row are united; row-free variables form singleton
// shards). Pure function of the model structure — deterministic.
ShardDecomposition DecomposeMilp(const LpModel& model,
                                 const std::vector<int>& integer_vars);

struct ShardedMilpOptions {
  // Per-shard solve options. `warm_start` is sliced per shard; `root_basis`
  // is ignored (per-shard bases come from `shard_bases`). `emit_span` is
  // forced off for sub-solves so no span is emitted from pool workers.
  MilpOptions base;
  // Optional borrowed pool (must outlive the solve) for the shard fan-out;
  // null solves the shards one after another on the calling thread.
  ThreadPool* pool = nullptr;
  // Optional cross-cycle basis map, keyed by shard fingerprint. Read for
  // root-basis hints before the fan-out; updated in shard order with this
  // solve's root bases after the merge. May be nullptr.
  std::map<uint64_t, LpBasis>* shard_bases = nullptr;
};

struct ShardedMilpSolution {
  // Merged solution, shaped exactly like a monolithic MilpSolver::Solve
  // result over the full model (root_basis is left empty; the per-shard
  // bases live in the fingerprint map instead).
  MilpSolution merged;
  int num_shards = 0;
  // Largest / smallest shard by variable count (imbalance diagnostics).
  int max_shard_vars = 0;
  int min_shard_vars = 0;
};

// Decomposes, solves every shard to its per-shard optimum, and merges.
// Equivalent to MilpSolver(model, integer_vars).Solve(...) in objective
// (bitwise, when unbudgeted) and in solution vector whenever the optimum is
// unique.
ShardedMilpSolution SolveShardedMilp(const LpModel& model,
                                     const std::vector<int>& integer_vars,
                                     const ShardedMilpOptions& options);

}  // namespace threesigma

#endif  // SRC_SOLVER_SHARDED_MILP_H_
