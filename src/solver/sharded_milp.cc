#include "src/solver/sharded_milp.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "src/obs/trace.h"

namespace threesigma {
namespace {

// FNV-1a 64-bit, folded one 32-bit word at a time. Local copy — the snapshot
// layer has an equivalent, but the solver must not depend on it.
constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t HashU32(uint64_t h, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= kFnvPrime;
  }
  return h;
}

// Union-find with path halving and union-by-smallest-root: the root of every
// set is its smallest member, which makes "order components by smallest
// member variable" fall out of a single ascending scan.
class UnionFind {
 public:
  explicit UnionFind(int n) : parent_(n) {
    for (int i = 0; i < n; ++i) {
      parent_[i] = i;
    }
  }

  int Find(int x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void Union(int a, int b) {
    a = Find(a);
    b = Find(b);
    if (a == b) {
      return;
    }
    if (b < a) {
      std::swap(a, b);
    }
    parent_[b] = a;
  }

 private:
  std::vector<int> parent_;
};

// A row whose terms all coalesced away constrains nothing — unless its
// right-hand side is unsatisfiable on its own.
bool ZeroTermRowInfeasible(const LpRow& row) {
  constexpr double kTol = 1e-9;
  switch (row.sense) {
    case RowSense::kLessEqual:
      return row.rhs < -kTol;
    case RowSense::kGreaterEqual:
      return row.rhs > kTol;
    case RowSense::kEqual:
      return std::abs(row.rhs) > kTol;
  }
  return false;
}

}  // namespace

ShardDecomposition DecomposeMilp(const LpModel& model,
                                 const std::vector<int>& integer_vars) {
  ShardDecomposition out;
  const int n = model.num_variables();
  UnionFind uf(n);
  for (int r = 0; r < model.num_rows(); ++r) {
    const LpRow& row = model.row(r);
    if (row.terms.empty()) {
      if (ZeroTermRowInfeasible(row)) {
        out.trivially_infeasible = true;
      }
      continue;
    }
    for (size_t t = 1; t < row.terms.size(); ++t) {
      uf.Union(row.terms[0].var, row.terms[t].var);
    }
  }

  // Ascending variable scan: each set's root is its smallest member, so
  // shards come out ordered by smallest member variable and each shard's
  // `vars` list is ascending.
  std::vector<int> shard_of_root(n, -1);
  std::vector<int> var_shard(n, -1);
  for (int v = 0; v < n; ++v) {
    const int root = uf.Find(v);
    if (shard_of_root[root] < 0) {
      shard_of_root[root] = static_cast<int>(out.shards.size());
      out.shards.emplace_back();
    }
    const int s = shard_of_root[root];
    var_shard[v] = s;
    out.shards[s].vars.push_back(v);
  }

  std::vector<int> local(n, -1);
  for (MilpShard& shard : out.shards) {
    for (size_t i = 0; i < shard.vars.size(); ++i) {
      local[shard.vars[i]] = static_cast<int>(i);
    }
    for (const int v : shard.vars) {
      shard.model.AddVariable(model.lower(v), model.upper(v), model.objective(v),
                              model.var_name(v));
    }
  }

  // Rows land in their shard in ascending global order; consistent zero-term
  // rows are dropped (they constrain nothing).
  for (int r = 0; r < model.num_rows(); ++r) {
    const LpRow& row = model.row(r);
    if (row.terms.empty()) {
      continue;
    }
    MilpShard& shard = out.shards[var_shard[row.terms[0].var]];
    std::vector<LpTerm> terms;
    terms.reserve(row.terms.size());
    for (const LpTerm& t : row.terms) {
      terms.push_back({local[t.var], t.coeff});
    }
    shard.rows.push_back(r);
    shard.model.AddRow(row.sense, row.rhs, std::move(terms), row.name);
  }

  // Integral variables keep the caller's ordering within each shard so the
  // sub-solver's branching tie-breaks walk the same sequence.
  for (const int v : integer_vars) {
    MilpShard& shard = out.shards[var_shard[v]];
    shard.integer_vars.push_back(local[v]);
  }

  // Structural fingerprint: counts, row senses, and the local sparsity
  // pattern — deliberately not coefficients, so a next-cycle shard with the
  // same shape reuses the basis even as expected-utility values drift.
  for (MilpShard& shard : out.shards) {
    uint64_t h = kFnvOffset;
    h = HashU32(h, static_cast<uint32_t>(shard.vars.size()));
    h = HashU32(h, static_cast<uint32_t>(shard.model.num_rows()));
    for (int r = 0; r < shard.model.num_rows(); ++r) {
      const LpRow& row = shard.model.row(r);
      h = HashU32(h, static_cast<uint32_t>(row.sense));
      h = HashU32(h, static_cast<uint32_t>(row.terms.size()));
      for (const LpTerm& t : row.terms) {
        h = HashU32(h, static_cast<uint32_t>(t.var));
      }
    }
    shard.fingerprint = h;
  }
  return out;
}

ShardedMilpSolution SolveShardedMilp(const LpModel& model,
                                     const std::vector<int>& integer_vars,
                                     const ShardedMilpOptions& options) {
  using Clock = std::chrono::steady_clock;
  const auto start_time = Clock::now();

  ShardedMilpSolution out;
  ShardDecomposition dec = DecomposeMilp(model, integer_vars);
  const int num_shards = static_cast<int>(dec.shards.size());
  out.num_shards = num_shards;
  for (const MilpShard& shard : dec.shards) {
    const int vars = static_cast<int>(shard.vars.size());
    out.max_shard_vars = std::max(out.max_shard_vars, vars);
    out.min_shard_vars = out.min_shard_vars == 0 ? vars : std::min(out.min_shard_vars, vars);
  }

  MilpSolution& merged = out.merged;
  if (dec.trivially_infeasible) {
    merged.status = MilpStatus::kInfeasible;
    const std::chrono::duration<double> elapsed = Clock::now() - start_time;
    merged.solve_seconds = elapsed.count();
    return out;
  }

  const int n = model.num_variables();
  const bool have_warm =
      !options.base.warm_start.empty() &&
      static_cast<int>(options.base.warm_start.size()) == n;

  // Resolve every shard's options up front on the calling thread: basis-map
  // lookups and warm-start slicing are deterministic and must not race with
  // the fan-out.
  std::vector<MilpOptions> shard_options(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    const MilpShard& shard = dec.shards[s];
    MilpOptions o = options.base;
    o.emit_span = false;
    o.root_basis = LpBasis{};
    o.warm_start.clear();
    if (o.basis_warmstart && options.shard_bases != nullptr) {
      const auto it = options.shard_bases->find(shard.fingerprint);
      if (it != options.shard_bases->end()) {
        o.root_basis = it->second;
      }
    }
    if (have_warm) {
      o.warm_start.resize(shard.vars.size());
      for (size_t i = 0; i < shard.vars.size(); ++i) {
        o.warm_start[i] = options.base.warm_start[shard.vars[i]];
      }
    }
    shard_options[s] = std::move(o);
  }

  // Fan out: one single-threaded deterministic sub-solve per shard, results
  // in indexed slots (no ordering dependence on worker assignment).
  std::vector<MilpSolution> results(static_cast<size_t>(num_shards));
  const auto solve_one = [&](int s) {
    MilpSolver solver(dec.shards[s].model, dec.shards[s].integer_vars);
    results[s] = solver.Solve(shard_options[s]);
  };
  if (options.pool != nullptr && options.pool->size() > 1 && num_shards > 1) {
    options.pool->ParallelFor(num_shards, [&](int worker, int index) {
      (void)worker;
      solve_one(index);
    });
  } else {
    for (int s = 0; s < num_shards; ++s) {
      solve_one(s);
    }
  }

  // Merge in shard order on the calling thread. The per-shard span is
  // emitted here (never from pool workers) so exported traces carry the
  // shard structure without depending on thread count.
  merged.values.assign(static_cast<size_t>(n), 0.0);
  bool any_infeasible = false;
  bool all_optimal = true;
  bool all_warm_returned = num_shards > 0;
  for (int s = 0; s < num_shards; ++s) {
    TS_OBS_SPAN("sched.solve_shard", obs::Phase::kOther);
    const MilpShard& shard = dec.shards[s];
    const MilpSolution& r = results[s];
    if (r.status == MilpStatus::kInfeasible) {
      any_infeasible = true;
    }
    if (r.status != MilpStatus::kOptimal) {
      all_optimal = false;
    }
    if (!r.warm_start_returned) {
      all_warm_returned = false;
    }
    if (r.values.size() == shard.vars.size()) {
      for (size_t i = 0; i < shard.vars.size(); ++i) {
        merged.values[shard.vars[i]] = r.values[i];
      }
    }
    merged.nodes_explored += r.nodes_explored;
    merged.lp_iterations += r.lp_iterations;
    merged.lp_phase1_iterations += r.lp_phase1_iterations;
    merged.lp_phase2_iterations += r.lp_phase2_iterations;
    merged.lp_dual_iterations += r.lp_dual_iterations;
    merged.ftran_count += r.ftran_count;
    merged.btran_count += r.btran_count;
    merged.refactorizations += r.refactorizations;
    merged.warm_started_nodes += r.warm_started_nodes;
    merged.greedy_rounds += r.greedy_rounds;
    merged.greedy_incumbents += r.greedy_incumbents;
    merged.max_queue_depth = std::max(merged.max_queue_depth, r.max_queue_depth);
    for (const IncumbentImprovement& imp : r.incumbent_improvements) {
      merged.incumbent_improvements.push_back(imp);
    }
    if (options.shard_bases != nullptr && !r.root_basis.status.empty()) {
      (*options.shard_bases)[shard.fingerprint] = r.root_basis;
    }
  }

  if (any_infeasible) {
    merged.status = MilpStatus::kInfeasible;
    merged.values.clear();
    merged.objective = 0.0;
  } else {
    merged.status = all_optimal ? MilpStatus::kOptimal : MilpStatus::kFeasible;
    // Recompute through the full model: ObjectiveValue walks variables in
    // global index order, replaying the monolithic solver's accumulation
    // order exactly — identical vectors give bitwise-identical objectives.
    merged.objective = model.ObjectiveValue(merged.values);
    merged.warm_start_returned = all_warm_returned;
  }
  const std::chrono::duration<double> elapsed = Clock::now() - start_time;
  merged.solve_seconds = elapsed.count();
  return out;
}

}  // namespace threesigma
