// Differential test layer for the branch-and-bound solver.
//
// Two hundred seeded random 0/1 programs (up to 12 binary variables, mixed
// <= and >= rows, positive and negative objective coefficients) are solved
// by exhaustive 2^n enumeration and by MilpSolver, which must agree on
// feasibility status and optimal objective to 1e-6. A digest over budgeted
// solves pins the node order, and basis warm-starting must never change an
// answer. A test-local oracle pins the greedy rounding rule on
// scheduler-shaped programs, and its tie-break must not depend on the order
// of the integer variable list.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <ios>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/solver/lp_model.h"
#include "src/solver/milp.h"
#include "src/solver/simplex.h"

namespace threesigma {
namespace {

struct BruteForceResult {
  bool feasible = false;
  double objective = 0.0;
};

// Exhaustive optimum of a pure-binary program; infeasible when no assignment
// satisfies every row.
BruteForceResult BruteForceBinary(const LpModel& model) {
  const int n = model.num_variables();
  BruteForceResult best;
  for (uint32_t mask = 0; mask < (1u << n); ++mask) {
    std::vector<double> x(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      x[static_cast<size_t>(i)] = (mask >> i) & 1u ? 1.0 : 0.0;
    }
    if (!model.IsFeasible(x)) {
      continue;
    }
    const double obj = model.ObjectiveValue(x);
    if (!best.feasible || obj > best.objective) {
      best.feasible = true;
      best.objective = obj;
    }
  }
  return best;
}

// A random 0/1 program with the scheduler's row shapes plus adversarial
// extras: >= rows (preemption-credit-like), negative objective terms, and
// occasional infeasible row combinations.
LpModel RandomBinaryProgram(Rng& rng, std::vector<int>* int_vars) {
  const int n = static_cast<int>(rng.UniformInt(2, 12));
  LpModel model;
  for (int i = 0; i < n; ++i) {
    const int var = model.AddVariable(0.0, 1.0, rng.Uniform(-4.0, 10.0));
    int_vars->push_back(var);
  }
  const int rows = static_cast<int>(rng.UniformInt(1, 8));
  for (int r = 0; r < rows; ++r) {
    std::vector<LpTerm> terms;
    for (int i = 0; i < n; ++i) {
      if (rng.Bernoulli(0.5)) {
        terms.push_back({i, rng.Uniform(-2.0, 4.0)});
      }
    }
    if (terms.empty()) {
      terms.push_back({static_cast<int>(rng.UniformInt(0, n - 1)), 1.0});
    }
    if (rng.Bernoulli(0.25)) {
      // A >= row; a tight rhs sometimes makes the whole program infeasible,
      // which the solver must also detect.
      model.AddRow(RowSense::kGreaterEqual, rng.Uniform(0.0, 3.0), std::move(terms));
    } else {
      model.AddRow(RowSense::kLessEqual, rng.Uniform(0.5, 6.0), std::move(terms));
    }
  }
  return model;
}

TEST(MilpDifferentialTest, MatchesBruteForce) {
  constexpr int kPrograms = 200;
  int infeasible_seen = 0;
  for (int p = 0; p < kPrograms; ++p) {
    Rng rng(1000 + static_cast<uint64_t>(p));
    std::vector<int> int_vars;
    const LpModel model = RandomBinaryProgram(rng, &int_vars);
    const BruteForceResult reference = BruteForceBinary(model);

    // Unbudgeted search: the solver must prove optimality or infeasibility.
    MilpSolver solver(model, int_vars);
    const MilpSolution s = solver.Solve();

    if (!reference.feasible) {
      ++infeasible_seen;
      EXPECT_EQ(s.status, MilpStatus::kInfeasible) << "program " << p;
      continue;
    }
    ASSERT_EQ(s.status, MilpStatus::kOptimal) << "program " << p;
    EXPECT_NEAR(s.objective, reference.objective, 1e-6) << "program " << p;
    // The returned point must itself be feasible and integral.
    EXPECT_TRUE(model.IsFeasible(s.values)) << "program " << p;
    for (double v : s.values) {
      EXPECT_NEAR(v, std::round(v), 1e-6) << "program " << p;
    }
  }
  // The generator must actually exercise the infeasible path.
  EXPECT_GT(infeasible_seen, 0);
  EXPECT_LT(infeasible_seen, kPrograms / 2);
}

// FNV-1a over 64-bit words.
uint64_t Fnv1a(uint64_t hash, uint64_t word) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (word >> (8 * byte)) & 0xffu;
    hash *= 1099511628211ull;
  }
  return hash;
}

uint64_t DoubleBits(double x) {
  uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

// Digest of budgeted solves over the 40 programs seeded 9000..9039: status,
// explored nodes, queue depth, and the bits of the returned objective and
// point.
uint64_t BudgetedSolveDigest(int max_nodes) {
  uint64_t digest = 14695981039346656037ull;
  for (int p = 0; p < 40; ++p) {
    Rng rng(9000 + static_cast<uint64_t>(p));
    std::vector<int> int_vars;
    const LpModel model = RandomBinaryProgram(rng, &int_vars);

    MilpOptions options;
    options.max_nodes = max_nodes;
    MilpSolver solver(model, int_vars);
    const MilpSolution s = solver.Solve(options);
    EXPECT_LE(s.nodes_explored, max_nodes) << "program " << p;

    digest = Fnv1a(digest, static_cast<uint64_t>(s.status));
    digest = Fnv1a(digest, static_cast<uint64_t>(s.nodes_explored));
    digest = Fnv1a(digest, static_cast<uint64_t>(s.max_queue_depth));
    digest = Fnv1a(digest, DoubleBits(s.objective));
    digest = Fnv1a(digest, s.values.size());
    for (double v : s.values) {
      digest = Fnv1a(digest, DoubleBits(v));
    }
  }
  return digest;
}

// Pins the node order. With a binding node budget the batch rule (up to 16
// nodes popped per batch, each pre-pruned against the incumbent as of the
// batch start) decides which nodes get explored, so every budgeted
// scheduling decision depends on it. The 5-node digest is the scheduler's
// budget regime; the 40-node one reaches batches where an incumbent found
// mid-batch must not tighten the pre-prune bound.
TEST(MilpDifferentialTest, BudgetedSearchNodeOrderIsPinned) {
  const uint64_t digest5 = BudgetedSolveDigest(5);
  EXPECT_EQ(digest5, 0xdb20f9ea443da4a1ull) << std::hex << "0x" << digest5;
  const uint64_t digest40 = BudgetedSolveDigest(40);
  EXPECT_EQ(digest40, 0xd3344d0c993e8524ull) << std::hex << "0x" << digest40;
}

// An optimal warm start is returned unchanged and reported as such.
TEST(MilpDifferentialTest, WarmStartReturnedWhenOptimal) {
  int warm_returned = 0;
  for (int p = 0; p < 20; ++p) {
    Rng rng(500 + static_cast<uint64_t>(p));
    std::vector<int> int_vars;
    const LpModel model = RandomBinaryProgram(rng, &int_vars);
    MilpSolver solver(model, int_vars);
    const MilpSolution cold = solver.Solve();
    if (cold.status != MilpStatus::kOptimal) {
      continue;
    }
    MilpOptions options;
    options.warm_start = cold.values;
    MilpSolver warm_solver(model, int_vars);
    const MilpSolution warm = warm_solver.Solve(options);
    ASSERT_EQ(warm.status, MilpStatus::kOptimal) << "program " << p;
    EXPECT_DOUBLE_EQ(warm.objective, cold.objective) << "program " << p;
    EXPECT_EQ(warm.values, cold.values) << "program " << p;
    if (warm.warm_start_returned) {
      ++warm_returned;
    }
  }
  EXPECT_GT(warm_returned, 0);
}

// Basis warm-starting is a pure accelerator: across the same 200 random 0/1
// programs, warm and cold runs must agree on status and objective, and —
// because the continuous random objective coefficients make the binary
// optimum unique almost surely — on the exact solution vector. (Node counts
// are NOT compared: a warm LP may surface a different optimal vertex of a
// degenerate relaxation and legitimately reorder the tree.)
TEST(MilpDifferentialTest, BasisWarmstartNeverChangesTheAnswer) {
  constexpr int kPrograms = 200;
  int warm_nodes_total = 0;
  for (int p = 0; p < kPrograms; ++p) {
    Rng rng(1000 + static_cast<uint64_t>(p));
    std::vector<int> int_vars;
    const LpModel model = RandomBinaryProgram(rng, &int_vars);

    MilpOptions warm_options;  // basis_warmstart defaults on.
    MilpOptions cold_options;
    cold_options.basis_warmstart = false;

    MilpSolver warm_solver(model, int_vars);
    const MilpSolution warm = warm_solver.Solve(warm_options);
    MilpSolver cold_solver(model, int_vars);
    const MilpSolution cold = cold_solver.Solve(cold_options);

    ASSERT_EQ(warm.status, cold.status) << "program " << p;
    if (warm.status == MilpStatus::kInfeasible) {
      continue;
    }
    EXPECT_DOUBLE_EQ(warm.objective, cold.objective) << "program " << p;
    EXPECT_EQ(warm.values, cold.values) << "program " << p;
    EXPECT_TRUE(model.IsFeasible(warm.values)) << "program " << p;
    EXPECT_EQ(cold.warm_started_nodes, 0) << "program " << p;
    warm_nodes_total += warm.warm_started_nodes;
  }
  // The sweep must actually exercise basis reuse, not just trivially agree.
  EXPECT_GT(warm_nodes_total, 0);
}


// A scheduler-shaped 0/1 program: each job's placement options share an
// at-most-one demand row, options consume shared <= capacity rows, and
// (with `preemption`) preemption-style variables carry a negative objective
// and credit capacity back through negative coefficients. With `ties`,
// objectives are 1 or 2 and every capacity row is 2 * (sum of its options)
// <= an odd rhs, so half-integral LP points with equal objectives are common.
// `scale` multiplies the job and capacity-row counts (same draws otherwise).
LpModel SchedulerShapedProgram(Rng& rng, bool preemption, bool ties, std::vector<int>* int_vars,
                               int scale = 1) {
  const int jobs = static_cast<int>(rng.UniformInt(2, 10)) * scale;
  const int options_per_job = static_cast<int>(rng.UniformInt(1, 5));
  const int capacity_rows = static_cast<int>(rng.UniformInt(1, 6)) * scale;
  LpModel model;
  std::vector<std::vector<LpTerm>> capacity(static_cast<size_t>(capacity_rows));
  std::vector<std::vector<LpTerm>> demand(static_cast<size_t>(jobs));
  for (int j = 0; j < jobs; ++j) {
    for (int o = 0; o < options_per_job; ++o) {
      const double objective =
          ties ? static_cast<double>(rng.UniformInt(1, 2)) : rng.Uniform(0.1, 10.0);
      const int var = model.AddVariable(0.0, 1.0, objective);
      int_vars->push_back(var);
      demand[static_cast<size_t>(j)].push_back({var, 1.0});
      for (int c = 0; c < capacity_rows; ++c) {
        if (rng.Bernoulli(0.5)) {
          const double coeff = ties ? 2.0 : rng.Uniform(0.5, 4.0);
          capacity[static_cast<size_t>(c)].push_back({var, coeff});
        }
      }
    }
  }
  const int preemptible = preemption ? static_cast<int>(rng.UniformInt(1, 4)) : 0;
  for (int p = 0; p < preemptible; ++p) {
    const int var = model.AddVariable(0.0, 1.0, -rng.Uniform(0.5, 5.0));
    int_vars->push_back(var);
    const int c = static_cast<int>(rng.UniformInt(0, capacity_rows - 1));
    capacity[static_cast<size_t>(c)].push_back({var, -rng.Uniform(1.0, 4.0)});
  }
  for (std::vector<LpTerm>& terms : demand) {
    model.AddRow(RowSense::kLessEqual, 1.0, std::move(terms));
  }
  for (std::vector<LpTerm>& terms : capacity) {
    if (terms.empty()) {
      continue;
    }
    const double rhs =
        ties ? static_cast<double>(2 * rng.UniformInt(0, 2) + 1) : rng.Uniform(1.0, 8.0);
    model.AddRow(RowSense::kLessEqual, rhs, std::move(terms));
  }
  return model;
}

double Frac(double x) { return x - std::floor(x + 1e-9); }

// The greedy rounding rule, written plainly: floor every integer variable,
// then walk all of them in (fractional part desc, objective desc, index asc)
// order and raise each one that can move up, has a non-negative objective,
// and keeps every row satisfied. Empty when a row is not <= or the result is
// infeasible.
std::optional<std::vector<double>> GreedyOracle(const LpModel& model,
                                                const std::vector<int>& int_vars,
                                                const std::vector<double>& relaxed) {
  for (const LpRow& row : model.rows()) {
    if (row.sense != RowSense::kLessEqual) {
      return std::nullopt;
    }
  }
  std::vector<double> x = relaxed;
  for (int v : int_vars) {
    x[v] = std::floor(relaxed[v] + 1e-9);
  }
  std::vector<double> activity(static_cast<size_t>(model.num_rows()), 0.0);
  for (int r = 0; r < model.num_rows(); ++r) {
    for (const LpTerm& t : model.row(r).terms) {
      activity[static_cast<size_t>(r)] += t.coeff * x[t.var];
    }
  }
  std::vector<int> order = int_vars;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (Frac(relaxed[a]) != Frac(relaxed[b])) {
      return Frac(relaxed[a]) > Frac(relaxed[b]);
    }
    if (model.objective(a) != model.objective(b)) {
      return model.objective(a) > model.objective(b);
    }
    return a < b;
  });
  for (int v : order) {
    const double target = std::min(std::ceil(relaxed[v] - 1e-9), model.upper(v));
    const double delta = target - x[v];
    if (delta <= 0.0 || model.objective(v) < 0.0) {
      continue;
    }
    bool fits = true;
    for (int r = 0; r < model.num_rows(); ++r) {
      for (const LpTerm& t : model.row(r).terms) {
        if (t.var == v && activity[static_cast<size_t>(r)] + t.coeff * delta >
                              model.row(r).rhs + 1e-9) {
          fits = false;
        }
      }
    }
    if (!fits) {
      continue;
    }
    x[v] = target;
    for (int r = 0; r < model.num_rows(); ++r) {
      for (const LpTerm& t : model.row(r).terms) {
        if (t.var == v) {
          activity[static_cast<size_t>(r)] += t.coeff * delta;
        }
      }
    }
  }
  if (!model.IsFeasible(x)) {
    return std::nullopt;
  }
  return x;
}

bool AllIntegral(const std::vector<double>& x, const std::vector<int>& int_vars) {
  for (int v : int_vars) {
    if (std::fabs(x[v] - std::round(x[v])) > 1e-6) {
      return false;
    }
  }
  return true;
}

// At max_nodes = 1 the solver explores only the root: a fractional root LP
// gets one greedy pass, whose point is the only possible incumbent. It must
// equal the oracle's bit for bit.
TEST(MilpDifferentialTest, GreedyRoundingMatchesOracle) {
  constexpr int kPrograms = 200;
  int rounded = 0;
  int preempt_programs = 0;
  for (int p = 0; p < kPrograms; ++p) {
    Rng rng(20000 + static_cast<uint64_t>(p));
    std::vector<int> int_vars;
    const bool preemption = p % 2 == 1;
    const LpModel model = SchedulerShapedProgram(rng, preemption, p % 4 == 0, &int_vars);
    const LpSolution root = SolveLp(model);
    ASSERT_EQ(root.status, LpStatus::kOptimal) << "program " << p;

    MilpOptions options;
    options.max_nodes = 1;
    MilpSolver solver(model, int_vars);
    const MilpSolution s = solver.Solve(options);
    ASSERT_EQ(s.nodes_explored, 1) << "program " << p;
    if (AllIntegral(root.values, int_vars)) {
      EXPECT_EQ(s.greedy_rounds, 0) << "program " << p;
      continue;
    }
    EXPECT_EQ(s.greedy_rounds, 1) << "program " << p;
    const std::optional<std::vector<double>> oracle = GreedyOracle(model, int_vars, root.values);
    if (!oracle.has_value()) {
      EXPECT_EQ(s.status, MilpStatus::kInfeasible) << "program " << p;
      EXPECT_EQ(s.greedy_incumbents, 0) << "program " << p;
      continue;
    }
    ++rounded;
    preempt_programs += preemption ? 1 : 0;
    EXPECT_EQ(s.greedy_incumbents, 1) << "program " << p;
    ASSERT_EQ(s.status, MilpStatus::kFeasible) << "program " << p;
    ASSERT_EQ(s.values.size(), oracle->size()) << "program " << p;
    for (size_t i = 0; i < oracle->size(); ++i) {
      EXPECT_EQ(DoubleBits(s.values[i]), DoubleBits((*oracle)[i]))
          << "program " << p << " var " << i;
    }
    EXPECT_EQ(DoubleBits(s.objective), DoubleBits(model.ObjectiveValue(*oracle)))
        << "program " << p;
    for (int v : int_vars) {
      if (model.objective(v) < 0.0) {
        EXPECT_EQ(s.values[v], std::floor(root.values[v] + 1e-9))
            << "negative-objective variable raised, program " << p << " var " << v;
      }
    }
  }
  // Most programs must actually reach the greedy pass with both shapes.
  EXPECT_GT(rounded, kPrograms / 2);
  EXPECT_GT(preempt_programs, kPrograms / 8);
}

// Tie-heavy programs: many candidates share a fractional part and an
// objective, so the variable-index tie-break decides the raise order.
// Shuffling the integer variable list must not change the greedy point.
TEST(MilpDifferentialTest, GreedyTieBreakIgnoresIntegerVarOrder) {
  constexpr int kPrograms = 100;
  int tied_programs = 0;
  for (int p = 0; p < kPrograms; ++p) {
    Rng rng(30000 + static_cast<uint64_t>(p));
    std::vector<int> int_vars;
    const LpModel model = SchedulerShapedProgram(rng, p % 2 == 1, /*ties=*/true, &int_vars);
    const LpSolution root = SolveLp(model);
    ASSERT_EQ(root.status, LpStatus::kOptimal) << "program " << p;
    // Count equal (fraction, objective) keys among the raisable variables.
    std::vector<std::pair<double, double>> keys;
    for (int v : int_vars) {
      if (Frac(root.values[v]) > 1e-9 && model.objective(v) >= 0.0) {
        keys.emplace_back(Frac(root.values[v]), model.objective(v));
      }
    }
    std::sort(keys.begin(), keys.end());
    if (std::adjacent_find(keys.begin(), keys.end()) != keys.end()) {
      ++tied_programs;
    }

    MilpOptions options;
    options.max_nodes = 1;
    MilpSolver solver(model, int_vars);
    const MilpSolution reference = solver.Solve(options);
    Rng shuffle_rng(static_cast<uint64_t>(p));
    for (int trial = 0; trial < 3; ++trial) {
      std::vector<int> permuted = int_vars;
      std::shuffle(permuted.begin(), permuted.end(), shuffle_rng.engine());
      MilpSolver permuted_solver(model, permuted);
      const MilpSolution s = permuted_solver.Solve(options);
      ASSERT_EQ(s.status, reference.status) << "program " << p << " trial " << trial;
      EXPECT_EQ(s.values, reference.values) << "program " << p << " trial " << trial;
    }
  }
  EXPECT_GT(tied_programs, kPrograms / 4);
}

// A >= row puts the model outside the greedy pass's row shapes: the pass runs
// on the fractional root but bails out without an incumbent.
TEST(MilpDifferentialTest, GreedyRoundingBailsOnGreaterEqualRow) {
  LpModel model;
  std::vector<int> int_vars;
  for (int i = 0; i < 3; ++i) {
    int_vars.push_back(model.AddVariable(0.0, 1.0, 1.0 + i));
  }
  model.AddRow(RowSense::kLessEqual, 1.5, {{0, 1.0}, {1, 1.0}, {2, 1.0}});
  model.AddRow(RowSense::kGreaterEqual, 0.5, {{0, 1.0}, {1, 1.0}});
  const LpSolution root = SolveLp(model);
  ASSERT_EQ(root.status, LpStatus::kOptimal);
  ASSERT_FALSE(AllIntegral(root.values, int_vars));
  EXPECT_FALSE(GreedyOracle(model, int_vars, root.values).has_value());

  MilpOptions options;
  options.max_nodes = 1;
  MilpSolver solver(model, int_vars);
  const MilpSolution s = solver.Solve(options);
  EXPECT_EQ(s.greedy_rounds, 1);
  EXPECT_EQ(s.greedy_incumbents, 0);
  EXPECT_EQ(s.status, MilpStatus::kInfeasible);  // No incumbent within budget.

  // Unbudgeted, the tree alone finds the optimum: exactly one of x0/x1 is 1
  // and nothing else fits, so x1 = 1.
  const MilpSolution full = solver.Solve();
  ASSERT_EQ(full.status, MilpStatus::kOptimal);
  EXPECT_EQ(full.greedy_incumbents, 0);
  EXPECT_DOUBLE_EQ(full.objective, 2.0);
}

// Bitwise equality of two LP solves: status, objective and value bits, the
// exported basis, the pivot count, and every work counter.
void ExpectSameLp(const LpSolution& a, const LpSolution& b, const std::string& where) {
  EXPECT_EQ(a.status, b.status) << where;
  EXPECT_EQ(DoubleBits(a.objective), DoubleBits(b.objective)) << where;
  ASSERT_EQ(a.values.size(), b.values.size()) << where;
  for (size_t v = 0; v < a.values.size(); ++v) {
    EXPECT_EQ(DoubleBits(a.values[v]), DoubleBits(b.values[v])) << where << " var " << v;
  }
  EXPECT_TRUE(a.basis.status == b.basis.status) << where;
  EXPECT_EQ(a.iterations, b.iterations) << where;
  EXPECT_EQ(a.stats.phase1_iterations, b.stats.phase1_iterations) << where;
  EXPECT_EQ(a.stats.phase2_iterations, b.stats.phase2_iterations) << where;
  EXPECT_EQ(a.stats.dual_iterations, b.stats.dual_iterations) << where;
  EXPECT_EQ(a.stats.ftran, b.stats.ftran) << where;
  EXPECT_EQ(a.stats.btran, b.stats.btran) << where;
  EXPECT_EQ(a.stats.refactorizations, b.stats.refactorizations) << where;
  EXPECT_EQ(a.stats.warm_basis_used, b.stats.warm_basis_used) << where;
  EXPECT_EQ(a.stats.cold_start, b.stats.cold_start) << where;
}

// A workspace reused across a node sequence (random branching fixes; warm
// from the previous node's basis, cold, presolved, or with a hint of the
// wrong shape, in random order) answers every node exactly as a fresh
// one-shot SolveLp does: nothing a solve leaves in the workspace leaks into
// the next.
TEST(MilpDifferentialTest, ReuseMatchesFreshSolve) {
  constexpr int kPrograms = 200;
  constexpr int kNodes = 12;
  int warm_used = 0;
  int dual_pivots = 0;
  int cold_starts = 0;
  int infeasible = 0;
  for (int p = 0; p < kPrograms; ++p) {
    Rng rng(31000 + static_cast<uint64_t>(p));
    std::vector<int> int_vars;
    const LpModel model = SchedulerShapedProgram(rng, p % 3 == 0, p % 4 == 1, &int_vars);
    LpModel work(model);
    const LpColumnIndex columns(work);
    SimplexWorkspace workspace(work, columns);
    LpBasis previous;
    for (int node = 0; node < kNodes; ++node) {
      for (int v = 0; v < model.num_variables(); ++v) {
        work.SetVariableBounds(v, model.lower(v), model.upper(v));
      }
      const int fixes = static_cast<int>(rng.UniformInt(0, 4));
      for (int f = 0; f < fixes; ++f) {
        const int v = int_vars[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(int_vars.size()) - 1))];
        if (rng.Bernoulli(0.5)) {
          work.SetVariableBounds(v, model.lower(v), 0.0);  // Floor child.
        } else {
          work.SetVariableBounds(v, 1.0, model.upper(v));  // Ceil child.
        }
      }
      SimplexOptions options;
      const int64_t mode = rng.UniformInt(0, 3);
      if (mode == 0 || (mode == 1 && previous.empty())) {
        options.presolve = false;  // Cold, full space.
      } else if (mode == 1) {
        options.presolve = false;  // Warm from the previous node.
        options.start_basis = previous;
      } else if (mode == 2) {
        options.start_basis = previous;  // Presolved (the one-shot path).
      } else {
        options.presolve = false;  // A hint of another model's shape.
        options.start_basis = previous;
        options.start_basis.status.push_back(BasisStatus::kAtLower);
      }
      const std::string where =
          "program " + std::to_string(p) + " node " + std::to_string(node);
      const LpSolution reused = workspace.Solve(options);
      const LpSolution fresh = SolveLp(work, options);
      ExpectSameLp(reused, fresh, where);
      warm_used += reused.stats.warm_basis_used ? 1 : 0;
      dual_pivots += reused.stats.dual_iterations;
      cold_starts += reused.stats.cold_start ? 1 : 0;
      infeasible += reused.status == LpStatus::kInfeasible ? 1 : 0;
      if (!reused.basis.empty()) {
        previous = reused.basis;
      }
    }
  }
  // The sequence must exercise every path.
  EXPECT_GT(warm_used, kPrograms);
  EXPECT_GT(dual_pivots, kPrograms);
  EXPECT_GT(cold_starts, kPrograms);
  EXPECT_GT(infeasible, 0);
}

// A warm dual re-optimization that gives up at the 3m + 200 pivot cap
// restarts cold, and the restart answers exactly as a cold full-space solve
// of the same bounds: the abandoned dual leaves nothing behind. The children
// are the single-fix branches of a tied scheduler-shaped program at eight
// times the usual size, each warm from the root's optimal basis; some of
// them stall (a dual-degenerate streak past m + 200 pivots) on the way.
TEST(MilpDifferentialTest, AbandonedDualReturnsTheColdAnswer) {
  Rng rng(31036);
  std::vector<int> int_vars;
  const LpModel model =
      SchedulerShapedProgram(rng, /*preemption=*/true, /*ties=*/true, &int_vars, /*scale=*/8);
  SimplexOptions cold;
  cold.presolve = false;
  const LpSolution root = SolveLp(model, cold);
  ASSERT_EQ(root.status, LpStatus::kOptimal);
  const int cap = 3 * model.num_rows() + 200;
  LpModel child(model);
  int abandoned = 0;
  int stalled = 0;
  for (const int v : int_vars) {
    for (const double side : {0.0, 1.0}) {
      child.SetVariableBounds(v, side, side);
      SimplexOptions warm = cold;
      warm.start_basis = root.basis;
      const LpSolution got = SolveLp(child, warm);
      if (got.stats.dual_capped) {
        ++abandoned;
        stalled += got.stats.dual_stalled ? 1 : 0;
        const std::string where = "var " + std::to_string(v) + " fixed at " + std::to_string(side);
        EXPECT_TRUE(got.stats.cold_start) << where;
        EXPECT_EQ(got.stats.dual_iterations, cap) << where;
        const LpSolution want = SolveLp(child, cold);
        EXPECT_EQ(got.status, want.status) << where;
        EXPECT_EQ(DoubleBits(got.objective), DoubleBits(want.objective)) << where;
        ASSERT_EQ(got.values.size(), want.values.size()) << where;
        for (size_t j = 0; j < got.values.size(); ++j) {
          EXPECT_EQ(DoubleBits(got.values[j]), DoubleBits(want.values[j])) << where << " var " << j;
        }
        EXPECT_TRUE(got.basis.status == want.basis.status) << where;
      }
      child.SetVariableBounds(v, model.lower(v), model.upper(v));
    }
  }
  EXPECT_GT(abandoned, 0);
  EXPECT_GT(stalled, 0);
}

}  // namespace
}  // namespace threesigma
