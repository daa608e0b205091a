// Differential test layer for the branch-and-bound solver.
//
// Two hundred seeded random 0/1 programs (up to 12 binary variables, mixed
// <= and >= rows, positive and negative objective coefficients) are solved
// by exhaustive 2^n enumeration and by MilpSolver, which must agree on
// feasibility status and optimal objective to 1e-6. A digest over budgeted
// solves pins the node order, and basis warm-starting must never change an
// answer.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <ios>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/solver/lp_model.h"
#include "src/solver/milp.h"

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

}  // namespace
}  // namespace threesigma
