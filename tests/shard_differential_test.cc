// Differential test layer for the shard-decomposed MILP solve.
//
// Two hundred seeded random 0/1 placement programs with varying component
// structure — fully separable multi-block, fully connected via coupling
// rows, and interleaved variable orders — are solved monolithically
// (MilpSolver) and sharded (SolveShardedMilp, at 1 and 4 threads).
// Components share no variables or rows, so the sharded solve is exact: the
// merged objective must equal the monolithic one *bitwise* (the merge
// recomputes it through the full model's accumulation order), and because
// the continuous random objective coefficients make the binary optimum
// unique almost surely, the solution vectors must match exactly too.
//
// All solves here are unbudgeted: each shard receives the full node budget,
// so a binding budget truncates the sharded and monolithic searches at
// different points by design (see sharded_milp.h).

#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/solver/lp_model.h"
#include "src/solver/milp.h"
#include "src/solver/sharded_milp.h"

namespace threesigma {
namespace {

// A random 0/1 program built from `blocks` independent sub-programs whose
// variables are created round-robin (block b owns global vars b, b+blocks,
// b+2*blocks, ...), so shards are interleaved in the global index order and
// the scatter/gather paths are genuinely exercised. With probability 0.2 a
// single coupling row spanning one variable of every block collapses the
// program to one component.
LpModel RandomShardedProgram(Rng& rng, std::vector<int>* int_vars, bool* coupled) {
  const int blocks = static_cast<int>(rng.UniformInt(1, 5));
  const int vars_per_block = static_cast<int>(rng.UniformInt(2, 5));
  const int n = blocks * vars_per_block;
  LpModel model;
  for (int v = 0; v < n; ++v) {
    int_vars->push_back(model.AddVariable(0.0, 1.0, rng.Uniform(-4.0, 10.0)));
  }
  for (int b = 0; b < blocks; ++b) {
    const int rows = static_cast<int>(rng.UniformInt(1, 4));
    for (int r = 0; r < rows; ++r) {
      std::vector<LpTerm> terms;
      for (int i = 0; i < vars_per_block; ++i) {
        if (rng.Bernoulli(0.6)) {
          terms.push_back({b + i * blocks, rng.Uniform(-2.0, 4.0)});
        }
      }
      if (terms.empty()) {
        terms.push_back({b + static_cast<int>(rng.UniformInt(0, vars_per_block - 1)) * blocks,
                         1.0});
      }
      if (rng.Bernoulli(0.1)) {
        // A >= row; a tight rhs sometimes makes a block (and therefore the
        // whole program) infeasible, which both paths must agree on.
        model.AddRow(RowSense::kGreaterEqual, rng.Uniform(0.0, 3.0), std::move(terms));
      } else {
        model.AddRow(RowSense::kLessEqual, rng.Uniform(0.5, 6.0), std::move(terms));
      }
    }
  }
  *coupled = rng.Bernoulli(0.2);
  if (*coupled && blocks > 1) {
    std::vector<LpTerm> coupling;
    for (int b = 0; b < blocks; ++b) {
      coupling.push_back({b, rng.Uniform(0.5, 2.0)});
    }
    model.AddRow(RowSense::kLessEqual, rng.Uniform(1.0, 6.0), std::move(coupling));
  }
  return model;
}

TEST(ShardDifferentialTest, MatchesMonolithicBitwiseAt1And4Threads) {
  constexpr int kPrograms = 200;
  ThreadPool pool(4);
  int infeasible_seen = 0;
  int multi_shard_seen = 0;
  int single_shard_seen = 0;
  for (int p = 0; p < kPrograms; ++p) {
    Rng rng(3000 + static_cast<uint64_t>(p));
    std::vector<int> int_vars;
    bool coupled = false;
    const LpModel model = RandomShardedProgram(rng, &int_vars, &coupled);

    // Unbudgeted monolithic reference.
    MilpSolver mono_solver(model, int_vars);
    const MilpSolution mono = mono_solver.Solve(MilpOptions{});

    ShardedMilpOptions serial;
    ShardedMilpOptions parallel;
    parallel.pool = &pool;
    const ShardedMilpSolution sh1 = SolveShardedMilp(model, int_vars, serial);
    const ShardedMilpSolution sh4 = SolveShardedMilp(model, int_vars, parallel);

    EXPECT_GE(sh1.num_shards, 1) << "program " << p;
    if (sh1.num_shards > 1) {
      ++multi_shard_seen;
    } else {
      ++single_shard_seen;
    }

    // Sharded solves are exactly identical at any thread count.
    EXPECT_EQ(sh1.num_shards, sh4.num_shards) << "program " << p;
    EXPECT_EQ(sh1.merged.status, sh4.merged.status) << "program " << p;
    EXPECT_EQ(sh1.merged.values, sh4.merged.values) << "program " << p;
    EXPECT_EQ(sh1.merged.nodes_explored, sh4.merged.nodes_explored) << "program " << p;
    EXPECT_EQ(sh1.merged.lp_iterations, sh4.merged.lp_iterations) << "program " << p;

    EXPECT_EQ(mono.status, sh1.merged.status) << "program " << p;
    if (mono.status == MilpStatus::kInfeasible) {
      ++infeasible_seen;
      continue;
    }
    ASSERT_EQ(mono.status, MilpStatus::kOptimal) << "program " << p;
    // Bitwise objective identity: same optimum vector, same full-model
    // accumulation order — EXPECT_EQ, not EXPECT_NEAR.
    EXPECT_EQ(mono.objective, sh1.merged.objective) << "program " << p;
    EXPECT_EQ(mono.values, sh1.merged.values) << "program " << p;
    EXPECT_TRUE(model.IsFeasible(sh1.merged.values)) << "program " << p;
    for (double v : sh1.merged.values) {
      EXPECT_NEAR(v, std::round(v), 1e-6) << "program " << p;
    }
  }
  // The sweep must exercise every structural regime, not trivially agree.
  EXPECT_GT(infeasible_seen, 0);
  EXPECT_LT(infeasible_seen, kPrograms / 2);
  EXPECT_GT(multi_shard_seen, 0);
  EXPECT_GT(single_shard_seen, 0);
}

// Structural checks on the decomposition itself: separable blocks become
// shards ordered by smallest member variable, with ascending interleaved
// variable lists; a coupling row collapses everything to one shard.
TEST(ShardDifferentialTest, DecompositionFindsComponents) {
  // Two blocks over interleaved vars {0,2} and {1,3}, each internally
  // connected by one row.
  LpModel model;
  std::vector<int> int_vars;
  for (int v = 0; v < 4; ++v) {
    int_vars.push_back(model.AddVariable(0.0, 1.0, 1.0 + v));
  }
  model.AddRow(RowSense::kLessEqual, 1.0, {{0, 1.0}, {2, 1.0}});
  model.AddRow(RowSense::kLessEqual, 1.0, {{1, 1.0}, {3, 1.0}});

  const ShardDecomposition dec = DecomposeMilp(model, int_vars);
  ASSERT_EQ(dec.shards.size(), 2u);
  EXPECT_FALSE(dec.trivially_infeasible);
  EXPECT_EQ(dec.shards[0].vars, (std::vector<int>{0, 2}));
  EXPECT_EQ(dec.shards[1].vars, (std::vector<int>{1, 3}));
  EXPECT_EQ(dec.shards[0].rows, (std::vector<int>{0}));
  EXPECT_EQ(dec.shards[1].rows, (std::vector<int>{1}));
  EXPECT_EQ(dec.shards[0].model.num_variables(), 2);
  EXPECT_EQ(dec.shards[0].model.num_rows(), 1);
  // Identical structure, different coefficients: the structural fingerprints
  // collide by design (coefficients are excluded so drifting utilities still
  // reuse bases).
  EXPECT_EQ(dec.shards[0].fingerprint, dec.shards[1].fingerprint);

  // A coupling row merges the components.
  model.AddRow(RowSense::kLessEqual, 2.0, {{0, 1.0}, {1, 1.0}});
  const ShardDecomposition merged = DecomposeMilp(model, int_vars);
  ASSERT_EQ(merged.shards.size(), 1u);
  EXPECT_EQ(merged.shards[0].vars, (std::vector<int>{0, 1, 2, 3}));
}

// Row-free variables form singleton shards and still land at their globally
// optimal bound in the merged solution.
TEST(ShardDifferentialTest, RowFreeVariablesBecomeSingletonShards) {
  LpModel model;
  std::vector<int> int_vars;
  int_vars.push_back(model.AddVariable(0.0, 1.0, 2.5));   // Free, positive obj.
  int_vars.push_back(model.AddVariable(0.0, 1.0, -1.5));  // Free, negative obj.
  int_vars.push_back(model.AddVariable(0.0, 1.0, 3.0));
  int_vars.push_back(model.AddVariable(0.0, 1.0, 1.0));
  model.AddRow(RowSense::kLessEqual, 1.0, {{2, 1.0}, {3, 1.0}});

  const ShardDecomposition dec = DecomposeMilp(model, int_vars);
  ASSERT_EQ(dec.shards.size(), 3u);

  MilpSolver mono_solver(model, int_vars);
  const MilpSolution mono = mono_solver.Solve(MilpOptions{});
  const ShardedMilpSolution sharded = SolveShardedMilp(model, int_vars, ShardedMilpOptions{});
  ASSERT_EQ(mono.status, MilpStatus::kOptimal);
  ASSERT_EQ(sharded.merged.status, MilpStatus::kOptimal);
  EXPECT_EQ(mono.objective, sharded.merged.objective);
  EXPECT_EQ(mono.values, sharded.merged.values);
  EXPECT_EQ(sharded.num_shards, 3);
  EXPECT_EQ(sharded.max_shard_vars, 2);
  EXPECT_EQ(sharded.min_shard_vars, 1);
}

// An unsatisfiable zero-term row (possible through the general AddRow API
// when every coefficient coalesces to zero) makes the program infeasible
// before any shard is solved — matching the monolithic verdict.
TEST(ShardDifferentialTest, InconsistentZeroTermRowIsInfeasible) {
  LpModel model;
  std::vector<int> int_vars;
  int_vars.push_back(model.AddVariable(0.0, 1.0, 1.0));
  // x - x >= 2: coalesces to an empty row with rhs 2.
  model.AddRow(RowSense::kGreaterEqual, 2.0, {{0, 1.0}, {0, -1.0}});

  const ShardDecomposition dec = DecomposeMilp(model, int_vars);
  EXPECT_TRUE(dec.trivially_infeasible);
  const ShardedMilpSolution sharded = SolveShardedMilp(model, int_vars, ShardedMilpOptions{});
  EXPECT_EQ(sharded.merged.status, MilpStatus::kInfeasible);

  // A *consistent* zero-term row is dropped and changes nothing.
  LpModel ok;
  std::vector<int> ok_vars;
  ok_vars.push_back(ok.AddVariable(0.0, 1.0, 1.0));
  ok.AddRow(RowSense::kLessEqual, 2.0, {{0, 1.0}, {0, -1.0}});
  const ShardedMilpSolution fine = SolveShardedMilp(ok, ok_vars, ShardedMilpOptions{});
  EXPECT_EQ(fine.merged.status, MilpStatus::kOptimal);
  EXPECT_EQ(fine.merged.values, (std::vector<double>{1.0}));
}

// The monolithic optimum, sliced per shard as a warm start, must survive the
// sharded solve: every shard accepts its slice and the merged solution
// reports warm_start_returned.
TEST(ShardDifferentialTest, WarmStartSlicesAcrossShards) {
  ThreadPool pool(4);
  int warm_returned = 0;
  for (int p = 0; p < 40; ++p) {
    Rng rng(3000 + static_cast<uint64_t>(p));
    std::vector<int> int_vars;
    bool coupled = false;
    const LpModel model = RandomShardedProgram(rng, &int_vars, &coupled);
    MilpSolver mono_solver(model, int_vars);
    const MilpSolution mono = mono_solver.Solve(MilpOptions{});
    if (mono.status != MilpStatus::kOptimal) {
      continue;
    }
    ShardedMilpOptions options;
    options.base.warm_start = mono.values;
    options.pool = &pool;
    const ShardedMilpSolution sharded = SolveShardedMilp(model, int_vars, options);
    ASSERT_EQ(sharded.merged.status, MilpStatus::kOptimal) << "program " << p;
    EXPECT_EQ(sharded.merged.objective, mono.objective) << "program " << p;
    EXPECT_EQ(sharded.merged.values, mono.values) << "program " << p;
    if (sharded.merged.warm_start_returned) {
      ++warm_returned;
    }
  }
  EXPECT_GT(warm_returned, 0);
}

// The fingerprint-keyed basis map is a pure accelerator: re-solving with the
// bases captured by a first pass returns the identical answer, and the map
// is actually populated and consulted.
TEST(ShardDifferentialTest, ShardBasisMapNeverChangesTheAnswer) {
  ThreadPool pool(4);
  int map_hits_possible = 0;
  for (int p = 0; p < 60; ++p) {
    Rng rng(7000 + static_cast<uint64_t>(p));
    std::vector<int> int_vars;
    bool coupled = false;
    const LpModel model = RandomShardedProgram(rng, &int_vars, &coupled);

    std::map<uint64_t, LpBasis> bases;
    ShardedMilpOptions options;
    options.pool = &pool;
    options.shard_bases = &bases;
    const ShardedMilpSolution first = SolveShardedMilp(model, int_vars, options);
    if (first.merged.status == MilpStatus::kInfeasible) {
      continue;
    }
    EXPECT_FALSE(bases.empty()) << "program " << p;
    ++map_hits_possible;
    const ShardedMilpSolution second = SolveShardedMilp(model, int_vars, options);
    EXPECT_EQ(first.merged.status, second.merged.status) << "program " << p;
    EXPECT_EQ(first.merged.objective, second.merged.objective) << "program " << p;
    EXPECT_EQ(first.merged.values, second.merged.values) << "program " << p;
  }
  EXPECT_GT(map_hits_possible, 0);
}

}  // namespace
}  // namespace threesigma
