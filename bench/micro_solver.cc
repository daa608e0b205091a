// Solver micro-benchmarks (google-benchmark): simplex scaling with problem
// size, branch-and-bound on scheduler-shaped binary programs, and the
// §4.3.6 warm-start ablation.

#include <benchmark/benchmark.h>

#include <cstdint>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/obs/registry.h"
#include "src/solver/lp_model.h"
#include "src/solver/milp.h"
#include "src/solver/simplex.h"

namespace threesigma {
namespace {

// A scheduler-shaped model: `jobs` jobs x `options_per_job` binary options,
// at-most-one demand rows, `capacity_rows` shared <= rows.
LpModel SchedulerShapedModel(int jobs, int options_per_job, int capacity_rows, Rng& rng,
                             std::vector<int>* int_vars) {
  LpModel model;
  std::vector<std::vector<LpTerm>> capacity(capacity_rows);
  for (int j = 0; j < jobs; ++j) {
    std::vector<LpTerm> demand;
    for (int o = 0; o < options_per_job; ++o) {
      const int var = model.AddVariable(0.0, 1.0, rng.Uniform(0.1, 10.0));
      int_vars->push_back(var);
      demand.push_back({var, 1.0});
      for (int c = 0; c < capacity_rows; ++c) {
        if (rng.Bernoulli(0.4)) {
          capacity[c].push_back({var, rng.Uniform(0.5, 4.0)});
        }
      }
    }
    model.AddRow(RowSense::kLessEqual, 1.0, std::move(demand));
  }
  for (int c = 0; c < capacity_rows; ++c) {
    model.AddRow(RowSense::kLessEqual, rng.Uniform(4.0, 16.0), std::move(capacity[c]));
  }
  return model;
}

// Outcomes of warm dual re-optimizations over one benchmark loop, read as
// deltas of the LP registry counters and reported per replay:
//   dual_stalls  — dual runs with more than m + 200 degenerate pivots in a row
//   dual_caps    — dual runs that hit the 3m + 200 pivot cap
//   dual_wasted  — dual pivots of runs that then restarted cold
class DualOutcomes {
 public:
  DualOutcomes() : start_(Read()) {}

  void Report(benchmark::State& state, double replays) const {
    const Totals end = Read();
    state.counters["dual_stalls"] = static_cast<double>(end.stalls - start_.stalls) / replays;
    state.counters["dual_caps"] = static_cast<double>(end.caps - start_.caps) / replays;
    state.counters["dual_wasted"] = static_cast<double>(end.wasted - start_.wasted) / replays;
  }

 private:
  struct Totals {
    int64_t stalls, caps, wasted;
  };
  static Totals Read() {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    return Totals{reg.GetCounter("solver.lp_dual_stalls")->Value(),
                  reg.GetCounter("solver.lp_dual_cap_hits")->Value(),
                  reg.GetCounter("solver.lp_dual_wasted_pivots")->Value()};
  }

  Totals start_;
};

void BM_SimplexSchedulerShaped(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  Rng rng(42);
  std::vector<int> int_vars;
  const LpModel model = SchedulerShapedModel(jobs, 12, 24, rng, &int_vars);
  for (auto _ : state) {
    const LpSolution sol = SolveLp(model);
    benchmark::DoNotOptimize(sol.objective);
  }
  state.counters["vars"] = model.num_variables();
  state.counters["rows"] = model.num_rows();
}
BENCHMARK(BM_SimplexSchedulerShaped)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_MilpSchedulerShaped(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  Rng rng(42);
  std::vector<int> int_vars;
  const LpModel model = SchedulerShapedModel(jobs, 12, 24, rng, &int_vars);
  MilpOptions options;
  options.max_nodes = 6;
  options.time_limit_seconds = 0.1;
  for (auto _ : state) {
    MilpSolver solver(model, int_vars);
    const MilpSolution sol = solver.Solve(options);
    benchmark::DoNotOptimize(sol.objective);
  }
}
BENCHMARK(BM_MilpSchedulerShaped)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

// Warm-start ablation: solving with the previous solution as the incumbent
// vs from scratch (the paper's primary scalability optimization).
void BM_MilpWarmStart(benchmark::State& state) {
  const bool warm = state.range(0) != 0;
  Rng rng(42);
  std::vector<int> int_vars;
  const LpModel model = SchedulerShapedModel(32, 12, 24, rng, &int_vars);
  MilpSolver solver(model, int_vars);
  MilpOptions cold;
  cold.max_nodes = 40;
  const MilpSolution reference = solver.Solve(cold);
  MilpOptions options;
  options.max_nodes = 40;
  if (warm) {
    options.warm_start = reference.values;
  }
  for (auto _ : state) {
    MilpSolver s(model, int_vars);
    const MilpSolution sol = s.Solve(options);
    benchmark::DoNotOptimize(sol.objective);
  }
  state.SetLabel(warm ? "warm-start" : "cold");
}
BENCHMARK(BM_MilpWarmStart)->Arg(0)->Arg(1);

// Basis warm-starting ablation on the branch-and-bound node stream: every
// child re-optimizes from its parent's basis with a handful of dual pivots
// instead of a cold Phase-1/Phase-2 solve. Arg(1) = warm, Arg(0) = cold;
// THREESIGMA_SOLVER_WARMSTART=0 forces the cold path for A/B runs without
// recompiling. Reported counters:
//   pivots/s       — total simplex pivots (phase 1 + phase 2 + dual) per sec
//   lp_iters       — mean total pivots per node-stream replay
//   ftran, btran   — sparse eta-file solves per replay
//   refactor       — basis reinversions per replay
//   dual/warmnode  — mean dual pivots per warm-started node
//   greedy         — mean greedy rounding passes per replay
//   greedy_inc     — mean greedy passes per replay that replaced the incumbent
//   dual_*         — dual-outcome counters per replay (see DualOutcomes)
void BM_BnbNodeStreamBasis(benchmark::State& state) {
  const bool warm = state.range(0) != 0 && SolverWarmstartEnv();
  Rng rng(515);
  std::vector<int> int_vars;
  const LpModel model = SchedulerShapedModel(24, 3, 8, rng, &int_vars);
  MilpOptions options;
  options.basis_warmstart = warm;
  options.max_nodes = 200;
  int64_t pivots = 0, ftran = 0, btran = 0, refactor = 0;
  int64_t dual = 0, warm_nodes = 0, replays = 0;
  int64_t greedy_rounds = 0, greedy_incumbents = 0;
  const DualOutcomes outcomes;
  for (auto _ : state) {
    MilpSolver solver(model, int_vars);
    const MilpSolution sol = solver.Solve(options);
    pivots += sol.lp_iterations;
    ftran += sol.ftran_count;
    btran += sol.btran_count;
    refactor += sol.refactorizations;
    dual += sol.lp_dual_iterations;
    warm_nodes += sol.warm_started_nodes;
    greedy_rounds += sol.greedy_rounds;
    greedy_incumbents += sol.greedy_incumbents;
    ++replays;
    benchmark::DoNotOptimize(sol.objective);
  }
  const double n = static_cast<double>(replays);
  state.counters["pivots/s"] =
      benchmark::Counter(static_cast<double>(pivots), benchmark::Counter::kIsRate);
  state.counters["lp_iters"] = static_cast<double>(pivots) / n;
  state.counters["ftran"] = static_cast<double>(ftran) / n;
  state.counters["btran"] = static_cast<double>(btran) / n;
  state.counters["refactor"] = static_cast<double>(refactor) / n;
  state.counters["dual/warmnode"] =
      warm_nodes > 0 ? static_cast<double>(dual) / static_cast<double>(warm_nodes) : 0.0;
  state.counters["greedy"] = static_cast<double>(greedy_rounds) / n;
  state.counters["greedy_inc"] = static_cast<double>(greedy_incumbents) / n;
  outcomes.Report(state, n);
  state.SetLabel(warm ? "warm-basis" : "cold-basis");
}
BENCHMARK(BM_BnbNodeStreamBasis)->Arg(0)->Arg(1);

// Branch-and-bound node throughput at the scheduler's default budget of 6
// nodes on a SchedulerShapedModel(jobs, options_per_job, 24 capacity rows).
//   nodes/s  — branch-and-bound nodes per second
//   greedy   — greedy rounding passes per solve
//   dual_*   — dual-outcome counters per solve (see DualOutcomes)
void BnbNodeThroughput(benchmark::State& state, int jobs, int options_per_job) {
  Rng rng(42);
  std::vector<int> int_vars;
  const LpModel model = SchedulerShapedModel(jobs, options_per_job, 24, rng, &int_vars);
  MilpOptions options;
  options.max_nodes = 6;
  int64_t nodes = 0, greedy_rounds = 0, replays = 0;
  const DualOutcomes outcomes;
  for (auto _ : state) {
    MilpSolver solver(model, int_vars);
    const MilpSolution sol = solver.Solve(options);
    nodes += sol.nodes_explored;
    greedy_rounds += sol.greedy_rounds;
    ++replays;
    benchmark::DoNotOptimize(sol.objective);
  }
  state.counters["nodes/s"] =
      benchmark::Counter(static_cast<double>(nodes), benchmark::Counter::kIsRate);
  state.counters["greedy"] = static_cast<double>(greedy_rounds) / static_cast<double>(replays);
  outcomes.Report(state, static_cast<double>(replays));
  state.counters["vars"] = model.num_variables();
  state.counters["rows"] = model.num_rows();
}

// The shape of a fig06 cycle's MILP: 48 jobs x 24 options (~1,150 binaries x
// 72 rows). At this size per-node work that scales with the variable count
// (greedy rounding, branching-variable scans) shows next to the LPs.
void BM_BnbNodeThroughputFig06(benchmark::State& state) { BnbNodeThroughput(state, 48, 24); }
BENCHMARK(BM_BnbNodeThroughputFig06);

// The shape of a Fig. 12 cycle's MILP (96-job cap): 96 jobs x 16 options
// (~1,500 binaries x 120 rows), where node LPs dominate the solve.
void BM_BnbNodeThroughputFig12(benchmark::State& state) { BnbNodeThroughput(state, 96, 16); }
BENCHMARK(BM_BnbNodeThroughputFig12);

void BM_SimplexDense(benchmark::State& state) {
  // Dense random LP: stresses pricing and the basis inverse.
  const int n = static_cast<int>(state.range(0));
  Rng rng(7);
  LpModel model;
  for (int i = 0; i < n; ++i) {
    model.AddVariable(0.0, 1.0, rng.Uniform(-1.0, 5.0));
  }
  for (int r = 0; r < n / 2; ++r) {
    std::vector<LpTerm> terms;
    for (int i = 0; i < n; ++i) {
      terms.push_back({i, rng.Uniform(0.0, 2.0)});
    }
    model.AddRow(RowSense::kLessEqual, rng.Uniform(1.0, n / 4.0), std::move(terms));
  }
  for (auto _ : state) {
    const LpSolution sol = SolveLp(model);
    benchmark::DoNotOptimize(sol.objective);
  }
}
BENCHMARK(BM_SimplexDense)->Arg(16)->Arg(64)->Arg(128);

}  // namespace
}  // namespace threesigma

BENCHMARK_MAIN();
