// Golden-trace regression harness.
//
// Each case runs a small, fully deterministic 3Sigma simulation with the
// decision log enabled and diffs the per-cycle decision CSV
// (cycle,sim_time,pending,running,starts,preempts,abandons,deferred) against
// a committed golden in tests/golden/. Any change to scheduling behavior —
// intentional or not — shows up as a per-cycle diff here before it shows up
// as a fuzzy end-metric shift.
//
// Next to each decision CSV sits <case>.counters.txt: the solver's work
// counters from the metrics registry (LP solves, pivots, FTRAN/BTRAN,
// reinversions, warm bases, B&B nodes, greedy rounds, dual pivots, cold
// starts, dual stalls and dual cap hits). They pin the pivot path itself, so
// a solver change that keeps decisions but takes a different pivot sequence
// (a different pricing tie-break, reinversion order, or numerics) fails here
// too. Two cases run with basis warm-starting off, so the presolved one-shot
// LP path is pinned as well as the warm node path.
//
// Updating goldens after an INTENTIONAL scheduling change:
//
//   THREESIGMA_UPDATE_GOLDENS=1 ./build/tests/golden_trace_test
//
// rewrites every golden in the source tree (the GOLDEN_DIR compile
// definition points at tests/golden/); inspect the diff and commit it with
// the change that caused it. A missing golden fails the test rather than
// silently passing — run the update command once when adding a case.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/common/env.h"
#include "src/core/experiment.h"
#include "src/obs/obs.h"
#include "src/snapshot/snapshot_io.h"

namespace threesigma {
namespace {

// Small two-group cluster and a ~6-minute google workload: big enough to
// exercise starts, deferrals, preemptions, and abandonment, small enough to
// keep four runs in the tier-1 budget.
ExperimentConfig BaseConfig() {
  ExperimentConfig config;
  config.cluster = ClusterConfig::Uniform(2, 16);
  config.workload.env = EnvironmentKind::kGoogle;
  config.workload.duration = Minutes(6.0);
  config.workload.load = 1.4;
  config.workload.seed = 7;
  config.sim.cycle_period = 10.0;
  config.sim.seed = 7;
  config.sched.cycle_period = 10.0;
  config.sched.solver_threads = 1;
  config.sched.solver_basis_warmstart = false;
  return config;
}

// Registry counters pinned by <case>.counters.txt, one "name value" line each.
constexpr const char* kPinnedCounters[] = {
    "solver.lp_solves",       "solver.lp_pivots",       "solver.ftran",
    "solver.btran",           "solver.refactorizations", "solver.warm_basis_used",
    "solver.milp_nodes",      "solver.greedy_rounds",   "solver.lp_dual_pivots",
    "solver.lp_cold_starts",  "solver.lp_dual_stalls",  "solver.lp_dual_cap_hits",
};

struct CaseOutput {
  std::string decisions_csv;
  std::string counters;
};

CaseOutput RunCase(const ExperimentConfig& config) {
  obs::ResetAll();
  obs::Options options;
  options.decisions = true;
  obs::Configure(options);
  const GeneratedWorkload workload = GenerateWorkload(config.cluster, config.workload);
  (void)SimulateSystem(SystemKind::kThreeSigma, config, workload);
  CaseOutput out;
  out.decisions_csv = obs::DecisionLog::Global().ToCsvString();
  const std::vector<std::pair<std::string, int64_t>> values =
      obs::MetricsRegistry::Global().CounterValues();
  std::ostringstream counters;
  for (const char* name : kPinnedCounters) {
    int64_t value = 0;
    for (const auto& [key, v] : values) {
      if (key == name) {
        value = v;
      }
    }
    counters << name << " " << value << "\n";
  }
  out.counters = counters.str();
  obs::ResetAll();
  return out;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
  }
  return lines;
}

// A unified-diff excerpt around the first divergence: a few lines of shared
// context, then up to `max_diff_lines` of -golden/+actual pairs. Line-level
// and human-readable, unlike gtest's byte-offset dump of two multi-KB blobs.
std::string UnifiedDiffExcerpt(const std::string& expected, const std::string& actual,
                               size_t max_diff_lines = 10) {
  const std::vector<std::string> golden = SplitLines(expected);
  const std::vector<std::string> got = SplitLines(actual);
  size_t first = 0;
  while (first < golden.size() && first < got.size() && golden[first] == got[first]) {
    ++first;
  }
  const size_t context_start = first >= 3 ? first - 3 : 0;
  const size_t last = std::min({first + max_diff_lines, golden.size(), got.size()});
  std::ostringstream out;
  out << "@@ golden line " << (first + 1) << " (of " << golden.size() << " golden / "
      << got.size() << " actual lines) @@\n";
  for (size_t i = context_start; i < first; ++i) {
    out << "  " << golden[i] << "\n";
  }
  for (size_t i = first; i < last; ++i) {
    if (i < golden.size() && (i >= got.size() || golden[i] != got[i])) {
      out << "- " << golden[i] << "\n";
    }
    if (i < got.size() && (i >= golden.size() || golden[i] != got[i])) {
      out << "+ " << got[i] << "\n";
    }
  }
  if (last < golden.size() || last < got.size()) {
    out << "  ... (" << (std::max(golden.size(), got.size()) - last)
        << " more lines not shown)\n";
  }
  return out.str();
}

// Compares `actual` against the golden file `file` (or rewrites it in update
// mode).
void CheckAgainstGolden(const std::string& file, const std::string& actual) {
  const std::string path = std::string(GOLDEN_DIR) + "/" + file;
  if (GetEnvInt("THREESIGMA_UPDATE_GOLDENS", 0) != 0) {
    std::string error;
    ASSERT_TRUE(WriteFileAtomic(path, actual, &error)) << error;
    std::cout << "updated golden " << path << "\n";
    return;
  }
  std::string expected;
  std::string error;
  ASSERT_TRUE(ReadFileToString(path, &expected, &error))
      << "missing golden '" << path
      << "' — generate it with THREESIGMA_UPDATE_GOLDENS=1 (" << error << ")";
  EXPECT_TRUE(expected == actual)
      << "output drifted from " << path << "\n"
      << UnifiedDiffExcerpt(expected, actual)
      << "if the change is intentional, regenerate and commit the goldens with:\n"
         "  THREESIGMA_UPDATE_GOLDENS=1 ./build/tests/golden_trace_test";
}

void CheckGolden(const std::string& name, const ExperimentConfig& config) {
  const CaseOutput actual = RunCase(config);
  ASSERT_GT(actual.decisions_csv.size(),
            std::string("cycle,sim_time,pending,running,starts,preempts,abandons,deferred\n")
                .size())
      << "decision log came back empty";
  CheckAgainstGolden(name + ".csv", actual.decisions_csv);
  CheckAgainstGolden(name + ".counters.txt", actual.counters);
}

TEST(GoldenTraceTest, Baseline) { CheckGolden("baseline", BaseConfig()); }

TEST(GoldenTraceTest, FaultsOn) {
  ExperimentConfig config = BaseConfig();
  config.sim.faults.node_mttf = 1500.0;
  config.sim.faults.node_mttr = 600.0;
  config.sim.faults.task_kill_prob = 0.05;
  config.sim.faults.seed = 1;
  CheckGolden("faults_on", config);
}

TEST(GoldenTraceTest, WarmStartFourThreads) {
  ExperimentConfig config = BaseConfig();
  config.sched.solver_basis_warmstart = true;
  config.sched.solver_threads = 4;
  CheckGolden("warm_start_4threads", config);
}

// The utility-greedy ablation backend (abl06): same valued options, packed
// job by job instead of solved as a MILP, so its solver counters stay zero.
TEST(GoldenTraceTest, GreedyBackend) {
  ExperimentConfig config = BaseConfig();
  config.sched.backend = SolverBackend::kGreedy;
  CheckGolden("greedy_backend", config);
}

// Fig. 12's GOOGLE-scale shape (8 x 1573 nodes, 4,000 jobs/h at load 0.95,
// 96-job MILPs, basis warm-starting on) with no solver time limit, so no
// wall clock enters. 9 minutes is the shortest whole-minute window whose
// branch-and-bound reaches the dual simplex's stall path: warm child LPs
// stuck on a dual-degenerate vertex that run to the pivot cap and restart
// cold.
TEST(GoldenTraceTest, Fig12Shaped) {
  ExperimentConfig config = BaseConfig();
  config.cluster = ClusterConfig::Uniform(8, 1573);
  config.workload.duration = Minutes(9.0);
  config.workload.load = 0.95;
  config.workload.fixed_job_count = 4000 * 9 / 60;
  config.sched.max_pending_considered = 96;
  config.sched.solver_basis_warmstart = true;
  config.sched.solver_time_limit_seconds = 0.0;
  CheckGolden("fig12_shaped", config);
}

}  // namespace
}  // namespace threesigma
