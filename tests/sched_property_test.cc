// Property tests for the scheduling layer around the solver, the valuation
// engine, and the expected-capacity cache:
//   - same-seed simulations at solver_threads 1 vs 4 produce byte-identical
//     decision traces (the worker-pool fan-outs are thread-count invariant
//     through the full scheduler/simulator stack),
//   - expected free capacity is monotone non-increasing in added running
//     load (Eq. 3),
//   - Eq. 2 conditioning yields a valid survival function: 1 − CDF(t)
//     non-increasing in t, within [0, 1], and equal to S(e + t)/S(e),
//   - the incremental cache's delta-updated rows match a from-scratch
//     recompute across a whole simulation (crosscheck mode).

#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/experiment.h"
#include "src/histogram/empirical_distribution.h"
#include "src/predict/predictor.h"
#include "src/sched/distribution_scheduler.h"

namespace threesigma {
namespace {

// ---------------------------------------------------------------------------
// Thread-count determinism through the full stack.

ExperimentConfig PropertyConfig() {
  ExperimentConfig config;
  config.cluster = ClusterConfig::Uniform(4, 16);
  config.workload.duration = Minutes(20.0);
  config.workload.load = 1.3;
  config.workload.model_sample_jobs = 800;
  config.workload.pretrain_jobs = 1000;
  config.workload.seed = 11;
  config.sim.cycle_period = 10.0;
  config.sim.seed = 11;
  config.sched.cycle_period = config.sim.cycle_period;
  // The wall-clock budget is the one non-deterministic input to the solver;
  // the node budget alone keeps the search bounded and reproducible.
  config.sched.solver_time_limit_seconds = 0.0;
  return config;
}

// Serializes everything decision-relevant in a SimResult — job outcomes and
// per-cycle solver/queue/cache counters in simulated time — while excluding
// wall-clock measurements (cycle_seconds, solver_seconds), which legitimately
// vary run to run.
std::string DecisionTrace(const SimResult& result) {
  std::ostringstream os;
  os << std::setprecision(17);
  for (const JobRecord& job : result.jobs) {
    os << "job " << job.spec.id << " s" << static_cast<int>(job.status) << " g" << job.group
       << " " << job.start_time << " " << job.finish_time << " p" << job.preemptions << " w"
       << job.completed_work << " runs";
    for (const JobRun& run : job.runs) {
      os << " [" << run.group << " " << run.start << " " << run.end << " " << run.completed
         << "]";
    }
    os << "\n";
  }
  for (const CycleStats& c : result.cycles) {
    os << "cycle " << c.time << " v" << c.milp_variables << " r" << c.milp_rows << " n"
       << c.milp_nodes << " q" << c.milp_max_queue_depth << " i"
       << c.milp_incumbent_improvements << " h" << c.capacity_cache_hits << " m"
       << c.capacity_cache_misses << " p" << c.pending << " j" << c.running_jobs << " vh"
       << c.valuation_cache_hits << " vm" << c.valuation_cache_misses << " vk"
       << c.valuation_kernel_calls << "\n";
  }
  os << "rejected " << result.rejected_placements << " preempts " << result.total_preemptions
     << " end " << result.end_time << "\n";
  return os.str();
}

TEST(SchedPropertyTest, ThreadCountNeverChangesTheSchedule) {
  ExperimentConfig config = PropertyConfig();
  const GeneratedWorkload workload = GenerateWorkload(config.cluster, config.workload);

  config.sched.solver_threads = 1;
  const SimResult serial = SimulateSystem(SystemKind::kThreeSigma, config, workload);
  config.sched.solver_threads = 4;
  const SimResult parallel = SimulateSystem(SystemKind::kThreeSigma, config, workload);

  // The trace carries the full per-cycle counter stream, valuation
  // hits/misses/kernel calls included: the serial prepare pass and the
  // kernel-call set do not depend on the fan-out width.
  EXPECT_GT(serial.jobs.size(), 0u);
  EXPECT_EQ(DecisionTrace(serial), DecisionTrace(parallel));
  const RunMetrics m = ComputeMetrics(serial, "3Sigma");
  EXPECT_GT(m.valuation_kernel_calls, 0);
  EXPECT_GT(m.valuation_cache_hits, 0) << "table cache never hit";
}

TEST(SchedPropertyTest, BasisWarmstartPreservesThreadCountDeterminism) {
  // The default (warm bases on) is covered above; with basis warm-starting
  // off the same workload completes and the schedule is again thread-count
  // invariant.
  ExperimentConfig config = PropertyConfig();
  const GeneratedWorkload workload = GenerateWorkload(config.cluster, config.workload);
  ASSERT_TRUE(config.sched.solver_basis_warmstart);  // Default-on.
  config.sched.solver_basis_warmstart = false;
  config.sched.solver_threads = 1;
  const SimResult cold_serial = SimulateSystem(SystemKind::kThreeSigma, config, workload);
  config.sched.solver_threads = 4;
  const SimResult cold_parallel = SimulateSystem(SystemKind::kThreeSigma, config, workload);
  EXPECT_GT(cold_serial.jobs.size(), 0u);
  EXPECT_EQ(DecisionTrace(cold_serial), DecisionTrace(cold_parallel));
}

// ---------------------------------------------------------------------------
// Eq. 3 monotonicity: more running load, less expected free capacity.

class UniformPredictor : public RuntimePredictor {
 public:
  RuntimePrediction Predict(const JobFeatures&, double) override {
    RuntimePrediction pred;
    pred.distribution = EmpiricalDistribution::FromUniform(50.0, 450.0, 101);
    pred.point_estimate = pred.distribution.Mean();
    pred.from_history = true;
    return pred;
  }
  void RecordCompletion(const JobFeatures&, double) override {}
};

JobSpec BeJob(JobId id) {
  JobSpec spec;
  spec.id = id;
  spec.type = JobType::kBestEffort;
  spec.submit_time = 0.0;
  spec.true_runtime = 200.0;
  spec.num_tasks = 2;
  spec.utility = UtilityFunction::BestEffortLinear(1.0, 0.0, Hours(2.0));
  spec.features = {"f"};
  return spec;
}

// Expected consumption of group 0 after starting `k` identical jobs on it.
std::vector<double> ConsumedWithLoad(int k) {
  ClusterConfig cluster = ClusterConfig::Uniform(1, 32);
  UniformPredictor predictor;
  DistSchedulerConfig config;
  config.solver_time_limit_seconds = 0.0;
  DistributionScheduler sched(cluster, &predictor, config);

  ClusterStateView view;
  view.cluster = &cluster;
  view.free_nodes = {32 - 2 * k};
  for (int j = 0; j < k; ++j) {
    const JobSpec spec = BeJob(static_cast<JobId>(j + 1));
    sched.OnJobArrival(spec, 0.0);
    sched.OnJobStarted(spec.id, 0, 0.0);
    view.running.push_back(
        RunningJobView{spec.id, 0, 0.0, spec.num_tasks, JobType::kBestEffort});
  }
  sched.RunCycle(5.0, view);
  return sched.expected_consumed()[0];
}

TEST(SchedPropertyTest, ExpectedFreeCapacityMonotoneInLoad) {
  std::vector<double> prev;
  for (int k = 0; k <= 8; k += 2) {
    const std::vector<double> consumed = ConsumedWithLoad(k);
    ASSERT_FALSE(consumed.empty());
    if (!prev.empty()) {
      for (size_t i = 0; i < consumed.size(); ++i) {
        // More running jobs must never increase expected free capacity.
        EXPECT_GE(consumed[i], prev[i] - 1e-9) << "k=" << k << " slot " << i;
      }
    }
    for (double c : consumed) {
      EXPECT_GE(c, -1e-9);  // Survival() carries ~1e-13 float noise past the max.
      EXPECT_LE(c, 32.0 + 1e-9);
    }
    prev = consumed;
  }
}

// ---------------------------------------------------------------------------
// Eq. 2 conditioning produces a valid, correctly-normalized survival curve.

TEST(SchedPropertyTest, ConditionedSurvivalIsMonotoneAndNormalized) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    std::vector<double> samples;
    for (int i = 0; i < 200; ++i) {
      samples.push_back(rng.BoundedPareto(10.0, 5000.0, 1.1));
    }
    const EmpiricalDistribution dist = EmpiricalDistribution::FromSamples(samples);
    const double elapsed = rng.Uniform(0.0, 0.8 * dist.MaxValue());
    const double s_elapsed = dist.Survival(elapsed);
    if (s_elapsed <= 1e-12) {
      continue;
    }
    // The conditional stays in the total-runtime base: its atoms are the
    // original ones with value > elapsed, renormalized.
    const EmpiricalDistribution cond = dist.ConditionalGivenExceeds(elapsed);
    double last = 1.0 + 1e-12;
    for (double t = 0.0; t <= dist.MaxValue() * 1.2; t += dist.MaxValue() / 100.0) {
      const double s = cond.Survival(t);
      // 1 − CDF(t): within [0, 1] (up to float noise) and non-increasing in t.
      EXPECT_GE(s, -1e-9) << "seed " << seed << " t=" << t;
      EXPECT_LE(s, 1.0 + 1e-9) << "seed " << seed << " t=" << t;
      EXPECT_LE(s, last + 1e-9) << "seed " << seed << " t=" << t;
      if (t <= elapsed) {
        // Conditioning on T > elapsed: no mass at or below elapsed.
        EXPECT_NEAR(s, 1.0, 1e-9) << "seed " << seed << " t=" << t;
      } else {
        // Eq. 2: S(t | T > elapsed) = S(t) / S(elapsed).
        EXPECT_NEAR(s, dist.Survival(t) / s_elapsed, 1e-6)
            << "seed " << seed << " t=" << t;
      }
      last = s;
    }
  }
}

// ---------------------------------------------------------------------------
// The incremental cache invariant holds across a whole simulation, and the
// cache actually serves traffic.

TEST(SchedPropertyTest, CapacityCacheCrosscheckCleanOverFullRun) {
  ExperimentConfig config = PropertyConfig();
  const GeneratedWorkload workload = GenerateWorkload(config.cluster, config.workload);
  // Crosscheck mode TS_CHECKs every cycle that delta-updated rows match a
  // from-scratch Eq. 3 recompute; any drift aborts the process. 3Sigma's
  // dense per-feature histograms cross a slot boundary nearly every cycle,
  // so this run exercises the recompute/retire path heavily.
  config.sched.capacity_cache_crosscheck = true;
  const SimResult dist_run = SimulateSystem(SystemKind::kThreeSigma, config, workload);
  const RunMetrics md = ComputeMetrics(dist_run, "3Sigma");
  EXPECT_GT(md.capacity_cache_hits + md.capacity_cache_misses, 0);

  // Point-mass distributions (one atom) have long validity horizons, so the
  // hit path must actually fire there.
  const SimResult point_run = SimulateSystem(SystemKind::kPointRealEst, config, workload);
  const RunMetrics mp = ComputeMetrics(point_run, "PointRealEst");
  EXPECT_GT(mp.capacity_cache_hits, 0) << "cache never hit; horizons are broken";
  EXPECT_GT(mp.capacity_cache_hit_rate, 0.0);
}

// ---------------------------------------------------------------------------
// Valuation engine: the cross-cycle table cache never moves a decision or a
// counter.

TEST(SchedPropertyTest, ValuationCrosscheckCleanOverFullRun) {
  // Crosscheck mode re-derives every kernel and survival answer with the
  // generic per-atom loop and TS_CHECKs bitwise equality; any divergence
  // aborts the process. Run the full stack through it.
  ExperimentConfig config = PropertyConfig();
  const GeneratedWorkload workload = GenerateWorkload(config.cluster, config.workload);
  config.sched.valuation_crosscheck = true;
  const SimResult result = SimulateSystem(SystemKind::kThreeSigma, config, workload);
  const RunMetrics m = ComputeMetrics(result, "3Sigma");
  EXPECT_GT(m.valuation_kernel_calls, 0);
  EXPECT_GT(m.valuation_cache_hits, 0);
  EXPECT_GT(m.valuation_cache_hit_rate, 0.0);
}

}  // namespace
}  // namespace threesigma
