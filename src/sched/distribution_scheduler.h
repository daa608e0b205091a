// 3σSched — distribution-based MILP scheduling (§3, §4.2, §4.3).
//
// One configurable class covers six of the paper's seven systems (Table 1 +
// the Fig. 8 ablations); only Prio lives elsewhere:
//
//   system         use_distribution  overestimate_handling  adaptive_oe  predictor
//   3Sigma         yes               yes                    yes          3σPredict
//   3SigmaNoDist   no (points)       yes                    yes          3σPredict
//   3SigmaNoOE     yes               no                     —            3σPredict
//   3SigmaNoAdapt  yes               yes                    no (always)  3σPredict
//   PointPerfEst   no (points)       no                     —            oracle
//   PointRealEst   no (points)       no                     —            3σPredict
//
// Each cycle the scheduler:
//   1. conditions every running job's distribution on its elapsed time
//      (Eq. 2) and applies exponential under-estimate extension once a job
//      outruns its entire history (§4.2.1),
//   2. computes expected free capacity per (group, time slot) as capacity
//      minus Σ k·(1 − CDF) over running jobs (Eq. 3),
//   3. enumerates placement options (group × start slot) per pending job and
//      values each by expected utility (Eq. 1), with the §4.2.2/§4.2.3
//      over-estimate utility extension where enabled,
//   4. compiles options into a 0/1 MILP with at-most-one demand rows,
//      expected-capacity rows, and preemption credit terms (§4.3.5),
//   5. solves with warm start + time/node budget and executes slot-0 starts.

#ifndef SRC_SCHED_DISTRIBUTION_SCHEDULER_H_
#define SRC_SCHED_DISTRIBUTION_SCHEDULER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/cluster/job.h"
#include "src/common/thread_pool.h"
#include "src/histogram/empirical_distribution.h"
#include "src/predict/predictor.h"
#include "src/sched/scheduler.h"
#include "src/sched/valuation.h"
#include "src/solver/lp_model.h"
#include "src/solver/simplex.h"

namespace threesigma {

// How the aggregate placement problem is solved each cycle.
enum class SolverBackend {
  kMilp,    // §4.3: compile to a 0/1 MILP, branch-and-bound (the paper).
  kGreedy,  // Ablation: utility-greedy packing over the same valued options
            // (no joint optimization, no preemption).
};

struct DistSchedulerConfig {
  std::string name = "3Sigma";
  SolverBackend backend = SolverBackend::kMilp;

  // Core policy toggles (see table above).
  bool use_distribution = true;
  bool overestimate_handling = true;
  bool adaptive_oe = true;
  // §4.2.3: enable OE handling when P(T <= deadline window) is below this.
  double oe_probability_threshold = 0.05;

  // §4.3.5 preemption of running best-effort jobs.
  bool enable_preemption = true;
  // Preemption cost as a fraction of the victim's peak utility.
  double preemption_cost_factor = 0.5;

  // Plan-ahead window (§4.3.3) and its start-slot discretization.
  Duration planahead = 1200.0;
  int num_start_slots = 6;
  // Scheduling period; also the unit of the exponential under-estimate
  // increments (§4.2.1).
  Duration cycle_period = 10.0;

  // Solver budgets (§4.3.6: "best solution found within a configurable
  // fraction of its scheduling interval").
  double solver_time_limit_seconds = 0.1;
  int solver_max_nodes = 6;

  // At most this many pending jobs enter one MILP (SLO-deadline order first);
  // the remainder waits for a later cycle.
  int max_pending_considered = 48;

  // Cycles re-solve only when state changed (arrival/completion/preemption),
  // a planned deferred start comes due, or this much time passed since the
  // last solve (expected capacity drifts as conditional distributions age).
  Duration max_solve_skip = 30.0;

  // Size of the scheduler's worker pool (1 = no pool). It runs the per-job
  // valuation fan-out, and the digital twin borrows it for scenario sweeps
  // (each fork's own scheduler is serial). Branch-and-bound itself is
  // serial. Decisions are byte-identical at any value.
  int solver_threads = 1;

  // Debug mode for the incremental Eq. 3 capacity rows (see consumed_):
  // after every delta update, recompute all rows from scratch and TS_CHECK
  // the delta-updated values match. Costs the full recompute the
  // incremental rows save; tests only.
  bool capacity_cache_crosscheck = false;

  // Simplex basis warm-starting (MilpOptions::basis_warmstart): B&B children
  // re-optimize from their parent's basis via dual pivots, and the previous
  // cycle's root basis seeds the next cycle's root relaxation. Affects LP
  // pivot counts only.
  bool solver_basis_warmstart = true;

  // Debug mode for the Eq. 1 valuation engine (src/sched/valuation.h):
  // every kernel and survival answer is re-derived with the generic
  // per-atom loop and TS_CHECKed for bitwise equality. Costs what the
  // kernels save; tests only.
  bool valuation_crosscheck = false;
};

class DistributionScheduler : public Scheduler {
 public:
  // `predictor` must outlive the scheduler.
  DistributionScheduler(const ClusterConfig& cluster, RuntimePredictor* predictor,
                        DistSchedulerConfig config);

  void OnJobArrival(const JobSpec& spec, Time now) override;
  void OnJobStarted(JobId id, int group, Time now) override;
  void OnJobFinished(JobId id, Time now, Duration observed_runtime) override;
  void OnJobPreempted(JobId id, Time now) override;
  // Fault recovery (§4.2 applied to restarts): requeues like a preemption,
  // then (a) bumps the attempt count and re-predicts with an "attempts=k"
  // feature so restarted jobs build their own history population, and (b)
  // treats the restart as a likely mis-estimate — the original estimate
  // ignores the lost work — enabling the over-estimate utility decay.
  void OnJobFaultKilled(JobId id, Time now) override;
  // Online cancellation: drops the pending job like an abandonment (it never
  // ran, so there is no capacity contribution to retire).
  void OnJobCancelled(JobId id, Time now) override;
  // Node crash/repair: invalidates the solve-skip plan cache (the previous
  // plan was drawn against stale capacity, so the next cycle must re-solve).
  void OnCapacityChanged(int group, int available_nodes, Time now) override;
  CycleResult RunCycle(Time now, const ClusterStateView& state) override;
  std::string name() const override { return config_.name; }

  // Checkpointing: serializes the full scheduler state (job table with
  // conditioned distributions and cached survival vectors, pending order,
  // solve-skip state, consumed_ rows, last_root_basis_, and
  // the valuation engine's cached keys) into a "sched" section, then the
  // predictor into a "predict" section.
  // RestoreState requires a scheduler constructed with the same config and
  // predictor graph; the cluster shape is validated via consumed_ geometry.
  void SaveState(SnapshotWriter& writer) const override;
  void RestoreState(SnapshotReader& reader) override;

  // Replaces the policy configuration of a live scheduler at a cycle
  // boundary (digital-twin scenario overrides and opt-in advisor
  // auto-apply). The job table survives; derived per-job state is rebuilt
  // under the new policy: sched_dist is re-predicted when use_distribution
  // flips, the OE decay gate is re-evaluated for every job, and the
  // expected-capacity rows, valuation tables, solve-skip plan, and warm-start
  // basis are all reset (they encode the old policy). The cluster and
  // predictor are unchanged; `config.name` is adopted as-is. The worker pool
  // is sized at construction, so `config.solver_threads` must not change.
  void UpdateConfig(const DistSchedulerConfig& config);

  // The shared solver pool (null when solver_threads <= 1). The digital-twin
  // engine borrows it for the scenario fan-out while the live cycle is
  // parked; ParallelFor is one-at-a-time, so the borrow must not overlap a
  // running cycle.
  ThreadPool* solver_pool() const { return pool_.get(); }

  // Diagnostics.
  int pending_count() const { return static_cast<int>(pending_.size()); }
  const DistSchedulerConfig& config() const { return config_; }
  // Eq. 3 running-job consumption per (group, slot) as of the last full
  // cycle: expected free capacity is node_count − expected_consumed()[g][i].
  const std::vector<std::vector<double>>& expected_consumed() const { return consumed_; }

 private:
  struct JobInfo {
    JobSpec spec;
    // Distribution actually used for scheduling: the predictor's histogram
    // distribution, or a point mass in NoDist/point modes.
    EmpiricalDistribution sched_dist;
    double point_estimate = 0.0;
    bool oe_enabled = false;
    UtilityFunction effective_utility = UtilityFunction::BestEffortLinear(1.0, 0.0, 1.0);

    // Fault restarts of this job so far; > 0 appends an "attempts=k" feature
    // to record_features so the predictor's history keys on attempt counts.
    int attempts = 0;
    // Features used for re-prediction and completion recording (spec.features
    // until the first fault restart).
    JobFeatures record_features;

    bool running = false;
    int group = -1;
    Time start_time = kNever;

    // §4.2.1 exponential under-estimate extension state.
    int underest_level = -1;     // -1: not yet past the max observed runtime.
    Time underest_finish = kNever;

    // Warm-start memory: last cycle's planned option.
    int planned_group = -1;
    Time planned_start = kNever;

    // Expected-capacity cache entry: this job's per-slot survival vector,
    // exact for any cycle time in [when it was computed, survival_valid_until).
    // `capacity_applied` marks that k·cached_survival is currently summed
    // into consumed_[group] and must be subtracted before any change.
    std::vector<double> cached_survival;
    Time survival_valid_until = -1e18;
    bool capacity_applied = false;
  };

  // Sets info.point_estimate and info.sched_dist (the histogram, or a point
  // mass without use_distribution) from a prediction for record_features.
  void Predict(JobInfo& info) const;

  // Recomputes info.effective_utility / info.oe_enabled from the current
  // sched_dist (§4.2.2/§4.2.3). `force` bypasses the adaptive gate (used for
  // fault restarts, which are treated as likely mis-estimates).
  void ApplyOverestimateDecay(JobInfo& info, bool force) const;

  // Refreshes the under-estimate extension state of a running job (§4.2.1).
  void UpdateUnderestimate(JobInfo& info, Time now) const;

  // Pure per-slot survival vector of a running job at `now` (no cache or
  // under-estimate state mutation; shared by the cache refresh and the
  // cross-check recompute). The Eq. 2 ratios are served from the job's
  // valuation tables (zero-copy; may populate the mutable table cache).
  void ComputeRunningSurvival(const JobInfo& info, Time now, std::vector<double>* out) const;

  // Values one considered job's (group, slot) options into `out` using the
  // valuation engine's tables (which must already exist: the serial prepare
  // pass in ValueOptions builds them, so this is read-only and safe to run
  // from pool workers).
  void ValueJobOptions(const JobInfo& info, Time now, ValuationScratch& scratch,
                       JobValuation* out) const;
  // Recomputes a job's cached survival vector and its validity horizon
  // (calls UpdateUnderestimate first).
  void RefreshRunningSurvival(JobInfo& info, Time now);
  // Removes a job's applied contribution from consumed_ (no-op if none).
  void RetireCapacityContribution(JobInfo& info);

  // One valued placement option: a considered job on `group`, starting at
  // start slot `slot` (slot 0 == now).
  struct Option {
    JobId job;
    int group;
    int slot;
    double eu;
    // Expected node consumption at slot offsets [0, cons_len); points into
    // the per-job staging arena (value_stage_), stable for the cycle.
    const double* cons;
    int cons_len;
  };
  // A running best-effort job the MILP may preempt (§4.3.5).
  struct PreemptCandidate {
    JobId id;
    int group;
    double k;
    std::vector<double> survival;  // Per slot.
    double cost;
  };
  // What a backend decided: indices of the chosen options, in option order
  // and at most one per job, and the jobs to preempt.
  struct Choice {
    std::vector<size_t> options;
    std::vector<JobId> preempt;
  };

  // The scheduling cycle, one function per profiler phase. RunCycleImpl
  // calls them in order; the public RunCycle stamps cycle_seconds and
  // publishes the outcome to the metrics registry.
  CycleResult RunCycleImpl(Time now, const ClusterStateView& state);
  // True when nothing changed since a recent solve and no deferred start
  // comes due, so this cycle cannot improve on the previous plan.
  bool CanSkipSolve(Time now) const;
  // Eq. 2/3 (kCapacity): brings consumed_ up to date for `now` by delta
  // updates (a full rebuild every kCacheRebuildPeriod solves), fills the
  // cycle's capacity-cache counters, and returns the preemption candidates.
  std::vector<PreemptCandidate> ChargeCapacity(Time now, const ClusterStateView& state,
                                               CycleResult* result);
  // kSelect: retires pending jobs with no achievable utility into
  // result->abandon and returns the rest, SLO jobs by deadline then
  // best-effort jobs by submit time, capped at max_pending_considered.
  std::vector<JobId> SelectPending(Time now, CycleResult* result);
  // Eq. 1 (kValuation): values every considered job's options, contiguous
  // per job in `considered` order, and sets `cap` to the remaining expected
  // capacity per (group, slot).
  std::vector<Option> ValueOptions(Time now, const ClusterStateView& state,
                                   const std::vector<JobId>& considered,
                                   std::vector<std::vector<double>>* cap, CycleResult* result);
  // kSolve, greedy backend: each job in turn takes its highest-utility
  // option that still fits `cap`. Never preempts.
  Choice SolveGreedy(const std::vector<Option>& options, std::vector<std::vector<double>> cap,
                     CycleResult* result) const;
  // §4.3.3 (kBuild): compiles the options and preemption candidates into a
  // 0/1 MILP. Variable i < options.size() is option i; preemption candidate
  // p is variable options.size() + p. Sets `warm_start` to last cycle's plan
  // re-proposed (§4.3.6), or empty when no option repeats it.
  LpModel BuildMilp(Time now, const std::vector<Option>& options,
                    const std::vector<PreemptCandidate>& preemptables,
                    const std::vector<std::vector<double>>& cap,
                    std::vector<double>* warm_start) const;
  // §4.3.6 (kSolve): solves the model within the node and time budgets from
  // the warm start and last cycle's root basis. Returns false, choosing
  // nothing, when no feasible point was found.
  bool SolveMilp(const LpModel& model, std::vector<double> warm_start, size_t num_options,
                 const std::vector<PreemptCandidate>& preemptables, Choice* choice,
                 CycleResult* result);
  // kPlacement: resets the plans of every considered job, then starts the
  // chosen slot-0 options, defers the rest, and preempts as chosen.
  void Place(Time now, const std::vector<JobId>& considered, const std::vector<Option>& options,
             const Choice& choice, CycleResult* result);

  const ClusterConfig& cluster_;
  RuntimePredictor* predictor_;
  DistSchedulerConfig config_;

  std::map<JobId, JobInfo> jobs_;
  std::vector<JobId> pending_;  // Arrival order.

  // Solve-skip state (see DistSchedulerConfig::max_solve_skip).
  bool dirty_ = true;
  Time last_solve_ = -1e18;

  // Incremental Eq. 3 state: consumed_[g][i] = Σ k·(1 − CDF) over running
  // jobs. Rows are updated by delta when a running job starts, completes, or
  // needs reconditioning, instead of re-summing over all running jobs every
  // cycle. Each job's per-slot survival vector carries a validity horizon
  // (the next time an atom of its conditioned distribution crosses a slot
  // boundary); its contribution stays untouched until the horizon expires.
  std::vector<std::vector<double>> consumed_;
  // Delta updates accumulate float error; a periodic full rebuild squashes
  // any drift long before it can reach the cross-check tolerance.
  int solves_since_rebuild_ = 0;

  // Previous cycle's root-relaxation basis, fed back as the next cycle's
  // root hint (§4.3.6 "seeding the solver with the previous solution" applied
  // to the simplex itself). A shape mismatch is detected and discarded at
  // install time, so consecutive cycles of different sizes are safe.
  LpBasis last_root_basis_;

  // Shared across cycles so the fan-outs never re-spawn threads.
  std::unique_ptr<ThreadPool> pool_;

  // Eq. 1 valuation engine state. Mutable because ComputeRunningSurvival is
  // const (pure w.r.t. observable scheduler state) but may populate the
  // memoized table cache on a lookup miss.
  mutable ValuationEngine valuation_;
  // Per-considered-job output slots and per-worker scratch for the parallel
  // valuation fan-out; cleared and refilled each cycle, capacity retained,
  // so steady-state valuation does no hot-path allocation.
  std::vector<JobValuation> value_stage_;
  std::vector<ValuationScratch> value_scratch_;
};

}  // namespace threesigma

#endif  // SRC_SCHED_DISTRIBUTION_SCHEDULER_H_
