#include "src/core/config_flags.h"

#include <cmath>
#include <limits>
#include <sstream>

namespace threesigma {
namespace {

constexpr int64_t kIntMax = std::numeric_limits<int>::max();

void SetError(std::string* error, const std::string& message) {
  if (error != nullptr) {
    *error = message;
  }
}

// An integer flag must lie in [lo, hi].
bool CheckInt(const char* flag, int64_t value, int64_t lo, int64_t hi, std::string* error) {
  if (value >= lo && value <= hi) {
    return true;
  }
  std::ostringstream out;
  out << "flag --" << flag << ": " << value << " is out of range; allowed: ";
  if (hi == kIntMax) {
    out << ">= " << lo;
  } else {
    out << "[" << lo << ", " << hi << "]";
  }
  SetError(error, out.str());
  return false;
}

// A real-valued flag must be finite, above lo (or at it when !lo_open) and
// at most hi.
bool CheckReal(const char* flag, double value, double lo, bool lo_open, double hi,
               std::string* error) {
  const bool above = lo_open ? value > lo : value >= lo;
  if (std::isfinite(value) && above && value <= hi) {
    return true;
  }
  std::ostringstream out;
  out << "flag --" << flag << ": " << value << " is out of range; allowed: ";
  if (std::isinf(hi)) {
    out << (lo_open ? "> " : ">= ") << lo;
  } else {
    out << (lo_open ? "(" : "[") << lo << ", " << hi << "]";
  }
  SetError(error, out.str());
  return false;
}

// Range checks for every numeric flag whose out-of-range values would
// otherwise abort deep inside a module, hang, or silently run as something
// else (e.g. --solver-threads=0 as one thread).
bool CheckRanges(const ExperimentFlags& f, std::string* error) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  return CheckReal("hours", f.hours, 0.0, true, kInf, error) &&
         CheckReal("load", f.load, 0.0, true, kInf, error) &&
         CheckInt("groups", f.groups, 1, kIntMax, error) &&
         CheckInt("nodes-per-group", f.nodes_per_group, 1, kIntMax, error) &&
         CheckReal("cycle", f.cycle, 0.0, true, kInf, error) &&
         CheckInt("solver-threads", f.solver_threads, 1, 256, error) &&
         CheckInt("solver-max-nodes", f.solver_max_nodes, 0, kIntMax, error) &&
         CheckInt("max-pending", f.max_pending, 1, kIntMax, error) &&
         CheckInt("start-slots", f.start_slots, 1, kIntMax, error) &&
         CheckReal("fault-mttf", f.fault_mttf, 0.0, false, kInf, error) &&
         CheckReal("fault-mttr", f.fault_mttr, 0.0, true, kInf, error) &&
         CheckReal("fault-kill-prob", f.fault_kill_prob, 0.0, false, 1.0, error) &&
         CheckReal("fault-straggler-prob", f.fault_straggler_prob, 0.0, false, 1.0, error) &&
         CheckReal("fault-straggler-factor", f.fault_straggler_factor, 1.0, false, kInf,
                   error) &&
         CheckReal("fault-stall-prob", f.fault_stall_prob, 0.0, false, 1.0, error) &&
         CheckInt("checkpoint-every", f.checkpoint_every, 0, kIntMax, error) &&
         CheckInt("max-cycles", f.max_cycles, 0, kIntMax, error) &&
         CheckInt("obs-ring-capacity", f.obs_ring_capacity, 1, kIntMax, error);
}

}  // namespace

void RegisterExperimentFlags(FlagParser& parser, ExperimentFlags* flags) {
  parser.AddString("env", &flags->env_name, "workload model: google | hedgefund | mustang")
      .AddDouble("hours", &flags->hours, "workload window length in hours")
      .AddDouble("load", &flags->load, "offered load (machine-time / capacity)")
      .AddInt("seed", &flags->seed, "base RNG seed")
      .AddInt("groups", &flags->groups, "node groups (equivalence sets)")
      .AddInt("nodes-per-group", &flags->nodes_per_group, "nodes per group")
      .AddDouble("cycle", &flags->cycle, "scheduling cycle period in seconds")
      .AddInt("solver-threads", &flags->solver_threads,
              "scheduler worker pool size for the valuation fan-out and the "
              "what-if scenario sweep (branch-and-bound is serial; any count "
              "returns the same decisions)")
      .AddInt("solver-max-nodes", &flags->solver_max_nodes,
              "branch-and-bound node budget per solve (0 = unbudgeted)")
      .AddInt("max-pending", &flags->max_pending,
              "pending jobs admitted into one cycle MILP (SLO-deadline order "
              "first; the rest waits)")
      .AddInt("start-slots", &flags->start_slots,
              "candidate deferred-start slots per (job, group) option")
      .AddBool("valuation-crosscheck", &flags->valuation_crosscheck,
               "debug: re-derive every kernel answer with the generic loop and "
               "abort on any bitwise divergence")
      .AddBool("solver-basis-warmstart", &flags->solver_basis_warmstart,
               "re-optimize parent simplex bases with dual pivots across "
               "branch-and-bound nodes and cycles; off = cold Phase-1 solves "
               "(deterministic either way, but warm may pick a different "
               "equally-scored schedule at degenerate LP ties)")
      .AddBool("high-fidelity", &flags->high_fidelity, "use the noisy 'RC256' simulator mode")
      .AddDouble("fault-mttf", &flags->fault_mttf,
                 "mean time to failure per node in seconds (0 = no node churn)")
      .AddDouble("fault-mttr", &flags->fault_mttr, "mean time to repair per node in seconds")
      .AddDouble("fault-kill-prob", &flags->fault_kill_prob,
                 "probability a gang run is killed mid-flight by a task fault")
      .AddDouble("fault-straggler-prob", &flags->fault_straggler_prob,
                 "probability a run's duration is inflated by a straggler")
      .AddDouble("fault-straggler-factor", &flags->fault_straggler_factor,
                 "maximum straggler runtime inflation factor")
      .AddDouble("fault-stall-prob", &flags->fault_stall_prob,
                 "probability a scheduling cycle is stalled (scheduler hiccup)")
      .AddInt("fault-seed", &flags->fault_seed,
              "fault-injection RNG seed (independent of --seed)")
      .AddInt("checkpoint-every", &flags->checkpoint_every,
              "write <checkpoint-dir>/checkpoint_<cycle>.snap every N scheduling "
              "cycles (0 = off; the directory must exist)")
      .AddString("checkpoint-dir", &flags->checkpoint_dir, "where checkpoints are written")
      .AddInt("max-cycles", &flags->max_cycles,
              "stop each run after N scheduling cycles (0 = no limit; with "
              "checkpointing on, this emulates a kill at a known cycle)")
      .AddString("trace-out", &flags->trace_out,
                 "write a Chrome trace_event JSON here (load in chrome://tracing "
                 "or ui.perfetto.dev); enables span tracing")
      .AddString("trace-bin-out", &flags->trace_bin_out,
                 "write the binary span trace here (snapshot codec; the "
                 "deterministic sections are byte-identical across runs and "
                 "thread counts)")
      .AddString("obs-phase-csv", &flags->obs_phase_csv,
                 "write the per-cycle scheduler phase-latency CSV here; enables "
                 "the cycle profiler")
      .AddString("obs-decisions-csv", &flags->obs_decisions_csv,
                 "write the per-cycle decision log CSV here (the golden-trace "
                 "regression format)")
      .AddString("obs-metrics-out", &flags->obs_metrics_out,
                 "write a text dump of the metrics registry here")
      .AddInt("obs-ring-capacity", &flags->obs_ring_capacity,
              "span ring capacity per thread (oldest spans drop on overflow)");
}

bool BuildExperimentConfig(const ExperimentFlags& flags, ExperimentConfig* config,
                           std::string* error) {
  *config = ExperimentConfig();
  if (!CheckRanges(flags, error)) {
    return false;
  }
  config->cluster = ClusterConfig::Uniform(static_cast<int>(flags.groups),
                                           static_cast<int>(flags.nodes_per_group));
  if (!ParseEnvironmentName(flags.env_name, &config->workload.env)) {
    if (error != nullptr) {
      *error = "unknown --env '" + flags.env_name + "'";
    }
    return false;
  }
  config->workload.duration = Hours(flags.hours);
  config->workload.load = flags.load;
  config->workload.seed = static_cast<uint64_t>(flags.seed);
  config->sim.cycle_period = flags.cycle;
  config->sim.seed = static_cast<uint64_t>(flags.seed);
  config->sim.fidelity =
      flags.high_fidelity ? SimFidelity::kHighFidelity : SimFidelity::kIdeal;
  config->sim.faults.node_mttf = flags.fault_mttf;
  config->sim.faults.node_mttr = flags.fault_mttr;
  config->sim.faults.task_kill_prob = flags.fault_kill_prob;
  config->sim.faults.straggler_prob = flags.fault_straggler_prob;
  config->sim.faults.straggler_factor = flags.fault_straggler_factor;
  config->sim.faults.cycle_stall_prob = flags.fault_stall_prob;
  config->sim.faults.seed = static_cast<uint64_t>(flags.fault_seed);
  config->sim.checkpoint_every = flags.checkpoint_every;
  config->sim.checkpoint_dir = flags.checkpoint_dir;
  config->sim.max_cycles = flags.max_cycles;
  config->sched.cycle_period = flags.cycle;
  config->sched.solver_threads = static_cast<int>(flags.solver_threads);
  config->sched.solver_max_nodes = static_cast<int>(flags.solver_max_nodes);
  config->sched.max_pending_considered = static_cast<int>(flags.max_pending);
  config->sched.num_start_slots = static_cast<int>(flags.start_slots);
  config->sched.valuation_crosscheck = flags.valuation_crosscheck;
  config->sched.solver_basis_warmstart = flags.solver_basis_warmstart;
  config->obs.trace_json_out = flags.trace_out;
  config->obs.trace_bin_out = flags.trace_bin_out;
  config->obs.phase_csv_out = flags.obs_phase_csv;
  config->obs.decisions_csv_out = flags.obs_decisions_csv;
  config->obs.metrics_out = flags.obs_metrics_out;
  config->obs.ring_capacity = flags.obs_ring_capacity;
  return true;
}

bool ParseEnvironmentName(const std::string& name, EnvironmentKind* out) {
  if (name == "google") {
    *out = EnvironmentKind::kGoogle;
  } else if (name == "hedgefund") {
    *out = EnvironmentKind::kHedgeFund;
  } else if (name == "mustang") {
    *out = EnvironmentKind::kMustang;
  } else {
    return false;
  }
  return true;
}

bool ParseSystemName(const std::string& name, SystemKind* out) {
  for (SystemKind kind :
       {SystemKind::kThreeSigma, SystemKind::kThreeSigmaNoDist, SystemKind::kThreeSigmaNoOE,
        SystemKind::kThreeSigmaNoAdapt, SystemKind::kPointPerfEst, SystemKind::kPointRealEst,
        SystemKind::kPrio}) {
    if (name == SystemName(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

}  // namespace threesigma
