// perfbench — the repository benchmark: three pinned workloads, end-to-end
// metrics, and per-layer metrics measured from outside the program.
//
//   perfbench --workload fig06_google|fig12_scale|svc_session --seed N
//             --seconds S --trace 0|1 [--out-dir DIR] [--quick] [--perturb-rng]
//
// A workload is a fixed set of instances of one configuration, each an open
// loop over a generated trace: arrivals follow the trace whatever the
// scheduler's progress. --seed relabels the identities in the inputs (see
// MakeInputs). Everything runs on one thread. A repetition builds and runs
// every instance; repetitions continue until S seconds have passed and the
// metrics are medians across them. End-to-end times are host-speed
// normalised (see calibrate.h).
// `--trace 0` prints the end-to-end metrics; `--trace 1` runs untraced
// repetitions for a base, one traced repetition (bench-side spans plus the
// program's cycle profiler), and a plain reference run, and prints the
// per-layer metrics.
//
// Correctness and determinism checks run on every invocation; a failure is
// reported on stderr, sets "correct": false, and exits 1. The last line of
// stdout is the result object. perfbench/NOTES.md describes the workloads,
// the metrics, and the per-layer -> end-to-end map.

#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/calibrate.h"
#include "perfbench/layers.h"
#include "src/core/experiment.h"
#include "src/core/systems.h"
#include "src/faults/fault_schedule.h"
#include "src/metrics/metrics.h"
#include "src/obs/obs.h"
#include "src/svc/client.h"
#include "src/svc/server.h"
#include "src/svc/transport.h"
#include "src/twin/twin.h"
#include "src/workload/generator.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

using namespace threesigma;

// --- Checks --------------------------------------------------------------------

// Failed correctness checks, reported on stderr and in "correct".
std::vector<std::string>& Failures() {
  static std::vector<std::string> failures;
  return failures;
}

void Fail(const std::string& message) {
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", message.c_str());
  Failures().push_back(message);
}

// --- Workload definitions ------------------------------------------------------

// The job population every workload draws from: the google environment
// model sampled with the generator's default seed, pinned like a real trace
// (instances permute and reshape it; see MakeInputs).
constexpr uint64_t kTraceSeed = 42;

struct WorkloadSpec {
  std::string name;
  uint64_t seed = 0;   // --seed.
  int instances = 1;   // Pinned instances per repetition.
  ExperimentConfig config;    // Shared by all instances (seeds set per instance).
  DistSchedulerConfig sched;  // The 3Sigma system's full scheduler config.
  bool service = false;
  // svc_session only.
  FaultOptions churn;            // Node churn, sampled up front per instance.
  double task_kill_prob = 0.0;   // Injected task kills (hash draws).
  int64_t whatif_every = 0;      // Live cycles between WhatIf sweeps.
  int64_t checkpoint_every = 0;  // Live cycles between snapshot saves.
};

bool MakeSpec(const std::string& name, uint64_t seed, bool quick, WorkloadSpec* spec) {
  spec->name = name;
  spec->seed = seed;
  ExperimentConfig& c = spec->config;
  c.workload.env = EnvironmentKind::kGoogle;
  c.workload.seed = kTraceSeed;
  c.sim.cycle_period = 10.0;
  c.sim.reactive_min_gap = 2.0;
  c.sched.cycle_period = c.sim.cycle_period;
  c.sched.solver_threads = 1;
  if (name == "fig06_google") {
    // The paper's SC256 setup: 4 x 64 nodes, google, load 1.4, default budgets.
    c.cluster = ClusterConfig::Uniform(4, 64);
    c.workload.duration = Hours(quick ? 0.25 : 5.0);
    c.workload.load = 1.4;
    spec->instances = quick ? 1 : 2;
  } else if (name == "fig12_scale") {
    // Fig. 12's GOOGLE-scale cluster at 4,000 jobs/h, load 0.95, 96-job
    // MILPs with the 1 s limit.
    const double hours = quick ? 0.05 : 0.2;
    c.cluster = ClusterConfig::Uniform(8, 1573);
    c.workload.duration = Hours(hours);
    c.workload.load = 0.95;
    c.workload.fixed_job_count = static_cast<int>(4000 * hours);
    c.sched.solver_time_limit_seconds = 1.0;
    c.sched.max_pending_considered = 96;
    spec->instances = quick ? 1 : 3;
  } else if (name == "svc_session") {
    // The same google jobs at load 0.8 through src/svc, with node churn
    // (~13 crashes per hour over 256 nodes, 10 min repairs) and task kills.
    c.cluster = ClusterConfig::Uniform(4, 64);
    c.workload.duration = Hours(quick ? 0.5 : 4.0);
    c.workload.load = 0.8;
    spec->instances = quick ? 1 : 2;
    spec->service = true;
    spec->whatif_every = quick ? 40 : 120;
    spec->checkpoint_every = quick ? 20 : 60;
    spec->churn.node_mttf = Hours(20.0);
    spec->churn.node_mttr = 600.0;
    spec->task_kill_prob = 0.01;
  } else {
    return false;
  }
  // The exact scheduler config MakeSystem wires for 3Sigma, so decorated runs
  // and the plain SimulateSystem reference are configured identically.
  SystemInstance reference = MakeSystem(SystemKind::kThreeSigma, c.cluster, c.sched);
  spec->sched = dynamic_cast<DistributionScheduler&>(*reference.scheduler).config();
  return true;
}

// Appends a value's bytes to a hash input.
template <typename T>
void AppendBytes(std::string* out, const T& value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

// One instance of a workload. Its layout — which job arrives at which
// instant, the SLO/BE shaping, node churn — is pinned by the instance index,
// like a trace file. --seed relabels the identities in it (see MakeInputs).
struct Instance {
  uint64_t layout_seed = 0;
  uint64_t label_seed = 0;
  ExperimentConfig config;
};

Instance MakeInstance(const WorkloadSpec& spec, int index) {
  Instance in;
  in.layout_seed = static_cast<uint64_t>(index) + 1;
  in.label_seed = spec.seed;
  in.config = spec.config;
  in.config.sim.seed = in.layout_seed;
  if (spec.service) {
    // Churn is sampled up front and replayed as explicit events (the open
    // workload cannot sample an unbounded horizon); kills stay hash draws.
    FaultOptions churn = spec.churn;
    churn.seed = in.layout_seed;
    const Duration horizon = in.config.workload.duration + in.config.sim.drain_limit;
    in.config.sim.fault_events =
        FaultSchedule::Sample(in.config.cluster, churn, horizon).node_events();
    in.config.sim.faults.task_kill_prob = spec.task_kill_prob;
    in.config.sim.faults.seed = in.layout_seed;
  }
  return in;
}

// The instance's inputs. The pinned trace fixes which jobs exist (runtimes,
// gang widths) and the arrival instants; the layout seed assigns jobs to
// arrival instants, and the workload layer's own ShapeTraceJobs draws the
// §5 shaping (SLO/BE split, deadline slack, preferred groups) from it.
//
// The seed gives every user and job name a seed-specific tag, consistently
// in the jobs and the pre-training history. That changes every feature
// string, hence the predictor's hash-table layout, but no decision: the
// scheduling dynamics are chaotic — a 0.01% runtime perturbation moves
// svc_session's solve-cycle latency by 15-35% — so seeds that changed
// decisions would measure input luck, not the program. Decision diversity
// comes from the pinned instances instead.
GeneratedWorkload MakeInputs(const Instance& in) {
  const ExperimentConfig& c = in.config;
  GeneratedWorkload out = GenerateWorkload(c.cluster, c.workload);
  auto relabel = [&](const std::string& name) {
    std::string key;
    AppendBytes(&key, in.label_seed);
    key += name;
    char tag[24];
    std::snprintf(tag, sizeof(tag), ".%08" PRIx64, HashBytes(key.data(), key.size()) >> 32);
    return name + tag;
  };
  std::vector<TimedTraceJob> records;
  records.reserve(out.jobs.size());
  for (const JobSpec& job : out.jobs) {
    TimedTraceJob record;
    record.job.user = relabel(job.user);
    record.job.jobname = relabel(job.name);
    record.job.runtime = job.true_runtime;
    record.job.num_tasks = job.num_tasks;
    record.submit = job.submit_time;
    records.push_back(std::move(record));
  }
  Rng layout(in.layout_seed);
  for (size_t i = records.size(); i > 1; --i) {
    const size_t j = static_cast<size_t>(layout.UniformInt(0, static_cast<int64_t>(i) - 1));
    std::swap(records[i - 1].job, records[j].job);
  }
  WorkloadOptions shaping = c.workload;
  shaping.seed = in.layout_seed;
  out.jobs = ShapeTraceJobs(records, c.cluster, shaping);
  for (JobSpec& job : out.pretrain) {
    TraceJob trace;
    trace.user = relabel(job.user);
    trace.jobname = relabel(job.name);
    trace.runtime = job.true_runtime;
    trace.num_tasks = job.num_tasks;
    job.user = trace.user;
    job.name = trace.jobname;
    job.features = MakeJobFeatures(trace);
  }
  return out;
}

// --- One freshly built system ----------------------------------------------------

// Everything one instance needs, built (and timed) as set-up: workload
// generation, predictor pre-training, and system or server construction.
// Members are destroyed in reverse order: the client and channel before the
// transport, the server before the engine and scheduler it drives.
struct System {
  GeneratedWorkload workload;
  std::vector<JobSpec> submit_order;  // svc_session: jobs by submit time.
  std::unique_ptr<ThreeSigmaPredictor> predictor;
  std::unique_ptr<TimedPredictor> timed_predictor;
  std::unique_ptr<DistributionScheduler> sched;
  std::unique_ptr<TimedScheduler> timed_sched;
  std::unique_ptr<Simulator> sim;  // Batch workloads.
  std::unique_ptr<svc::LoopbackTransport> transport;
  std::unique_ptr<WhatIfEngine> engine;
  std::unique_ptr<svc::Server> server;
  std::unique_ptr<svc::LoopbackTransport::Client> channel;
  std::unique_ptr<svc::Client> client;
  double gen_s = 0.0;
  double pretrain_s = 0.0;
  double setup_s = 0.0;
};

svc::ServiceOptions ServiceOptionsFor(size_t jobs) {
  svc::ServiceOptions options;
  // Admission never pushes back: every submission is injected by the
  // HandleReady that answers it, so arrivals keep their trace times.
  options.admission_capacity = jobs + 16;
  options.max_batch_per_cycle = jobs + 16;
  options.drain_linger_seconds = 0.0;
  return options;
}

TwinOptions TwinOptionsFor() {
  TwinOptions twin;
  twin.kind = SystemKind::kThreeSigma;
  return twin;
}

// `counters` receives the decorators' measurements and must outlive the
// system.
std::unique_ptr<System> BuildSystem(const WorkloadSpec& spec, const Instance& in,
                                    LayerCounters* counters) {
  auto sys = std::make_unique<System>();
  const ExperimentConfig& c = in.config;
  const double t0 = NowSeconds();
  sys->workload = MakeInputs(in);
  const double t1 = NowSeconds();
  sys->predictor = std::make_unique<ThreeSigmaPredictor>();
  for (const JobSpec& job : sys->workload.pretrain) {
    sys->predictor->RecordCompletion(job.features, job.true_runtime);
  }
  const double t2 = NowSeconds();
  sys->timed_predictor = std::make_unique<TimedPredictor>(sys->predictor.get(), counters);
  sys->sched =
      std::make_unique<DistributionScheduler>(c.cluster, sys->timed_predictor.get(), spec.sched);
  sys->timed_sched = std::make_unique<TimedScheduler>(sys->sched.get(), counters);
  if (!spec.service) {
    sys->sim = std::make_unique<Simulator>(c.cluster, sys->timed_sched.get(), sys->workload.jobs,
                                           c.sim);
  } else {
    sys->submit_order = sys->workload.jobs;
    std::stable_sort(sys->submit_order.begin(), sys->submit_order.end(),
                     [](const JobSpec& a, const JobSpec& b) {
                       return a.submit_time < b.submit_time;
                     });
    sys->transport = std::make_unique<svc::LoopbackTransport>();
    // The twin gets the inner scheduler: forks read its config and restore
    // from snapshots the decorators pass through untouched.
    sys->engine = std::make_unique<WhatIfEngine>(c.cluster, sys->sched.get(), TwinOptionsFor());
    sys->server = std::make_unique<svc::Server>(c.cluster, sys->timed_sched.get(), c.sim,
                                                ServiceOptionsFor(sys->submit_order.size()),
                                                sys->transport.get());
    sys->server->AttachWhatIfEngine(sys->engine.get());
    sys->channel = sys->transport->Connect();
    svc::Server* server = sys->server.get();
    sys->channel->SetPump([server] { server->HandleReady(); });
    svc::ClientOptions client_options;
    client_options.sleep_on_backoff = false;
    sys->client = std::make_unique<svc::Client>(sys->channel.get(), client_options);
  }
  const double t3 = NowSeconds();
  sys->gen_s = t1 - t0;
  sys->pretrain_s = t2 - t1;
  sys->setup_s = t3 - t0;
  return sys;
}

// --- Repetition ------------------------------------------------------------------

struct SessionCounters {
  std::vector<double> submit_s, query_s, state_s, whatif_s, save_s, restore_s;
  std::map<std::string, int64_t> rpcs;
  int64_t rpc_failures = 0;
  int64_t late_submits = 0;
  int64_t sweeps = 0;
  int64_t forks = 0;
  int64_t speculative_cycles = 0;
  int64_t snapshot_bytes = 0;  // Without the "obs" section; see DeterministicBytes.
  int64_t snapshot_total_bytes = 0;
  int64_t retries = 0;
  int64_t retry_later = 0;
};

// Built once, before any program work, and kept: its buffers add a constant
// ~0.3 MB to peak RSS and never change the heap the program sees.
Calibrator& HostCalibrator() {
  static Calibrator calibrator;
  return calibrator;
}

// Host-speed samples taken during a timed region (see calibrate.h).
struct HostSamples {
  std::vector<double> seconds;
  double next = 0.0;

  // Takes a sample if kSampleIntervalSeconds have passed since the last one;
  // returns the wall time spent, which the caller keeps off its clock.
  double Poll() {
    const double now = NowSeconds();
    if (now < next) {
      return 0.0;
    }
    seconds.push_back(HostCalibrator().Sample());
    const double end = NowSeconds();
    next = end + kSampleIntervalSeconds;
    return end - now;
  }

  // Factor that turns times measured during the samples into reference-host
  // times.
  double Speed() const { return kReferenceSeconds / TrimmedMean(seconds); }
};

// One repetition: every instance of the workload, run once.
struct Rep {
  double gen_s = 0.0;
  double pretrain_s = 0.0;
  double run_s = 0.0;   // Sum over instances, without calibration samples.
  double step_s = 0.0;  // Inside Simulator::Step (which calls the scheduler).
  int64_t jobs = 0;
  int64_t steps = 0;
  std::vector<SimResult> results;       // Per instance.
  std::vector<uint64_t> fingerprints;   // Per instance.
  LayerCounters counters;
  SessionCounters session;
  HostSamples host;
  // Summaries the end-to-end metrics need (set by RunRep).
  double speed = 0.0;  // host.Speed().
  double decide_ms_p50 = 0.0;
  double decide_ms_p95 = 0.0;

  // Frees the per-call detail once the summaries and checks have used it,
  // so peak RSS does not grow with the number of repetitions.
  void DropDetail() {
    results.clear();
    counters.cycles.clear();
    counters.predict_seconds.clear();
    for (std::vector<double>* v : {&session.submit_s, &session.query_s, &session.state_s,
                                   &session.whatif_s, &session.save_s, &session.restore_s}) {
      v->clear();
    }
  }
};

// Decision fingerprint: every job's (id, status, group, runs, finish), in id
// order. Equal fingerprints mean every placement, preemption and completion
// happened identically.
uint64_t Fingerprint(const SimResult& result) {
  std::vector<const JobRecord*> jobs;
  jobs.reserve(result.jobs.size());
  for (const JobRecord& job : result.jobs) {
    jobs.push_back(&job);
  }
  std::sort(jobs.begin(), jobs.end(),
            [](const JobRecord* a, const JobRecord* b) { return a->spec.id < b->spec.id; });
  std::string bytes;
  for (const JobRecord* job : jobs) {
    AppendBytes(&bytes, job->spec.id);
    AppendBytes(&bytes, static_cast<int32_t>(job->status));
    AppendBytes(&bytes, job->group);
    AppendBytes(&bytes, job->finish_time);
    AppendBytes(&bytes, job->runs.size());
    for (const JobRun& run : job->runs) {
      AppendBytes(&bytes, run.group);
      AppendBytes(&bytes, run.start);
      AppendBytes(&bytes, run.end);
      AppendBytes(&bytes, run.completed);
    }
  }
  return HashBytes(bytes.data(), bytes.size());
}

uint64_t Fingerprint(const std::vector<uint64_t>& per_instance) {
  return HashBytes(per_instance.data(), per_instance.size() * sizeof(uint64_t));
}

void CheckJobOutcomes(const SimResult& result, size_t submitted, const std::string& label) {
  if (result.jobs.size() != submitted) {
    Fail(label + ": result has " + std::to_string(result.jobs.size()) +
         " jobs, workload submitted " + std::to_string(submitted));
  }
  for (const JobRecord& job : result.jobs) {
    if (job.status != JobStatus::kCompleted && job.status != JobStatus::kAbandoned &&
        job.status != JobStatus::kUnfinished) {
      Fail(label + ": job " + std::to_string(job.spec.id) +
           " ended neither completed, abandoned nor unfinished");
      return;
    }
  }
}

// Runs one batch instance to a drained, finalized result.
void RunBatch(System& sys, int64_t perturb_at_step, Rep* rep) {
  Simulator& sim = *sys.sim;
  const double start = NowSeconds();
  double paused = 0.0;
  int64_t steps = 0;
  while (true) {
    bool stepped = false;
    {
      SpanScope span("sim.step");
      const double t = NowSeconds();
      stepped = sim.Step();
      rep->step_s += NowSeconds() - t;
    }
    ++steps;
    if (!stepped) {
      break;
    }
    if (steps == perturb_at_step) {
      sim.DebugPerturbRng();
    }
    paused += rep->host.Poll();
  }
  {
    SpanScope span("sim.finish");
    rep->results.push_back(sim.Finish());
  }
  rep->run_s += NowSeconds() - start - paused;
  rep->steps += steps;
}

// Restores `bytes` into a freshly built server stack and re-saves it; the
// two buffers must be identical. Returns the restore wall time.
double CheckSnapshotRoundTrip(const WorkloadSpec& spec, const Instance& in,
                              const std::string& bytes) {
  SpanScope span("snapshot.restore_check");
  const ExperimentConfig& c = in.config;
  ThreeSigmaPredictor predictor;
  DistributionScheduler sched(c.cluster, &predictor, spec.sched);
  svc::LoopbackTransport transport;
  WhatIfEngine engine(c.cluster, &sched, TwinOptionsFor());
  svc::Server server(c.cluster, &sched, c.sim, ServiceOptionsFor(0), &transport);
  server.AttachWhatIfEngine(&engine);
  std::string error;
  const double start = NowSeconds();
  const bool ok = server.simulator().TryRestoreStateFromBuffer(bytes, &error);
  const double restore_s = NowSeconds() - start;
  if (!ok) {
    Fail("snapshot failed to restore into a fresh simulator: " + error);
  } else if (server.simulator().SaveStateToBuffer() != bytes) {
    Fail("snapshot restored into a fresh simulator re-saves to different bytes");
  }
  return restore_s;
}

// Snapshot size without the "obs" section: the metrics registry carries
// wall-clock latency histograms whose varint-coded bucket counts change the
// section length run to run. Every other section has a deterministic size.
int64_t DeterministicBytes(const std::string& bytes) {
  std::vector<SnapshotSection> sections;
  std::string error;
  if (!ListSnapshotSections(bytes, &sections, &error)) {
    Fail("saved snapshot does not parse: " + error);
    return 0;
  }
  int64_t total = static_cast<int64_t>(bytes.size());
  for (const SnapshotSection& section : sections) {
    if (section.name == "obs") {
      total -= static_cast<int64_t>(section.payload_size);
    }
  }
  return total;
}

// Parses a WhatIf report: counts forks and speculative cycles; every
// outcome line must read ok=1.
void AccountWhatIf(const std::string& report, SessionCounters* session) {
  std::istringstream in(report);
  std::string line;
  int64_t outcomes = 0;
  int64_t declared = -1;
  while (std::getline(in, line)) {
    if (line.rfind("whatif ", 0) == 0) {
      const size_t pos = line.find(" scenarios=");
      if (pos != std::string::npos) {
        declared = std::stoll(line.substr(pos + 11));
      }
    } else if (line.rfind("outcome ", 0) == 0) {
      ++outcomes;
      if (line.find(" ok=1 ") == std::string::npos) {
        Fail("what-if scenario outcome not ok: " + line);
      }
      const size_t pos = line.find(" cycles=");
      if (pos != std::string::npos) {
        session->speculative_cycles += std::stoll(line.substr(pos + 8));
      }
    }
  }
  if (declared != outcomes || outcomes == 0) {
    Fail("what-if report lists " + std::to_string(outcomes) + " outcomes, declares " +
         std::to_string(declared));
  }
  session->forks += outcomes;
  ++session->sweeps;
}

// Runs one service instance: a tenant submits the trace over the loopback
// transport, reads cluster state and one job every cycle, asks for a
// what-if sweep every `whatif_every` cycles, and checkpoints every
// `checkpoint_every` cycles; then it drains the server.
void RunSession(const WorkloadSpec& spec, const Instance& in, System& sys, Rep* rep) {
  SessionCounters& ss = rep->session;
  svc::Server& server = *sys.server;
  svc::Client& client = *sys.client;
  Simulator& sim = server.simulator();
  const std::vector<JobSpec>& jobs = sys.submit_order;
  const double lookahead = 2.0 * in.config.sim.cycle_period;
  std::string error;
  double paused = 0.0;

  auto rpc_failed = [&](const char* verb) {
    ++ss.rpc_failures;
    Fail(std::string(verb) + " RPC failed: " + error);
  };
  size_t next = 0;          // Jobs [0, next) are submitted.
  size_t first_future = 0;  // First submitted job not yet due at sim.now().
  int64_t late = 0;
  auto submit_next = [&] {
    const JobSpec& job = jobs[next++];
    if (job.submit_time < sim.now()) {
      ++late;  // Would be clamped to the (later) sim clock.
    }
    JobId assigned = 0;
    SpanScope span("svc.submit", job.id);
    const double t = NowSeconds();
    const bool ok = client.SubmitJob(job, "job-" + std::to_string(job.id), &assigned, &error);
    ss.submit_s.push_back(NowSeconds() - t);
    ++ss.rpcs["submit"];
    if (!ok) {
      rpc_failed("SubmitJob");
    } else if (assigned != job.id) {
      Fail("server reassigned job id " + std::to_string(job.id) + " to " +
           std::to_string(assigned));
    }
  };

  const double start = NowSeconds();
  bool closed = false;
  int64_t cycles = 0;
  int64_t steps = 0;
  while (true) {
    if (!closed) {
      // Pacing. Jobs go out in submit-time order, each at most `lookahead`
      // of sim time before it is due. One Step() ends at the next cycle:
      // within a cycle period while jobs are live, and otherwise no later
      // than the earliest submitted-but-not-yet-due arrival (plus the
      // reactive gap). So keep at least one future job submitted, and
      // everything due before it + lookahead; no arrival is then overtaken.
      while (first_future < next && jobs[first_future].submit_time <= sim.now()) {
        ++first_future;
      }
      if (first_future == next && next < jobs.size()) {
        submit_next();
      }
      const double horizon =
          std::max(sim.now(), first_future < next ? jobs[first_future].submit_time : 0.0) +
          lookahead;
      while (next < jobs.size() && jobs[next].submit_time < horizon) {
        submit_next();
      }
      if (next == jobs.size()) {
        SpanScope span("svc.shutdown");
        ++ss.rpcs["shutdown"];
        if (!client.Shutdown(/*drain=*/true, &error)) {
          rpc_failed("Shutdown");
        }
        closed = true;
      }
    }
    bool stepped = false;
    {
      SpanScope span("sim.step");
      const double t = NowSeconds();
      stepped = server.StepCycle();
      rep->step_s += NowSeconds() - t;
    }
    ++steps;
    paused += rep->host.Poll();
    if (!stepped) {
      if (!closed) {
        continue;  // Idle until the next injection.
      }
      break;  // Closed and drained.
    }
    ++cycles;
    // The tenant's reads beside the writes: cluster state plus one job.
    {
      SpanScope span("svc.state");
      SimStateInfo state;
      uint64_t depth = 0;
      const double t = NowSeconds();
      const bool ok = client.GetClusterState(&state, &depth, &error);
      ss.state_s.push_back(NowSeconds() - t);
      ++ss.rpcs["state"];
      if (!ok) {
        rpc_failed("GetClusterState");
      }
    }
    if (next > 0) {
      const JobId id = jobs[static_cast<size_t>(cycles * 7919) % next].id;
      SpanScope span("svc.query", id);
      JobStatusInfo info;
      const double t = NowSeconds();
      const bool ok = client.QueryJob(id, &info, &error);
      ss.query_s.push_back(NowSeconds() - t);
      ++ss.rpcs["query"];
      if (!ok) {
        rpc_failed("QueryJob");
      }
    }
    if (spec.whatif_every > 0 && cycles % spec.whatif_every == 0 && !sim.drained()) {
      SpanScope span("svc.whatif");
      std::string report;
      const double t = NowSeconds();
      const bool ok = client.WhatIf("", 0, &report, &error);
      ss.whatif_s.push_back(NowSeconds() - t);
      ++ss.rpcs["whatif"];
      if (!ok) {
        rpc_failed("WhatIf");
      } else {
        AccountWhatIf(report, &ss);
      }
    }
    if (spec.checkpoint_every > 0 && cycles % spec.checkpoint_every == 0) {
      std::string bytes;
      {
        SpanScope span("snapshot.save");
        const double t = NowSeconds();
        bytes = sim.SaveStateToBuffer();
        ss.save_s.push_back(NowSeconds() - t);
      }
      // Size accounting and the round-trip check are verification, not
      // service work: off the clock.
      const double t = NowSeconds();
      {
        SpanScope span("bench.verify");
        ss.snapshot_bytes += DeterministicBytes(bytes);
        ss.snapshot_total_bytes += static_cast<int64_t>(bytes.size());
        ss.restore_s.push_back(CheckSnapshotRoundTrip(spec, in, bytes));
      }
      paused += NowSeconds() - t;
    }
  }
  if (!sim.drained()) {
    Fail("service session never drained");
  }
  if (late > 0) {
    Fail(std::to_string(late) + " submissions were sent after their submit time");
  }
  {
    SpanScope span("sim.finish");
    rep->results.push_back(sim.Finish());
  }
  rep->run_s += NowSeconds() - start - paused;
  rep->steps += steps;
  ss.late_submits += late;
  ss.retries += client.total_retries();
  ss.retry_later += obs::MetricsRegistry::Global().GetCounter("svc.retry_later")->Value();
}

std::vector<double> DecideMs(const Rep& rep) {
  std::vector<double> out;
  for (const CycleSample& c : rep.counters.cycles) {
    if (c.milp_variables > 0) {
      out.push_back(1000.0 * c.seconds);
    }
  }
  return out;
}

struct PhaseSums {
  double seconds[static_cast<size_t>(obs::Phase::kCount)] = {};
};

// Runs every instance once. With `phases`, the program's cycle profiler is
// on and its per-phase sums are accumulated there.
Rep RunRep(const WorkloadSpec& spec, int64_t perturb_at_step, PhaseSums* phases) {
  Rep rep;
  for (int k = 0; k < spec.instances; ++k) {
    const Instance in = MakeInstance(spec, k);
    obs::ResetAll();  // Fresh registry: it is part of every snapshot.
    std::unique_ptr<System> sys = BuildSystem(spec, in, &rep.counters);
    if (phases != nullptr) {
      obs::Options options;
      options.profiler = true;
      obs::Configure(options);
    }
    if (spec.service) {
      RunSession(spec, in, *sys, &rep);
    } else {
      RunBatch(*sys, k == 0 ? perturb_at_step : 0, &rep);
    }
    if (phases != nullptr) {
      for (const obs::CyclePhaseRow& row : obs::CycleProfiler::Global().rows()) {
        for (size_t p = 0; p < static_cast<size_t>(obs::Phase::kCount); ++p) {
          phases->seconds[p] += row.phase_seconds[p];
        }
      }
    }
    obs::ResetAll();
    rep.gen_s += sys->gen_s;
    rep.pretrain_s += sys->pretrain_s;
    rep.jobs += static_cast<int64_t>(sys->workload.jobs.size());
    CheckJobOutcomes(rep.results.back(), sys->workload.jobs.size(),
                     spec.name + " instance " + std::to_string(k));
    rep.fingerprints.push_back(Fingerprint(rep.results.back()));
  }
  const std::vector<double> decide = DecideMs(rep);
  rep.speed = rep.host.Speed();
  rep.decide_ms_p50 = Percentile(decide, 0.50);
  rep.decide_ms_p95 = Percentile(decide, 0.95);
  return rep;
}

// --- Derived values ------------------------------------------------------------------

// Exact work counters: hardware-independent, so they must repeat exactly.
struct WorkCounters {
  int64_t solver_nodes = 0;
  int64_t predict_calls = 0;
  int64_t valuation_kernel_calls = 0;
  int64_t snapshot_bytes = 0;
  bool operator==(const WorkCounters& o) const {
    return solver_nodes == o.solver_nodes && predict_calls == o.predict_calls &&
           valuation_kernel_calls == o.valuation_kernel_calls &&
           snapshot_bytes == o.snapshot_bytes;
  }
  std::string ToString() const {
    return "solver.nodes=" + std::to_string(solver_nodes) +
           " predict.calls=" + std::to_string(predict_calls) +
           " sched.valuation_kernel_calls=" + std::to_string(valuation_kernel_calls) +
           " snapshot.bytes=" + std::to_string(snapshot_bytes);
  }
};

WorkCounters CountersOf(const Rep& rep) {
  WorkCounters w;
  for (const CycleSample& c : rep.counters.cycles) {
    w.solver_nodes += c.milp_nodes;
    w.valuation_kernel_calls += c.valuation_kernel_calls;
  }
  w.predict_calls = static_cast<int64_t>(rep.counters.predict_seconds.size());
  w.snapshot_bytes = rep.session.snapshot_bytes;
  return w;
}

int64_t TimeLimitCycles(const Rep& rep, double limit_seconds) {
  int64_t n = 0;
  for (const CycleSample& c : rep.counters.cycles) {
    if (c.solver_seconds >= limit_seconds) {
      ++n;
    }
  }
  return n;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

// Compares `other`'s decisions (and, with `work`, its exact work counters)
// with `first`'s. A divergence while the wall-clock solver limit bound is
// reported as caused by that limit instead of failing or passing silently.
void CheckDeterminism(const WorkloadSpec& spec, const Rep& first, const Rep& other,
                      const std::string& label, const WorkCounters* work) {
  const bool same_decisions = first.fingerprints == other.fingerprints;
  const bool same_work = work == nullptr || CountersOf(first) == *work;
  if (same_decisions && same_work) {
    return;
  }
  std::string detail = label + ": fingerprint " + Hex(Fingerprint(first.fingerprints)) + " vs " +
                       Hex(Fingerprint(other.fingerprints));
  if (work != nullptr) {
    detail += "; work {" + CountersOf(first).ToString() + "} vs {" + work->ToString() + "}";
  }
  const double limit = spec.sched.solver_time_limit_seconds;
  const int64_t limited = std::max(TimeLimitCycles(first, limit), TimeLimitCycles(other, limit));
  if (limited > 0) {
    std::fprintf(stderr,
                 "perfbench: DIVERGENCE caused by the wall-clock solver limit (%" PRId64
                 " cycles reached %.3g s): %s\n",
                 limited, limit, detail.c_str());
    return;
  }
  Fail("nondeterministic decisions: " + detail);
}

// Scheduling outcome pooled over a repetition's instances (sim time).
struct Outcome {
  double slo_miss_pct = 0.0;
  double goodput_mh = 0.0;
  double be_latency_p50_s = 0.0;
  double be_latency_p90_s = 0.0;
  double rework_mh = 0.0;
  int64_t rejected_placements = 0;
  int64_t fault_node_events = 0;
  int64_t fault_kills = 0;
  std::vector<double> pending;  // Per cycle.
};

Outcome Pool(const std::vector<SimResult>& results) {
  Outcome out;
  int64_t slo_jobs = 0, slo_missed = 0;
  std::vector<double> be_latency;
  for (const SimResult& r : results) {
    const RunMetrics m = ComputeMetrics(r, "3Sigma");
    slo_jobs += m.slo_jobs;
    slo_missed += m.slo_missed;
    out.goodput_mh += m.goodput_machine_hours;
    out.rework_mh += m.rework_machine_hours;
    out.rejected_placements += r.rejected_placements;
    out.fault_node_events += r.fault_node_events;
    out.fault_kills += r.tasks_killed_by_faults;
    for (const JobRecord& job : r.jobs) {
      if (!job.spec.is_slo() && job.status == JobStatus::kCompleted) {
        be_latency.push_back(job.finish_time - job.spec.submit_time);
      }
    }
    for (const CycleStats& c : r.cycles) {
      out.pending.push_back(c.pending);
    }
  }
  out.slo_miss_pct = slo_jobs > 0 ? 100.0 * static_cast<double>(slo_missed) / slo_jobs : 0.0;
  out.be_latency_p50_s = Percentile(be_latency, 0.50);
  out.be_latency_p90_s = Percentile(be_latency, 0.90);
  return out;
}

// --- Output ----------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", metrics[i].value);
    out += std::string(i > 0 ? ", " : "") + "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

// Operations that failed: scheduler placements that did not fit, plus (for
// the service) RPCs not answered kOk and retried attempts, which include
// every kRetryLater answer the client absorbed.
int64_t FailedOps(const Rep& rep) {
  return Pool(rep.results).rejected_placements + rep.session.rpc_failures + rep.session.retries;
}

// Attempts: jobs submitted, plus RPCs sent.
int64_t AttemptedOps(const Rep& rep) {
  int64_t rpcs = 0;
  for (const auto& [verb, n] : rep.session.rpcs) {
    rpcs += n;
  }
  return rep.jobs + rpcs;
}

// Set-up takes tens of milliseconds, so it is measured in a block of its
// own after the repetitions: one warm-up build (first-touch page faults,
// allocator growth) is dropped, then 40 builds run back to back,
// round-robin over the instances, each followed by a calibration sample
// (into `host`).
std::vector<double> MeasureSetups(const WorkloadSpec& spec, HostSamples* host) {
  constexpr int kSetups = 40;
  std::vector<double> setups;
  for (int i = -1; i < kSetups; ++i) {
    LayerCounters unused;
    obs::ResetAll();
    const int k = (i + 1) % spec.instances;
    const double s = BuildSystem(spec, MakeInstance(spec, k), &unused)->setup_s;
    if (i >= 0) {
      setups.push_back(s);
      host->seconds.push_back(HostCalibrator().Sample());
    }
  }
  std::fprintf(stderr, "perfbench: setup_s min %.6f p25 %.6f median %.6f p75 %.6f (raw)\n",
               Percentile(setups, 0.0), Percentile(setups, 0.25), Median(setups),
               Percentile(setups, 0.75));
  return setups;
}

// End-to-end times are host-speed normalised (see calibrate.h): each
// repetition's by the samples taken during it, set-up by its own samples.
std::vector<Metric> EndToEnd(const std::vector<Rep>& reps, const std::vector<double>& setups,
                             const HostSamples& setup_host) {
  std::vector<double> run_s, p50, p95;
  for (const Rep& rep : reps) {
    run_s.push_back(rep.speed * rep.run_s);
    p50.push_back(rep.speed * rep.decide_ms_p50);
    p95.push_back(rep.speed * rep.decide_ms_p95);
  }
  const Outcome o = Pool(reps.front().results);
  return {
      {"setup_s", setup_host.Speed() * Median(setups), "s"},
      {"run_s", Median(run_s), "s"},
      {"decide_ms_p50", Median(p50), "ms"},
      {"decide_ms_p95", Median(p95), "ms"},
      {"slo_miss_pct", o.slo_miss_pct, "%"},
      {"goodput_mh", o.goodput_mh, "machine-h"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

double RootSpanSeconds(const char* exclude) {
  double total = 0.0;
  for (const Span& span : Tracer::Global().spans()) {
    if (span.parent < 0 && std::strcmp(span.name, exclude) != 0) {
      total += span.end - span.start;
    }
  }
  return total;
}

std::vector<Metric> PerLayer(const WorkloadSpec& spec, const Rep& traced, double base_run_s,
                             const PhaseSums& phases) {
  const LayerCounters& lc = traced.counters;
  const SessionCounters& ss = traced.session;
  const Outcome o = Pool(traced.results);

  double sched_busy = 0.0, solver_busy = 0.0;
  int64_t decide_cycles = 0, starts = 0, preemptions = 0, abandons = 0, improvements = 0;
  int64_t val_hits = 0, val_misses = 0, kernel_calls = 0, cap_hits = 0, cap_misses = 0;
  int64_t nodes = 0, vars_max = 0, rows_max = 0;
  std::vector<double> solver_ms, vars;
  for (const CycleSample& c : lc.cycles) {
    sched_busy += c.seconds;
    solver_busy += c.solver_seconds;
    starts += c.starts;
    preemptions += c.preemptions;
    abandons += c.abandons;
    val_hits += c.valuation_hits;
    val_misses += c.valuation_misses;
    kernel_calls += c.valuation_kernel_calls;
    cap_hits += c.capacity_hits;
    cap_misses += c.capacity_misses;
    if (c.milp_variables > 0) {
      ++decide_cycles;
      nodes += c.milp_nodes;
      improvements += c.incumbent_improvements;
      solver_ms.push_back(1000.0 * c.solver_seconds);
      vars.push_back(c.milp_variables);
      vars_max = std::max<int64_t>(vars_max, c.milp_variables);
      rows_max = std::max<int64_t>(rows_max, c.milp_rows);
    }
  }
  auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  auto count = [](auto n) { return static_cast<double>(n); };
  auto sum = [](const std::vector<double>& v) {
    double total = 0.0;
    for (double x : v) {
      total += x;
    }
    return total;
  };
  auto us = [](const std::vector<double>& s, double q) { return 1e6 * Percentile(s, q); };
  auto ms = [](const std::vector<double>& s, double q) { return 1e3 * Percentile(s, q); };
  auto phase = [&](obs::Phase p) { return phases.seconds[static_cast<size_t>(p)]; };
  auto rpcs = [&](const char* verb) {
    auto it = ss.rpcs.find(verb);
    return it == ss.rpcs.end() ? 0.0 : count(it->second);
  };
  const double cycles = count(lc.cycles.size());
  const double jobs = count(traced.jobs);
  const double pending_max =
      o.pending.empty() ? 0.0 : *std::max_element(o.pending.begin(), o.pending.end());

  return {
      {"workload.gen_s", traced.gen_s, "s"},
      {"workload.jobs", jobs, "count"},
      {"predict.calls", count(lc.predict_seconds.size()), "count"},
      {"predict.busy_s", lc.PredictBusySeconds(), "s"},
      {"predict.us_p50", us(lc.predict_seconds, 0.50), "us"},
      {"predict.us_p99", us(lc.predict_seconds, 0.99), "us"},
      {"predict.record_calls", count(lc.record_calls), "count"},
      {"predict.pretrain_s", traced.pretrain_s, "s"},
      {"sched.cycles", cycles, "count"},
      {"sched.decide_cycles", count(decide_cycles), "count"},
      {"sched.skip_ratio", 1.0 - ratio(count(decide_cycles), cycles), "ratio"},
      {"sched.busy_s", sched_busy, "s"},
      {"sched.self_s", sched_busy - solver_busy, "s"},
      {"sched.callback_busy_s", lc.callback_seconds, "s"},
      {"sched.decide_ms_p99", Percentile(DecideMs(traced), 0.99), "ms"},
      {"sched.starts", count(starts), "count"},
      {"sched.preemptions", count(preemptions), "count"},
      {"sched.preemptions_per_job", ratio(count(preemptions), jobs), "ratio"},
      {"sched.abandons", count(abandons), "count"},
      {"sched.pending_p50", Percentile(o.pending, 0.50), "count"},
      {"sched.pending_max", pending_max, "count"},
      {"sched.valuation_hit_ratio", ratio(count(val_hits), count(val_hits + val_misses)), "ratio"},
      {"sched.valuation_kernel_calls", count(kernel_calls), "count"},
      {"sched.capacity_hit_ratio", ratio(count(cap_hits), count(cap_hits + cap_misses)), "ratio"},
      {"solver.busy_s", solver_busy, "s"},
      {"solver.share", ratio(solver_busy, sched_busy), "ratio"},
      {"solver.ms_p50", Percentile(solver_ms, 0.50), "ms"},
      {"solver.ms_p95", Percentile(solver_ms, 0.95), "ms"},
      {"solver.nodes", count(nodes), "count"},
      {"solver.nodes_per_s", ratio(count(nodes), solver_busy), "1/s"},
      {"solver.vars_p50", Percentile(vars, 0.50), "count"},
      {"solver.vars_max", count(vars_max), "count"},
      {"solver.rows_max", count(rows_max), "count"},
      {"solver.incumbent_improvements", count(improvements), "count"},
      {"solver.time_limit_cycles",
       count(TimeLimitCycles(traced, spec.sched.solver_time_limit_seconds)), "count"},
      {"sim.self_s", traced.step_s - sched_busy - lc.callback_seconds, "s"},
      {"sim.steps", count(traced.steps), "count"},
      {"sim.rejected_placements", count(o.rejected_placements), "count"},
      {"metrics.be_latency_p50_s", o.be_latency_p50_s, "s"},
      {"metrics.be_latency_p90_s", o.be_latency_p90_s, "s"},
      {"faults.node_events", count(o.fault_node_events), "count"},
      {"faults.kills", count(o.fault_kills), "count"},
      {"faults.rework_mh", o.rework_mh, "machine-h"},
      {"snapshot.save_ms_p50", ms(ss.save_s, 0.50), "ms"},
      {"snapshot.restore_ms_p50", ms(ss.restore_s, 0.50), "ms"},
      {"snapshot.bytes", count(ss.snapshot_bytes), "bytes"},
      {"snapshot.mb_per_s", ratio(count(ss.snapshot_total_bytes) / 1e6, sum(ss.save_s)), "MB/s"},
      {"svc.rpcs.submit", rpcs("submit"), "count"},
      {"svc.rpcs.query", rpcs("query"), "count"},
      {"svc.rpcs.state", rpcs("state"), "count"},
      {"svc.rpcs.whatif", rpcs("whatif"), "count"},
      {"svc.submit_us_p50", us(ss.submit_s, 0.50), "us"},
      {"svc.submit_us_p99", us(ss.submit_s, 0.99), "us"},
      {"svc.query_us_p50", us(ss.query_s, 0.50), "us"},
      {"svc.query_us_p99", us(ss.query_s, 0.99), "us"},
      {"svc.state_us_p50", us(ss.state_s, 0.50), "us"},
      {"svc.retries", count(ss.retries), "count"},
      {"svc.retry_later", count(ss.retry_later), "count"},
      {"svc.late_submits", count(ss.late_submits), "count"},
      {"twin.sweeps", count(ss.sweeps), "count"},
      {"twin.forks", count(ss.forks), "count"},
      {"twin.speculative_cycles", count(ss.speculative_cycles), "count"},
      {"twin.whatif_ms_p50", ms(ss.whatif_s, 0.50), "ms"},
      {"twin.ms_per_fork", ratio(1e3 * sum(ss.whatif_s), count(ss.forks)), "ms"},
      {"host.calibrate_ms", 1e3 * TrimmedMean(traced.host.seconds), "ms"},
      {"obs.overhead_pct", 100.0 * ratio(traced.speed * traced.run_s - base_run_s, base_run_s),
       "%"},
      {"obs.span_coverage_pct", 100.0 * ratio(RootSpanSeconds("bench.verify"), traced.run_s),
       "%"},
      {"phase.capacity_s", phase(obs::Phase::kCapacity), "s"},
      {"phase.select_s", phase(obs::Phase::kSelect), "s"},
      {"phase.valuation_s", phase(obs::Phase::kValuation), "s"},
      {"phase.build_s", phase(obs::Phase::kBuild), "s"},
      {"phase.solve_s", phase(obs::Phase::kSolve), "s"},
      {"phase.placement_s", phase(obs::Phase::kPlacement), "s"},
      {"phase.predict_s", phase(obs::Phase::kPredict), "s"},
      {"phase.sim_events_s", phase(obs::Phase::kSimEvents), "s"},
  };
}

// Writes the traced repetition's spans as Chrome trace_event JSON.
void WriteTrace(const std::string& path) {
  std::ofstream out(path);
  const std::vector<Span>& spans = Tracer::Global().spans();
  const double origin = spans.empty() ? 0.0 : spans.front().start;
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%zu,\"parent\":%d,\"job\":%" PRId64 "}}",
                  i == 0 ? "" : ",\n", s.name, 1e6 * (s.start - origin), 1e6 * (s.end - s.start),
                  i, s.parent, s.job);
    out << buf;
  }
  out << "]}\n";
  if (!out) {
    Fail("cannot write the span trace to " + path);
  }
}

// --- Main ------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool quick = false;
  bool perturb_rng = false;
  std::string out_dir = ".bench_out";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    try {
      if (flag == "--workload" && has_value) {
        args->workload = argv[++i];
      } else if (flag == "--seed" && has_value) {
        args->seed = std::stoull(argv[++i]);
        have_seed = true;
      } else if (flag == "--seconds" && has_value) {
        args->seconds = std::stod(argv[++i]);
        have_seconds = true;
      } else if (flag == "--trace" && has_value) {
        const std::string v = argv[++i];
        if (v != "0" && v != "1") {
          return false;
        }
        args->trace = v == "1" ? 1 : 0;
        have_trace = true;
      } else if (flag == "--out-dir" && has_value) {
        args->out_dir = argv[++i];
      } else if (flag == "--quick") {
        args->quick = true;
      } else if (flag == "--perturb-rng") {
        args->perturb_rng = true;
      } else {
        std::fprintf(stderr, "perfbench: bad argument '%s'\n", flag.c_str());
        return false;
      }
    } catch (const std::exception&) {
      std::fprintf(stderr, "perfbench: bad value for %s\n", flag.c_str());
      return false;
    }
  }
  return !args->workload.empty() && have_seed && have_seconds && have_trace;
}

int Main(int argc, char** argv) {
  const double process_start = NowSeconds();
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload fig06_google|fig12_scale|svc_session --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR] [--quick] [--perturb-rng]\n");
    return 2;
  }
  HostCalibrator();
  WorkloadSpec spec;
  if (!MakeSpec(args.workload, args.seed, args.quick, &spec)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  // --perturb-rng (self-test only): high-fidelity mode, whose runtimes draw
  // on the simulator RNG, with one draw burned in the second repetition, so
  // its decisions change and the determinism check must fail.
  int64_t perturb_second_rep_at = 0;
  if (args.perturb_rng) {
    spec.config.sim.fidelity = SimFidelity::kHighFidelity;
    perturb_second_rep_at = 3;
  }
  std::fprintf(stderr,
               "perfbench: workload=%s seed=%" PRIu64 " instances=%d seconds=%g trace=%d "
               "build=%s compiler=%s nproc=%u\n",
               spec.name.c_str(), args.seed, spec.instances, args.seconds, args.trace,
               PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, std::thread::hardware_concurrency());

  // Untraced repetitions fill the budget (half of it when a traced
  // repetition and the plain reference follow). The first repetition is the
  // reference every later run must match exactly.
  std::vector<Rep> reps;
  const double budget = args.trace == 1 ? 0.5 * args.seconds : args.seconds;
  const size_t min_reps = args.trace == 1 ? 1 : 2;
  while (reps.size() < min_reps || NowSeconds() - process_start < budget) {
    reps.push_back(RunRep(spec, reps.size() == 1 ? perturb_second_rep_at : 0, nullptr));
    if (reps.size() > 1) {
      const WorkCounters work = CountersOf(reps.back());
      CheckDeterminism(spec, reps.front(), reps.back(),
                       "repetition " + std::to_string(reps.size()), &work);
      reps.back().DropDetail();  // Only the first repetition's is kept.
    }
  }
  int64_t attempted = 0;
  for (const Rep& rep : reps) {
    attempted += AttemptedOps(rep);
  }
  int64_t failed = FailedOps(reps.front()) * static_cast<int64_t>(reps.size());

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    HostSamples setup_host;
    const std::vector<double> setups = MeasureSetups(spec, &setup_host);
    metrics = EndToEnd(reps, setups, setup_host);
  } else {
    // Traced repetition: bench-side spans plus the program's cycle profiler.
    PhaseSums phases;
    Tracer::Global().Clear();
    Tracer::Global().SetEnabled(true);
    const Rep traced = RunRep(spec, 0, &phases);
    Tracer::Global().SetEnabled(false);
    const WorkCounters traced_work = CountersOf(traced);
    CheckDeterminism(spec, reps.front(), traced, "traced vs untraced", &traced_work);
    attempted += AttemptedOps(traced);
    failed += FailedOps(traced);

    // One more untraced repetition after the traced one, so the overhead
    // base brackets it and host speed drift during the run cancels.
    reps.push_back(RunRep(spec, 0, nullptr));
    const WorkCounters after_work = CountersOf(reps.back());
    CheckDeterminism(spec, reps.front(), reps.back(), "untraced after traced", &after_work);
    attempted += AttemptedOps(reps.back());
    failed += FailedOps(reps.back());
    // Host-speed normalised, like run_s, so the host's drift cancels.
    std::vector<double> base;
    for (const Rep& rep : reps) {
      base.push_back(rep.speed * rep.run_s);
    }
    const double base_run_s = Median(base);
    const double coverage = 100.0 * RootSpanSeconds("bench.verify") / traced.run_s;
    if (coverage < 95.0) {
      Fail("named layer spans cover only " + std::to_string(coverage) + "% of run_s");
    }

    // Plain reference: SimulateSystem(kThreeSigma) with no decorators. For
    // svc_session it is the batch replay of the same jobs and churn.
    Rep plain;
    for (int k = 0; k < spec.instances; ++k) {
      const Instance in = MakeInstance(spec, k);
      const GeneratedWorkload inputs = MakeInputs(in);
      plain.results.push_back(SimulateSystem(SystemKind::kThreeSigma, in.config, inputs));
      CheckJobOutcomes(plain.results.back(), inputs.jobs.size(),
                       "plain SimulateSystem instance " + std::to_string(k));
      plain.fingerprints.push_back(Fingerprint(plain.results.back()));
    }
    CheckDeterminism(spec, traced, plain,
                     spec.service ? "service vs batch replay" : "decorated vs plain SimulateSystem",
                     nullptr);
    std::fprintf(stderr,
                 "perfbench: traced fingerprint %s, plain %s; slo_miss %.4f%% vs plain %.4f%%\n",
                 Hex(Fingerprint(traced.fingerprints)).c_str(),
                 Hex(Fingerprint(plain.fingerprints)).c_str(), Pool(traced.results).slo_miss_pct,
                 Pool(plain.results).slo_miss_pct);
    double max_solve_s = 0.0;
    for (const CycleSample& c : traced.counters.cycles) {
      max_solve_s = std::max(max_solve_s, c.solver_seconds);
    }
    std::fprintf(stderr,
                 "perfbench: obs.overhead_pct base = median untraced run_s %.6f s over %zu "
                 "repetition(s); traced run_s %.6f s (both host-speed normalised); longest "
                 "solve %.4f s (limit %.3g s)\n",
                 base_run_s, reps.size(), traced.speed * traced.run_s, max_solve_s,
                 spec.sched.solver_time_limit_seconds);

    metrics = PerLayer(spec, traced, base_run_s, phases);
    std::error_code ec;
    std::filesystem::create_directories(args.out_dir, ec);
    const std::string path =
        args.out_dir + "/trace-" + spec.name + "-" + std::to_string(args.seed) + ".json";
    WriteTrace(path);
    std::fprintf(stderr, "perfbench: %zu spans written to %s\n", Tracer::Global().spans().size(),
                 path.c_str());
  }

  std::string run_times, calibrations;
  for (const Rep& rep : reps) {
    run_times += " " + std::to_string(rep.run_s);
    calibrations += " " + std::to_string(1e3 * TrimmedMean(rep.host.seconds)) + " (" +
                    std::to_string(rep.host.seconds.size()) + ")";
  }
  std::fprintf(stderr,
               "perfbench: calibration sample trimmed mean per repetition, ms (samples):%s; "
               "reference %.3f ms\n",
               calibrations.c_str(), 1e3 * kReferenceSeconds);
  std::fprintf(stderr,
               "perfbench: %zu repetition(s) of %d instance(s), raw run_s%s; fingerprint %s; "
               "work {%s}\n",
               reps.size(), spec.instances, run_times.c_str(),
               Hex(Fingerprint(reps.front().fingerprints)).c_str(),
               CountersOf(reps.front()).ToString().c_str());
  const bool correct = Failures().empty();
  PrintResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
