// Bench-side layer instrumentation for perfbench.
//
// Everything here sits *outside* the program: decorators that wrap the
// public Scheduler and RuntimePredictor interfaces, a span recorder for the
// traced run, and small statistics helpers. The decorators forward every
// call verbatim — including SaveState/RestoreState, so snapshots and
// decisions stay byte-identical to an undecorated run — and only add
// steady_clock timestamps around each call.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "src/predict/predictor.h"
#include "src/sched/scheduler.h"

namespace perfbench {

inline double NowSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

// Median with the usual even-count midpoint (matches Python's statistics).
inline double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// --- Spans -------------------------------------------------------------------

// One bench-side span: a layer call with its causing span. Spans of one job
// share `job` (inherited from the enclosing span when a call carries none).
struct Span {
  const char* name = "";
  int parent = -1;
  int64_t job = -1;
  double start = 0.0;
  double end = 0.0;
};

// In-memory span recorder; disabled (no allocation, no clock reads) unless
// the traced run turns it on. Single-threaded, like the benchmark.
class Tracer {
 public:
  static Tracer& Global() {
    static Tracer tracer;
    return tracer;
  }

  void SetEnabled(bool enabled) { enabled_ = enabled; }

  int Begin(const char* name, int64_t job) {
    if (!enabled_) {
      return -1;
    }
    const int parent = stack_.empty() ? -1 : stack_.back();
    if (job < 0 && parent >= 0) {
      job = spans_[static_cast<size_t>(parent)].job;
    }
    spans_.push_back(Span{name, parent, job, NowSeconds(), 0.0});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void End(int index) {
    if (index < 0) {
      return;
    }
    spans_[static_cast<size_t>(index)].end = NowSeconds();
    stack_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }
  void Clear() {
    spans_.clear();
    stack_.clear();
  }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class SpanScope {
 public:
  explicit SpanScope(const char* name, int64_t job = -1)
      : index_(Tracer::Global().Begin(name, job)) {}
  ~SpanScope() { Tracer::Global().End(index_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  int index_;
};

// --- Layer counters ----------------------------------------------------------

// What one RunCycle call did, as seen from outside the scheduler: the
// bench-measured wall time plus the counters CycleResult reports.
struct CycleSample {
  double seconds = 0.0;
  double solver_seconds = 0.0;
  int milp_variables = 0;
  int milp_rows = 0;
  int milp_nodes = 0;
  int incumbent_improvements = 0;
  int starts = 0;
  int preemptions = 0;
  int abandons = 0;
  int64_t valuation_hits = 0;
  int64_t valuation_misses = 0;
  int64_t valuation_kernel_calls = 0;
  int64_t capacity_hits = 0;
  int64_t capacity_misses = 0;
};

struct LayerCounters {
  // predict
  std::vector<double> predict_seconds;  // One entry per Predict call.
  int64_t record_calls = 0;
  double record_seconds = 0.0;
  // sched
  std::vector<CycleSample> cycles;
  double callback_seconds = 0.0;  // Arrival/start/finish/... notifications.

  double PredictBusySeconds() const {
    double total = record_seconds;
    for (double s : predict_seconds) {
      total += s;
    }
    return total;
  }
};

// --- Decorators --------------------------------------------------------------

class TimedPredictor final : public threesigma::RuntimePredictor {
 public:
  // `inner` and `counters` must outlive the decorator.
  TimedPredictor(threesigma::RuntimePredictor* inner, LayerCounters* counters)
      : inner_(inner), counters_(counters) {}

  threesigma::RuntimePrediction Predict(const threesigma::JobFeatures& features,
                                        double true_runtime) override {
    SpanScope span("predict.predict");
    const double start = NowSeconds();
    threesigma::RuntimePrediction out = inner_->Predict(features, true_runtime);
    counters_->predict_seconds.push_back(NowSeconds() - start);
    return out;
  }

  void RecordCompletion(const threesigma::JobFeatures& features, double runtime) override {
    SpanScope span("predict.record");
    const double start = NowSeconds();
    inner_->RecordCompletion(features, runtime);
    counters_->record_seconds += NowSeconds() - start;
    ++counters_->record_calls;
  }

  void SaveState(threesigma::SnapshotWriter& writer) const override { inner_->SaveState(writer); }
  void RestoreState(threesigma::SnapshotReader& reader) override { inner_->RestoreState(reader); }

 private:
  threesigma::RuntimePredictor* inner_;
  LayerCounters* counters_;
};

class TimedScheduler final : public threesigma::Scheduler {
 public:
  // `inner` and `counters` must outlive the decorator.
  TimedScheduler(threesigma::Scheduler* inner, LayerCounters* counters)
      : inner_(inner), counters_(counters) {}

  void OnJobArrival(const threesigma::JobSpec& spec, threesigma::Time now) override {
    Callback cb(counters_, "sched.on_arrival", spec.id);
    inner_->OnJobArrival(spec, now);
  }
  void OnJobStarted(threesigma::JobId id, int group, threesigma::Time now) override {
    Callback cb(counters_, "sched.on_started", id);
    inner_->OnJobStarted(id, group, now);
  }
  void OnJobFinished(threesigma::JobId id, threesigma::Time now,
                     threesigma::Duration observed_runtime) override {
    Callback cb(counters_, "sched.on_finished", id);
    inner_->OnJobFinished(id, now, observed_runtime);
  }
  void OnJobPreempted(threesigma::JobId id, threesigma::Time now) override {
    Callback cb(counters_, "sched.on_preempted", id);
    inner_->OnJobPreempted(id, now);
  }
  void OnJobFaultKilled(threesigma::JobId id, threesigma::Time now) override {
    Callback cb(counters_, "sched.on_fault_killed", id);
    inner_->OnJobFaultKilled(id, now);
  }
  void OnJobCancelled(threesigma::JobId id, threesigma::Time now) override {
    Callback cb(counters_, "sched.on_cancelled", id);
    inner_->OnJobCancelled(id, now);
  }
  void OnCapacityChanged(int group, int available_nodes, threesigma::Time now) override {
    Callback cb(counters_, "sched.on_capacity", -1);
    inner_->OnCapacityChanged(group, available_nodes, now);
  }

  threesigma::CycleResult RunCycle(threesigma::Time now,
                                   const threesigma::ClusterStateView& state) override {
    SpanScope span("sched.run_cycle");
    const double start = NowSeconds();
    threesigma::CycleResult r = inner_->RunCycle(now, state);
    CycleSample s;
    s.seconds = NowSeconds() - start;
    s.solver_seconds = r.solver_seconds;
    s.milp_variables = r.milp_variables;
    s.milp_rows = r.milp_rows;
    s.milp_nodes = r.milp_nodes;
    s.incumbent_improvements = r.milp_incumbent_improvements;
    s.starts = static_cast<int>(r.start.size());
    s.preemptions = static_cast<int>(r.preempt.size());
    s.abandons = static_cast<int>(r.abandon.size());
    s.valuation_hits = r.valuation_cache_hits;
    s.valuation_misses = r.valuation_cache_misses;
    s.valuation_kernel_calls = r.valuation_kernel_calls;
    s.capacity_hits = r.capacity_cache_hits;
    s.capacity_misses = r.capacity_cache_misses;
    counters_->cycles.push_back(s);
    return r;
  }

  std::string name() const override { return inner_->name(); }

  void SaveState(threesigma::SnapshotWriter& writer) const override { inner_->SaveState(writer); }
  void RestoreState(threesigma::SnapshotReader& reader) override { inner_->RestoreState(reader); }

 private:
  // Times one notification callback (span + busy-time accumulation).
  class Callback {
   public:
    Callback(LayerCounters* counters, const char* name, int64_t job)
        : counters_(counters), span_(name, job), start_(NowSeconds()) {}
    ~Callback() { counters_->callback_seconds += NowSeconds() - start_; }
    Callback(const Callback&) = delete;
    Callback& operator=(const Callback&) = delete;

   private:
    LayerCounters* counters_;
    SpanScope span_;
    double start_;
  };

  threesigma::Scheduler* inner_;
  LayerCounters* counters_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
