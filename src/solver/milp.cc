#include "src/solver/milp.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "src/common/check.h"
#include "src/obs/registry.h"
#include "src/obs/trace.h"

namespace threesigma {
namespace {

// Node-selection rule: nodes popped off the DFS stack per batch. Every node
// of a batch is pre-pruned against the incumbent as of the batch start, so
// this constant decides which nodes a budgeted search explores.
constexpr int kBatchSize = 16;

// A branching decision along the current tree path.
struct BoundFix {
  int var;
  double lower;
  double upper;
};

struct Node {
  // Tree path: '0' for the floor child, '1' for the ceil child. Lexicographic
  // order on ids is the deterministic tie-break between equal-objective
  // incumbents; '~' (warm start) and a trailing 'r' (greedy rounding) sort
  // after real tree ids so exact tree solutions take precedence.
  std::string id;
  std::vector<BoundFix> fixes;  // Full path from the root.
  double parent_bound;          // LP bound of the parent (pruning hint).
  // The parent's optimal basis (shared between siblings). The child differs
  // from the parent by one bound change, so this basis is dual feasible for
  // the child and the LP re-optimizes in a few dual pivots.
  std::shared_ptr<const LpBasis> parent_basis;
};

bool IsIntegral(double v, double tol) { return std::fabs(v - std::round(v)) <= tol; }

}  // namespace

MilpSolver::MilpSolver(const LpModel& model, std::vector<int> integer_vars)
    : model_(model), integer_vars_(std::move(integer_vars)), columns_(model) {
  for (int v : integer_vars_) {
    TS_CHECK_GE(v, 0);
    TS_CHECK_LT(v, model_.num_variables());
  }
  for (const LpRow& row : model_.rows()) {
    if (row.sense != RowSense::kLessEqual) {
      all_rows_le_ = false;
    }
  }
}

bool MilpSolver::GreedyRound(const std::vector<double>& relaxed, std::vector<double>* out) {
  // Greedy only supports the scheduler's row shapes (all <=); bail otherwise
  // and let branch-and-bound find incumbents on its own.
  if (!all_rows_le_) {
    return false;
  }
  std::vector<double> x = relaxed;
  // Pull every integer variable down to its floor first (feasible for pure
  // <=-rows with non-negative coefficients, and a safe starting point
  // otherwise — final feasibility is re-checked at the end).
  for (int v : integer_vars_) {
    x[v] = std::floor(relaxed[v] + 1e-9);
  }
  // Row activities for the floored point.
  std::vector<double>& activity = greedy_activity_;
  activity.assign(static_cast<size_t>(model_.num_rows()), 0.0);
  for (int r = 0; r < model_.num_rows(); ++r) {
    for (const LpTerm& t : model_.row(r).terms) {
      activity[static_cast<size_t>(r)] += t.coeff * x[t.var];
    }
  }
  // Only a variable that can move up and has a non-negative objective is ever
  // raised; sort just those, most-fractional and highest-objective first,
  // lowest index breaking exact ties.
  std::vector<GreedyCandidate>& candidates = greedy_candidates_;
  candidates.clear();
  for (int v : integer_vars_) {
    const double target = std::min(std::ceil(relaxed[v] - 1e-9), model_.upper(v));
    if (target - x[v] > 0.0 && model_.objective(v) >= 0.0) {
      candidates.push_back(
          GreedyCandidate{relaxed[v] - std::floor(relaxed[v] + 1e-9), model_.objective(v), v});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const GreedyCandidate& a, const GreedyCandidate& b) {
              if (a.frac != b.frac) {
                return a.frac > b.frac;
              }
              if (a.objective != b.objective) {
                return a.objective > b.objective;
              }
              return a.var < b.var;
            });
  for (const GreedyCandidate& c : candidates) {
    const int v = c.var;
    const double target = std::min(std::ceil(relaxed[v] - 1e-9), model_.upper(v));
    // Re-read: a variable listed twice in integer_vars_ is raised only once.
    const double delta = target - x[v];
    if (delta <= 0.0) {
      continue;
    }
    const int begin = columns_.start[static_cast<size_t>(v)];
    const int end = columns_.start[static_cast<size_t>(v) + 1];
    bool fits = true;
    for (int k = begin; k < end; ++k) {
      const int r = columns_.row[static_cast<size_t>(k)];
      if (activity[static_cast<size_t>(r)] + columns_.val[static_cast<size_t>(k)] * delta >
          model_.row(r).rhs + 1e-9) {
        fits = false;
        break;
      }
    }
    if (!fits) {
      continue;
    }
    x[v] = target;
    for (int k = begin; k < end; ++k) {
      activity[static_cast<size_t>(columns_.row[static_cast<size_t>(k)])] +=
          columns_.val[static_cast<size_t>(k)] * delta;
    }
  }
  if (!model_.IsFeasible(x)) {
    return false;
  }
  *out = std::move(x);
  return true;
}

MilpSolution MilpSolver::Solve(const MilpOptions& options) {
  // Phase::kOther: this span nests inside the scheduler's kSolve scope, and
  // tagging it with a profiler phase would double-count the solve time.
  TS_OBS_SPAN("solver.milp", obs::Phase::kOther);
  // The time-limit check is the only clock read: nothing the solver returns
  // depends on wall clock unless the limit binds.
  const auto start_time = std::chrono::steady_clock::now();
  const auto out_of_time = [&]() {
    if (options.time_limit_seconds <= 0.0) {
      return false;
    }
    const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start_time;
    return elapsed.count() >= options.time_limit_seconds;
  };

  MilpSolution result;

  // Working copy whose bounds are set along each node's tree path, then
  // restored, and the one simplex workspace every node LP runs on (its rows
  // are model_'s, so it reads the solver's column index).
  LpModel work(model_);
  SimplexWorkspace workspace(work, columns_);

  // Install the warm start as the initial incumbent if it is valid.
  bool have_incumbent = false;
  std::vector<double> best;
  double best_obj = 0.0;
  std::string best_id = "~";  // Sorts after every tree id.
  if (!options.warm_start.empty() &&
      static_cast<int>(options.warm_start.size()) == model_.num_variables()) {
    bool integral = true;
    for (int v : integer_vars_) {
      if (!IsIntegral(options.warm_start[v], options.integrality_tol)) {
        integral = false;
        break;
      }
    }
    if (integral && model_.IsFeasible(options.warm_start)) {
      best = options.warm_start;
      best_obj = model_.ObjectiveValue(best);
      have_incumbent = true;
      result.warm_start_returned = true;
    }
  }

  // Accepts a candidate incumbent under the deterministic total order:
  // higher objective wins; equal objectives go to the lexicographically
  // smallest id. Returns whether the candidate replaced the incumbent.
  const auto consider_incumbent = [&](double obj, const std::string& id,
                                      std::vector<double>&& values, bool from_tree) {
    if (have_incumbent && !(obj > best_obj || (obj == best_obj && id < best_id))) {
      return false;
    }
    best = std::move(values);
    best_obj = obj;
    best_id = id;
    have_incumbent = true;
    if (from_tree) {
      result.warm_start_returned = false;
    }
    ++result.incumbent_improvements;
    return true;
  };

  std::vector<Node> stack;
  Node root{"", {}, kLpInfinity, nullptr};
  if (options.basis_warmstart && !options.root_basis.empty()) {
    // Cross-solve hint (e.g. the previous scheduling cycle's root basis).
    root.parent_basis = std::make_shared<const LpBasis>(options.root_basis);
  }
  stack.push_back(std::move(root));
  result.max_queue_depth = 1;

  std::vector<Node> batch;

  while (!stack.empty()) {
    if ((options.max_nodes > 0 && result.nodes_explored >= options.max_nodes) ||
        out_of_time()) {
      break;
    }

    int budget_room = std::numeric_limits<int>::max();
    if (options.max_nodes > 0) {
      budget_room = options.max_nodes - result.nodes_explored;
    }
    const int take = std::min({kBatchSize, static_cast<int>(stack.size()), budget_room});
    batch.clear();
    for (int i = 0; i < take; ++i) {
      batch.push_back(std::move(stack.back()));
      stack.pop_back();
    }
    // Incumbents found within the batch do not tighten its pre-prune bound.
    const double batch_bound =
        have_incumbent ? best_obj : -std::numeric_limits<double>::infinity();

    // Solve and commit in pop order; children go onto the stack, not into
    // this batch.
    const int n = static_cast<int>(batch.size());
    bool timed_out = false;
    for (int i = 0; i < n; ++i) {
      if (out_of_time()) {
        // Requeue this and the remaining nodes (reverse order keeps the pop
        // order intact).
        for (int j = n - 1; j >= i; --j) {
          stack.push_back(std::move(batch[static_cast<size_t>(j)]));
        }
        timed_out = true;
        break;
      }
      const Node& node = batch[static_cast<size_t>(i)];
      if (node.parent_bound <= batch_bound + 1e-9) {
        continue;  // Dominated subtree; not counted.
      }
      for (const BoundFix& fix : node.fixes) {
        work.SetVariableBounds(fix.var, fix.lower, fix.upper);
      }
      SimplexOptions lp_options;
      if (options.basis_warmstart && node.parent_basis != nullptr) {
        lp_options.start_basis = *node.parent_basis;
        // Solve in the full space: the parent basis is exactly dual feasible
        // there (the child differs by one bound change only), whereas each
        // node's presolve reduces a different variable subset and the mapped
        // basis loses that property. Fixed variables cost nothing unreduced —
        // pricing skips them.
        lp_options.presolve = false;
      }
      LpSolution relax = workspace.Solve(lp_options);
      for (const BoundFix& fix : node.fixes) {
        work.SetVariableBounds(fix.var, model_.lower(fix.var), model_.upper(fix.var));
      }
      ++result.nodes_explored;
      result.lp_iterations += relax.iterations;
      result.lp_phase1_iterations += relax.stats.phase1_iterations;
      result.lp_dual_iterations += relax.stats.dual_iterations;
      result.ftran_count += relax.stats.ftran;
      result.btran_count += relax.stats.btran;
      result.refactorizations += relax.stats.refactorizations;
      if (relax.stats.warm_basis_used) {
        ++result.warm_started_nodes;
      }
      if (node.id.empty() && relax.status == LpStatus::kOptimal) {
        result.root_basis = relax.basis;  // Exported for cross-solve reuse.
      }
      if (relax.status == LpStatus::kInfeasible) {
        continue;
      }
      if (relax.status == LpStatus::kUnbounded) {
        // Integral restriction of an unbounded relaxation: give up on
        // bounding and rely on incumbents only (does not occur for scheduler
        // models).
        continue;
      }
      if (have_incumbent && relax.objective <= best_obj + 1e-9) {
        continue;
      }

      // Find the most fractional integer variable.
      int branch_var = -1;
      double branch_frac = 0.0;
      for (int v : integer_vars_) {
        const double value = relax.values[v];
        if (!IsIntegral(value, options.integrality_tol)) {
          const double frac = std::fabs(value - std::round(value));
          if (frac > branch_frac) {
            branch_frac = frac;
            branch_var = v;
          }
        }
      }

      if (branch_var < 0) {
        // Integral solution: snap and accept.
        std::vector<double> snapped = relax.values;
        for (int v : integer_vars_) {
          snapped[v] = std::round(snapped[v]);
        }
        if (model_.IsFeasible(snapped)) {
          const double obj = model_.ObjectiveValue(snapped);
          consider_incumbent(obj, node.id, std::move(snapped), /*from_tree=*/true);
        }
        continue;
      }

      // Use a rounding pass for an early incumbent before descending.
      std::vector<double> rounded;
      ++result.greedy_rounds;
      if (GreedyRound(relax.values, &rounded)) {
        const double obj = model_.ObjectiveValue(rounded);
        if (consider_incumbent(obj, node.id + "r", std::move(rounded), /*from_tree=*/true)) {
          ++result.greedy_incumbents;
        }
      }

      // Branch: explore the nearest integer side first (pushed last). Both
      // children share this node's optimal basis as their warm start.
      std::shared_ptr<const LpBasis> child_basis;
      if (options.basis_warmstart && !relax.basis.empty()) {
        child_basis = std::make_shared<const LpBasis>(std::move(relax.basis));
      }
      const double value = relax.values[branch_var];
      const double floor_v = std::floor(value);
      const double ceil_v = std::ceil(value);
      Node down{node.id + "0", node.fixes, relax.objective, child_basis};
      down.fixes.push_back(BoundFix{branch_var, model_.lower(branch_var), floor_v});
      Node up{node.id + "1", node.fixes, relax.objective, child_basis};
      up.fixes.push_back(BoundFix{branch_var, ceil_v, model_.upper(branch_var)});
      if (value - floor_v >= 0.5) {
        stack.push_back(std::move(down));
        stack.push_back(std::move(up));
      } else {
        stack.push_back(std::move(up));
        stack.push_back(std::move(down));
      }
    }
    result.max_queue_depth =
        std::max(result.max_queue_depth, static_cast<int>(stack.size()));
    if (timed_out) {
      break;
    }
  }

  {
    struct MilpCounters {
      obs::Counter* solves;
      obs::Counter* nodes;
      obs::Counter* warm_started_nodes;
      obs::Counter* incumbent_improvements;
      obs::Counter* greedy_rounds;
      obs::Counter* greedy_incumbents;
      obs::Histogram* nodes_hist;
    };
    static const MilpCounters* const counters = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      auto* c = new MilpCounters();
      c->solves = reg.GetCounter("solver.milp_solves");
      c->nodes = reg.GetCounter("solver.milp_nodes");
      c->warm_started_nodes = reg.GetCounter("solver.milp_warm_started_nodes");
      c->incumbent_improvements = reg.GetCounter("solver.milp_incumbent_improvements");
      c->greedy_rounds = reg.GetCounter("solver.greedy_rounds");
      c->greedy_incumbents = reg.GetCounter("solver.greedy_incumbents");
      c->nodes_hist = reg.GetHistogram("solver.milp_nodes_per_solve",
                                       {0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0});
      return c;
    }();
    counters->solves->Increment();
    counters->nodes->Add(result.nodes_explored);
    counters->warm_started_nodes->Add(result.warm_started_nodes);
    counters->incumbent_improvements->Add(result.incumbent_improvements);
    counters->greedy_rounds->Add(result.greedy_rounds);
    counters->greedy_incumbents->Add(result.greedy_incumbents);
    counters->nodes_hist->Observe(static_cast<double>(result.nodes_explored));
  }
  if (!have_incumbent) {
    result.status = MilpStatus::kInfeasible;
    return result;
  }
  result.status = stack.empty() ? MilpStatus::kOptimal : MilpStatus::kFeasible;
  result.objective = best_obj;
  result.values = std::move(best);
  return result;
}

}  // namespace threesigma
