// BuildExperimentConfig range checks: every numeric flag with a bounded
// domain is rejected, with a message naming the flag and its range, instead
// of aborting inside a module, hanging, or running as some other value.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "src/core/config_flags.h"

namespace threesigma {
namespace {

TEST(ConfigFlagsTest, DefaultFlagsBuild) {
  const ExperimentFlags flags;
  ExperimentConfig config;
  std::string error;
  ASSERT_TRUE(BuildExperimentConfig(flags, &config, &error)) << error;
  EXPECT_EQ(config.cluster.num_groups(), 4);
  EXPECT_EQ(config.sched.solver_threads, 1);
  EXPECT_EQ(config.sched.solver_max_nodes, 6);
}

TEST(ConfigFlagsTest, BoundaryValuesBuild) {
  ExperimentFlags flags;
  flags.solver_max_nodes = 0;  // Unbudgeted.
  flags.solver_threads = 256;
  flags.groups = 1;
  flags.nodes_per_group = 1;
  flags.max_pending = 1;
  flags.start_slots = 1;
  flags.fault_mttf = 0.0;
  flags.fault_kill_prob = 1.0;
  flags.fault_straggler_factor = 1.0;
  flags.checkpoint_every = 0;
  flags.max_cycles = 0;
  ExperimentConfig config;
  std::string error;
  EXPECT_TRUE(BuildExperimentConfig(flags, &config, &error)) << error;
}

struct BadValue {
  std::string flag;
  std::function<void(ExperimentFlags&)> set;
};

TEST(ConfigFlagsTest, OutOfRangeValuesAreRejectedByName) {
  const std::vector<BadValue> cases = {
      {"hours", [](ExperimentFlags& f) { f.hours = -1.0; }},
      {"hours", [](ExperimentFlags& f) { f.hours = 0.0; }},
      {"load", [](ExperimentFlags& f) { f.load = 0.0; }},
      {"load", [](ExperimentFlags& f) { f.load = std::nan(""); }},
      {"groups", [](ExperimentFlags& f) { f.groups = 0; }},
      {"nodes-per-group", [](ExperimentFlags& f) { f.nodes_per_group = 0; }},
      {"cycle", [](ExperimentFlags& f) { f.cycle = 0.0; }},
      {"solver-threads", [](ExperimentFlags& f) { f.solver_threads = 0; }},
      {"solver-threads", [](ExperimentFlags& f) { f.solver_threads = 257; }},
      {"solver-max-nodes", [](ExperimentFlags& f) { f.solver_max_nodes = -3; }},
      {"max-pending", [](ExperimentFlags& f) { f.max_pending = 0; }},
      {"start-slots", [](ExperimentFlags& f) { f.start_slots = 0; }},
      {"fault-mttf", [](ExperimentFlags& f) { f.fault_mttf = -1.0; }},
      {"fault-mttr", [](ExperimentFlags& f) { f.fault_mttr = 0.0; }},
      {"fault-kill-prob", [](ExperimentFlags& f) { f.fault_kill_prob = 1.5; }},
      {"fault-straggler-prob", [](ExperimentFlags& f) { f.fault_straggler_prob = -0.1; }},
      {"fault-straggler-factor", [](ExperimentFlags& f) { f.fault_straggler_factor = 0.5; }},
      {"fault-stall-prob", [](ExperimentFlags& f) { f.fault_stall_prob = 2.0; }},
      {"checkpoint-every", [](ExperimentFlags& f) { f.checkpoint_every = -1; }},
      {"max-cycles", [](ExperimentFlags& f) { f.max_cycles = -1; }},
      {"obs-ring-capacity", [](ExperimentFlags& f) { f.obs_ring_capacity = 0; }},
      {"groups", [](ExperimentFlags& f) { f.groups = int64_t{1} << 40; }},
  };
  for (const BadValue& c : cases) {
    ExperimentFlags flags;
    c.set(flags);
    ExperimentConfig config;
    std::string error;
    EXPECT_FALSE(BuildExperimentConfig(flags, &config, &error)) << "--" << c.flag;
    EXPECT_NE(error.find("--" + c.flag + ":"), std::string::npos) << error;
    EXPECT_NE(error.find("allowed"), std::string::npos) << error;
  }
}

TEST(ConfigFlagsTest, MessageStatesTheRange) {
  ExperimentFlags flags;
  flags.solver_threads = 0;
  ExperimentConfig config;
  std::string error;
  ASSERT_FALSE(BuildExperimentConfig(flags, &config, &error));
  EXPECT_EQ(error, "flag --solver-threads: 0 is out of range; allowed: [1, 256]");
  flags = ExperimentFlags();
  flags.load = -1.0;
  ASSERT_FALSE(BuildExperimentConfig(flags, &config, &error));
  EXPECT_EQ(error, "flag --load: -1 is out of range; allowed: > 0");
}

}  // namespace
}  // namespace threesigma
