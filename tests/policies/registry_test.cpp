#include "policies/registry.h"

#include <gtest/gtest.h>

#include "core/engine.h"
#include "policies/quantum_rr.h"

namespace tempofair {
namespace {

TEST(Registry, CreatesEveryBuiltin) {
  for (const std::string& spec : builtin_policy_specs()) {
    const auto p = make_policy(spec);
    ASSERT_NE(p, nullptr) << spec;
    EXPECT_FALSE(p->name().empty());
  }
}

TEST(Registry, NamesMatchSpecs) {
  EXPECT_EQ(make_policy("rr")->name(), "rr");
  EXPECT_EQ(make_policy("srpt")->name(), "srpt");
  EXPECT_EQ(make_policy("sjf")->name(), "sjf");
  EXPECT_EQ(make_policy("fcfs")->name(), "fcfs");
  EXPECT_EQ(make_policy("setf")->name(), "setf");
  EXPECT_EQ(make_policy("wrr")->name(), "wrr");
  EXPECT_EQ(make_policy("mlfq")->name(), "mlfq");
}

TEST(Registry, WeightedPolicyNames) {
  EXPECT_EQ(make_policy("hdf")->name(), "hdf");
  EXPECT_EQ(make_policy("hrdf")->name(), "hrdf");
  EXPECT_EQ(make_policy("wprr")->name(), "wprr");
  EXPECT_TRUE(make_policy("hdf")->clairvoyant());
  EXPECT_TRUE(make_policy("hrdf")->clairvoyant());
  EXPECT_FALSE(make_policy("wprr")->clairvoyant());
}

TEST(Registry, ParsesLapsBeta) {
  const auto p = make_policy("laps:0.25");
  EXPECT_EQ(p->name(), "laps");
}

TEST(Registry, ParsesQuantumRrParameters) {
  const auto p = make_policy("qrr:0.5,0.01");
  auto* qrr = dynamic_cast<QuantumRoundRobin*>(p.get());
  ASSERT_NE(qrr, nullptr);
  EXPECT_DOUBLE_EQ(qrr->quantum(), 0.5);
}

TEST(Registry, QrrWithoutSwitchCost) {
  const auto p = make_policy("qrr:2.5");
  auto* qrr = dynamic_cast<QuantumRoundRobin*>(p.get());
  ASSERT_NE(qrr, nullptr);
  EXPECT_DOUBLE_EQ(qrr->quantum(), 2.5);
}

TEST(Registry, DefaultArgsWork) {
  EXPECT_NO_THROW((void)make_policy("laps"));
  EXPECT_NO_THROW((void)make_policy("qrr"));
}

TEST(Registry, RejectsUnknownPolicy) {
  EXPECT_THROW((void)make_policy("nope"), std::invalid_argument);
  EXPECT_THROW((void)make_policy(""), std::invalid_argument);
}

TEST(Registry, RejectsMalformedParameters) {
  EXPECT_THROW((void)make_policy("laps:abc"), std::invalid_argument);
  EXPECT_THROW((void)make_policy("qrr:1.0,xyz"), std::invalid_argument);
  EXPECT_THROW((void)make_policy("laps:2.0"), std::invalid_argument);  // beta > 1
  EXPECT_THROW((void)make_policy("qrr:-1"), std::invalid_argument);
  // A policy without parameters must not drop an argument silently.
  for (const char* spec : {"mlfq:0.5,3", "setf:0", "rr:2", "srpt:", "wprr:1"}) {
    try {
      (void)make_policy(spec);
      ADD_FAILURE() << spec << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(spec), std::string::npos)
          << e.what();
    }
  }
}

TEST(Registry, EveryBuiltinSimulatesACommonInstance) {
  const Instance inst = Instance::from_pairs(std::vector<std::pair<Time, Work>>{
      {0.0, 2.0}, {0.5, 1.0}, {1.0, 3.0}, {4.0, 0.5}});
  for (const std::string& spec : builtin_policy_specs()) {
    const auto p = make_policy(spec);
    const Schedule s = run(inst, *p).schedule;
    EXPECT_NO_THROW(s.validate()) << spec;
  }
}

}  // namespace
}  // namespace tempofair
