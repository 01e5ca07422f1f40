// FastACK datapath tracing (paper fn. 9): the agent's events on the process
// tracer's kFastAck category, and the rule that tracing a run never changes
// its results.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "core/fastack/agent.hpp"
#include "obs/gate.hpp"
#include "scenario/testbed.hpp"

namespace w11 {
namespace {

#if W11_OBS
using obs::TraceKind;

// Each test owns the process tracer: it starts empty and disabled, and is
// left that way.
class AgentTracing : public ::testing::Test {
 protected:
  void SetUp() override { reset_tracer(); }
  void TearDown() override { reset_tracer(); }

  static void reset_tracer() {
    obs::tracer().set_enabled(false);
    obs::tracer().set_category_mask(obs::kAllCategories);
    obs::tracer().clear();
  }

  static void trace_fastack_only() {
    obs::tracer().set_category_mask(
        obs::category_bit(obs::TraceCategory::kFastAck));
    obs::tracer().set_enabled(true);
  }

  // The tracer's kFastAck-category events, in merged order.
  static std::vector<obs::TraceEvent> fastack_events() {
    std::vector<obs::TraceEvent> out;
    for (const obs::TraceEvent& e : obs::tracer().merged())
      if (obs::category(e.kind) == obs::TraceCategory::kFastAck)
        out.push_back(e);
    return out;
  }
};

TEST_F(AgentTracing, DisabledByDefault) {
  scenario::TestbedConfig cfg;
  cfg.n_clients_per_ap = 2;
  cfg.duration = time::seconds(1);
  cfg.fastack = {true};
  scenario::Testbed tb(cfg);
  tb.run();
  EXPECT_GT(tb.agent(0)->stats().fast_acks_sent, 0u);
  EXPECT_EQ(obs::tracer().total_events(), 0u);
}

TEST_F(AgentTracing, RecordsTheExpectedEventSequence) {
  scenario::TestbedConfig cfg;
  cfg.n_clients_per_ap = 2;
  cfg.duration = time::millis(500);
  cfg.warmup = time::millis(0);
  cfg.fastack = {true};
  trace_fastack_only();
  scenario::Testbed tb(cfg);
  tb.run();
  obs::tracer().set_enabled(false);

  ASSERT_EQ(obs::tracer().total_dropped(), 0u) << "the ring must hold the run";
  const auto events = fastack_events();
  ASSERT_GT(events.size(), 100u);

  // Every event class of the steady state shows up.
  std::map<TraceKind, int> counts;
  for (const auto& e : events) ++counts[e.kind];
  EXPECT_EQ(counts[TraceKind::kFastAckFlowCreated], 2);
  EXPECT_GT(counts[TraceKind::kFastAckDataInOrder], 50);
  EXPECT_GT(counts[TraceKind::kFastAckAirAck], 50);
  EXPECT_GT(counts[TraceKind::kFastAckSynth], 50);
  EXPECT_GT(counts[TraceKind::kFastAckSuppress], 10);

  // The very first event of a flow is its creation.
  EXPECT_EQ(events.front().kind, TraceKind::kFastAckFlowCreated);

  // Timestamps are non-decreasing.
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_GE(events[i].ts_ns, events[i - 1].ts_ns);
}

TEST_F(AgentTracing, CapturesLossRecoveryStory) {
  // With bad hints the trace must show client dupacks followed by a local
  // retransmission burst — the §5.5.1 recovery in one readable dump.
  scenario::TestbedConfig cfg;
  cfg.n_clients_per_ap = 2;
  cfg.duration = time::seconds(2);
  cfg.fastack = {true};
  cfg.bad_hint_rate = 0.05;
  cfg.seed = 11;
  trace_fastack_only();
  scenario::Testbed tb(cfg);
  tb.run();
  obs::tracer().set_enabled(false);

  const auto events = fastack_events();
  bool saw_dupack_then_retx = false;
  for (std::size_t i = 0; i + 1 < events.size() && !saw_dupack_then_retx;
       ++i) {
    if (events[i].kind == TraceKind::kFastAckClientDupAck) {
      for (std::size_t j = i + 1; j < std::min(events.size(), i + 8); ++j) {
        if (events[j].kind == TraceKind::kFastAckCacheServe) {
          saw_dupack_then_retx = true;
          break;
        }
      }
    }
  }
  EXPECT_TRUE(saw_dupack_then_retx);
}

TEST_F(AgentTracing, TracingDoesNotPerturbTheTestbed) {
  // Observing must never change what is observed: the same FastACK run,
  // traced on every category and then untraced, ends bit-identical.
  struct Outcome {
    std::uint64_t digest = 0;
    std::uint64_t processed = 0;
    double goodput_mbps = 0.0;
    fastack::FlowStats stats;
  };
  auto run = [](bool traced) {
    scenario::TestbedConfig cfg;
    cfg.n_clients_per_ap = 3;
    cfg.duration = time::millis(800);
    cfg.warmup = time::millis(200);
    cfg.fastack = {true};
    cfg.bad_hint_rate = 0.05;  // so the recovery paths fire
    cfg.seed = 5;
    scenario::Testbed tb(cfg);
    tb.simulator().enable_event_trace(/*capacity=*/0);
    if (traced) {
      obs::tracer().set_enabled(true);
      tb.simulator().set_tracer(&obs::tracer());
    }
    tb.run();
    if (traced) {
      tb.simulator().set_tracer(nullptr);
      obs::tracer().set_enabled(false);
    }
    return Outcome{tb.simulator().event_digest(),
                   tb.simulator().processed_events(),
                   tb.aggregate_throughput_mbps(), tb.agent(0)->stats()};
  };

  const Outcome traced = run(true);
  EXPECT_FALSE(fastack_events().empty());
  const std::uint64_t recorded = obs::tracer().total_events();
  const Outcome bare = run(false);
  EXPECT_EQ(obs::tracer().total_events(), recorded);

  EXPECT_GT(traced.stats.local_retransmits, 0u);
  EXPECT_EQ(traced.digest, bare.digest);
  EXPECT_EQ(traced.processed, bare.processed);
  EXPECT_EQ(traced.goodput_mbps, bare.goodput_mbps);
  EXPECT_EQ(traced.stats, bare.stats);
}
#endif  // W11_OBS

}  // namespace
}  // namespace w11
