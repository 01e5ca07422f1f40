// Fault-injection subsystem tests: deterministic plans, the injector's two
// drive modes, degraded-scan decoration, the services' graceful-degradation
// guards, DFS radar chains, FastACK safe-disable/bounded-table behavior, and
// the seed x plan chaos soak that ties it all together.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/fastack/agent.hpp"
#include "core/turboca/service.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "fault/scan_fault.hpp"
#include "flowsim/network.hpp"
#include "scenario/testbed.hpp"
#include "telemetry/collector.hpp"
#include "workload/topology.hpp"

namespace w11 {
namespace {

using fault::DegradedScanHooks;
using fault::FaultEvent;
using fault::FaultHandlers;
using fault::FaultInjector;
using fault::FaultKind;
using fault::FaultPlan;
using fault::ScanFaultMode;

// ---------------------------------------------------------------- plans --

TEST(FaultPlan, BuildersExpandAndSortByTime) {
  FaultPlan plan("unit");
  plan.radar_burst(time::millis(10), /*ap=*/3, /*count=*/3, time::millis(5))
      .link_outage(time::millis(1), /*link=*/0, time::millis(30))
      .ap_crash(time::millis(12), 1)
      // A same-timestamp pair behind the latest event: it sorts into place
      // and keeps its insertion order.
      .telemetry_drop(time::millis(11), 2)
      .ap_crash(time::millis(11), 4);
  const auto& evs = plan.events();
  ASSERT_EQ(evs.size(), 8u);  // 3 radar + down/up pair + 3 single events
  for (std::size_t i = 1; i < evs.size(); ++i)
    EXPECT_LE(evs[i - 1].at, evs[i].at) << "events not time-sorted at " << i;
  EXPECT_EQ(evs.front().kind, FaultKind::kLinkDown);
  EXPECT_EQ(evs.front().at, time::millis(1));
  EXPECT_EQ(evs.back().kind, FaultKind::kLinkUp);
  EXPECT_EQ(evs.back().at, time::millis(31));
  // link-down@1, radar@10, then the 11 ms pair in insertion order.
  EXPECT_EQ(evs[2].at, time::millis(11));
  EXPECT_EQ(evs[2].kind, FaultKind::kTelemetryDrop);
  EXPECT_EQ(evs[3].at, time::millis(11));
  EXPECT_EQ(evs[3].kind, FaultKind::kApCrash);
  EXPECT_EQ(evs[3].target, 4);
  int radar_hits = 0;
  for (const auto& ev : evs)
    if (ev.kind == FaultKind::kRadar) {
      ++radar_hits;
      EXPECT_EQ(ev.target, 3);
    }
  EXPECT_EQ(radar_hits, 3);
}

TEST(FaultPlan, FlapIsRepeatedOutages) {
  FaultPlan plan;
  plan.link_flap(time::millis(100), /*link=*/1, /*flaps=*/2, time::millis(10));
  const auto& evs = plan.events();
  ASSERT_EQ(evs.size(), 4u);
  EXPECT_EQ(evs[0].kind, FaultKind::kLinkDown);
  EXPECT_EQ(evs[0].at, time::millis(100));
  EXPECT_EQ(evs[1].kind, FaultKind::kLinkUp);
  EXPECT_EQ(evs[1].at, time::millis(110));
  EXPECT_EQ(evs[2].kind, FaultKind::kLinkDown);
  EXPECT_EQ(evs[2].at, time::millis(120));
  EXPECT_EQ(evs[3].kind, FaultKind::kLinkUp);
  EXPECT_EQ(evs[3].at, time::millis(130));
}

TEST(FaultPlan, RandomPlansAreSeedDeterministic) {
  FaultPlan::RandomConfig cfg;
  cfg.horizon = time::seconds(5);
  cfg.n_aps = 4;
  cfg.n_links = 2;
  cfg.n_events = 10;
  const FaultPlan a = FaultPlan::random(42, cfg);
  const FaultPlan b = FaultPlan::random(42, cfg);
  EXPECT_EQ(a.events(), b.events());
  EXPECT_FALSE(a.empty());
  const FaultPlan c = FaultPlan::random(43, cfg);
  EXPECT_NE(a.events(), c.events());
  // Sorted regardless of the draw order.
  const auto& evs = a.events();
  for (std::size_t i = 1; i < evs.size(); ++i)
    EXPECT_LE(evs[i - 1].at, evs[i].at);
}

TEST(FaultPlan, EventToStringNamesEveryKind) {
  FaultPlan plan;
  plan.radar(time::millis(1), 0)
      .ap_crash(time::millis(2), 1)
      .scan_degrade(time::millis(3), ScanFaultMode::kPartial, 0.5)
      .link_outage(time::millis(4), 0, time::millis(5))
      .telemetry_drop(time::millis(10), 2)
      .clock_jump(time::millis(11), time::millis(7));
  for (const auto& ev : plan.events()) {
    EXPECT_NE(ev.to_string().find(fault::to_string(ev.kind)), std::string::npos)
        << ev.to_string();
  }
}

// -------------------------------------------------------------- injector --

TEST(FaultInjector, AdvanceFiresDueEventsOnceInOrder) {
  FaultPlan plan;
  plan.radar(time::millis(10), 0)
      .ap_crash(time::millis(20), 1)
      .radar(time::millis(30), 2);
  std::vector<int> radar_targets;
  int crashes = 0;
  FaultHandlers h;
  h.radar = [&](int ap) { radar_targets.push_back(ap); };
  h.ap_crash = [&](int) { ++crashes; };
  FaultInjector inj(plan, h);

  inj.advance_to(time::millis(15));
  EXPECT_EQ(inj.stats().fired, 1);
  // A rewound clock never re-fires (that is itself one of our faults).
  inj.advance_to(time::millis(5));
  EXPECT_EQ(inj.stats().fired, 1);
  inj.advance_to(time::millis(25));
  EXPECT_EQ(inj.stats().fired, 2);
  EXPECT_FALSE(inj.exhausted());
  inj.advance_to(time::seconds(1));
  EXPECT_TRUE(inj.exhausted());
  EXPECT_EQ(inj.stats().radar, 2);
  EXPECT_EQ(inj.stats().ap_crash, 1);
  EXPECT_EQ(inj.stats().unhandled, 0);
  EXPECT_EQ(crashes, 1);
  ASSERT_EQ(radar_targets.size(), 2u);
  EXPECT_EQ(radar_targets[0], 0);
  EXPECT_EQ(radar_targets[1], 2);
  // The log is the determinism witness: fired events in order.
  EXPECT_EQ(inj.log(), plan.events());
}

TEST(FaultInjector, MissingHandlerIsCountedNotFatal) {
  FaultPlan plan;
  plan.telemetry_drop(time::millis(1), 3);
  FaultInjector inj(plan, FaultHandlers{});
  inj.advance_to(time::millis(2));
  EXPECT_EQ(inj.stats().fired, 1);
  EXPECT_EQ(inj.stats().unhandled, 1);
  EXPECT_EQ(inj.stats().telemetry_drop, 1);
}

TEST(FaultInjector, ArmSchedulesOnSimulator) {
  FaultPlan plan;
  plan.radar(time::millis(5), 0).ap_crash(time::millis(7), 0);
  std::vector<std::pair<Time, FaultKind>> fired;
  Simulator sim;
  FaultHandlers h;
  h.radar = [&](int) { fired.emplace_back(sim.now(), FaultKind::kRadar); };
  h.ap_crash = [&](int) { fired.emplace_back(sim.now(), FaultKind::kApCrash); };
  FaultInjector inj(plan, h);
  inj.arm(sim);
  EXPECT_TRUE(inj.exhausted());  // handed off to the simulator
  sim.run();
  ASSERT_EQ(fired.size(), 2u);
  EXPECT_EQ(fired[0], (std::pair{time::millis(5), FaultKind::kRadar}));
  EXPECT_EQ(fired[1], (std::pair{time::millis(7), FaultKind::kApCrash}));
  // An armed injector rejects manual driving, and re-arming is an error.
  EXPECT_THROW(inj.advance_to(time::seconds(1)), std::logic_error);
  EXPECT_THROW(inj.arm(sim), std::logic_error);
}

// -------------------------------------------------------- scan decorator --

turboca::NetworkHooks hooks_for(flowsim::Network& net) {
  turboca::NetworkHooks h;
  h.scan = [&net] { return net.scan(); };
  h.current_plan = [&net] { return net.current_plan(); };
  h.apply_plan = [&net](const ChannelPlan& p) { net.apply_plan(p); };
  return h;
}

std::unique_ptr<flowsim::Network> small_net(int n_aps) {
  auto net = std::make_unique<flowsim::Network>(flowsim::Network::Config{});
  const ClientCapability cap{WifiStandard::k80211ac, true, ChannelWidth::MHz80,
                             2, true, true};
  for (int i = 0; i < n_aps; ++i) {
    const ApId id = net->add_ap(Position{20.0 * i, 0.0}, ChannelWidth::MHz80,
                                Channel{Band::G5, 36, ChannelWidth::MHz20});
    net->add_client(id, Position{20.0 * i + 3.0, 0.0}, cap, 5.0);
  }
  return net;
}

TEST(DegradedScanHooks, ModesCorruptTheCensus) {
  auto net = small_net(3);
  Time clock = time::minutes(1);
  DegradedScanHooks deg(hooks_for(*net), [&clock] { return clock; }, Rng(5));
  auto h = deg.hooks();

  // Healthy: full census stamped with the harness clock, and cached.
  auto scans = h.scan();
  ASSERT_EQ(scans.size(), 3u);
  for (const auto& s : scans) EXPECT_EQ(s.taken_at, time::minutes(1));

  deg.set_mode(ScanFaultMode::kEmpty);
  EXPECT_TRUE(h.scan().empty());

  deg.set_mode(ScanFaultMode::kPartial, /*keep_fraction=*/0.0);
  EXPECT_TRUE(h.scan().empty());
  deg.set_mode(ScanFaultMode::kPartial, /*keep_fraction=*/1.0);
  EXPECT_EQ(h.scan().size(), 3u);

  // Stale: the last healthy snapshot replayed with its original timestamp.
  clock = time::minutes(45);
  deg.set_mode(ScanFaultMode::kStale);
  scans = h.scan();
  ASSERT_EQ(scans.size(), 3u);
  for (const auto& s : scans) EXPECT_EQ(s.taken_at, time::minutes(1));

  const auto& st = deg.stats();
  EXPECT_EQ(st.scans_served, 5);
  EXPECT_EQ(st.scans_emptied, 1);
  EXPECT_EQ(st.scans_partial, 2);
  EXPECT_EQ(st.scans_stale, 1);
  EXPECT_EQ(st.aps_dropped, 3);
}

TEST(DegradedScanHooks, StaleBeforeAnyHealthySnapshotIsEmpty) {
  auto net = small_net(2);
  Time clock{};
  DegradedScanHooks deg(hooks_for(*net), [&clock] { return clock; }, Rng(5));
  deg.set_mode(ScanFaultMode::kStale);
  EXPECT_TRUE(deg.hooks().scan().empty());
}

TEST(DegradedScanHooks, PartialCensusIsSeedDeterministic) {
  auto run = [] {
    auto net = small_net(6);
    Time clock{};
    DegradedScanHooks deg(hooks_for(*net), [&clock] { return clock; }, Rng(9));
    deg.set_mode(ScanFaultMode::kPartial, 0.5);
    std::vector<std::uint32_t> kept;
    for (const auto& s : deg.hooks().scan()) kept.push_back(s.id.value());
    return kept;
  };
  EXPECT_EQ(run(), run());
}

// ----------------------------------------------- service degradation --

TEST(TurboCaService, EmptyScansSkipFiringAndRetryNextTick) {
  auto net = small_net(6);
  Time clock{};
  DegradedScanHooks deg(hooks_for(*net), [&clock] { return clock; }, Rng(3));
  turboca::TurboCaService svc({}, {}, deg.hooks(), Rng(7));

  deg.set_mode(ScanFaultMode::kEmpty);
  clock = time::minutes(16);
  svc.advance_to(clock);
  EXPECT_EQ(svc.stats().runs, 0);
  EXPECT_EQ(svc.stats().empty_scan_skips, 1);

  // A skipped firing does not advance the tier anchor: the next poll tick
  // retries instead of waiting out a whole period.
  deg.set_mode(ScanFaultMode::kHealthy);
  clock = time::minutes(17);
  svc.advance_to(clock);
  EXPECT_EQ(svc.stats().runs, 1);
  EXPECT_EQ(svc.stats().empty_scan_skips, 1);
}

TEST(TurboCaService, StaleScansSkipFiring) {
  auto net = small_net(6);
  Time clock = time::minutes(1);
  DegradedScanHooks deg(hooks_for(*net), [&clock] { return clock; }, Rng(3));
  turboca::TurboCaService::Schedule sched;
  sched.max_scan_age = time::minutes(30);
  turboca::TurboCaService svc({}, sched, deg.hooks(), Rng(7));

  (void)deg.hooks().scan();  // prime the healthy cache at t=1min
  deg.set_mode(ScanFaultMode::kStale);
  clock = time::minutes(40);
  svc.advance_to(clock);  // cache is 39 min old: rejected
  EXPECT_EQ(svc.stats().runs, 0);
  EXPECT_EQ(svc.stats().stale_scan_skips, 1);

  deg.set_mode(ScanFaultMode::kHealthy);
  clock = time::minutes(41);
  svc.advance_to(clock);
  EXPECT_EQ(svc.stats().runs, 1);
}

TEST(TurboCaService, BackwardsClockIsCountedAndIgnored) {
  auto net = small_net(6);
  turboca::TurboCaService svc({}, {}, hooks_for(*net), Rng(7));
  svc.advance_to(time::minutes(16));
  EXPECT_EQ(svc.stats().runs, 1);
  svc.advance_to(time::minutes(5));  // clock glitch: rewound feed
  EXPECT_EQ(svc.stats().runs, 1);
  EXPECT_EQ(svc.stats().clock_anomalies, 1);
  svc.advance_to(time::minutes(16));  // back at the high-water mark: no-op
  EXPECT_EQ(svc.stats().runs, 1);
  EXPECT_EQ(svc.stats().clock_anomalies, 1);
  svc.advance_to(time::minutes(31));  // normal service resumes
  EXPECT_EQ(svc.stats().runs, 2);
}

TEST(ReservedCaService, DegradedInputsAndClockGuards) {
  auto net = small_net(6);
  Time clock = time::minutes(1);
  DegradedScanHooks deg(hooks_for(*net), [&clock] { return clock; }, Rng(3));
  turboca::ReservedCaService::Config rcfg;
  rcfg.max_scan_age = time::minutes(30);
  turboca::ReservedCaService svc(rcfg, {}, deg.hooks());

  (void)deg.hooks().scan();  // healthy cache at t=1min
  deg.set_mode(ScanFaultMode::kEmpty);
  clock = time::hours(5);
  svc.advance_to(clock);
  EXPECT_EQ(svc.stats().runs, 0);
  EXPECT_EQ(svc.stats().empty_scan_skips, 1);

  deg.set_mode(ScanFaultMode::kStale);
  clock = time::hours(5) + time::minutes(15);
  svc.advance_to(clock);  // cache is hours old
  EXPECT_EQ(svc.stats().runs, 0);
  EXPECT_EQ(svc.stats().stale_scan_skips, 1);

  deg.set_mode(ScanFaultMode::kHealthy);
  clock = time::hours(5) + time::minutes(30);
  svc.advance_to(clock);
  EXPECT_EQ(svc.stats().runs, 1);

  svc.advance_to(time::hours(2));  // rewound clock
  EXPECT_EQ(svc.stats().clock_anomalies, 1);
  EXPECT_EQ(svc.stats().runs, 1);
}

// ------------------------------------------------------------ DFS radar --

TEST(RadarFallback, StrikeOnUncoveredDfsApStillEvacuates) {
  flowsim::Network net{flowsim::Network::Config{}};
  const ClientCapability cap{WifiStandard::k80211ac, true, ChannelWidth::MHz80,
                             2, true, true};
  // Placed directly on a DFS channel: no fallback has ever been computed.
  const ApId a = net.add_ap(Position{0, 0}, ChannelWidth::MHz80,
                            Channel{Band::G5, 52, ChannelWidth::MHz20});
  net.add_client(a, Position{3, 0}, cap, 5.0);

  net.radar_event(a);
  EXPECT_EQ(net.radar_evacuations(), 1);
  EXPECT_FALSE(net.aps()[0].channel.is_dfs());
  // Off DFS the fallback is cleared — nothing stale to mis-vacate to later.
  EXPECT_FALSE(net.aps()[0].dfs_fallback.has_value());

  net.radar_event(a);  // no-op off DFS
  EXPECT_EQ(net.radar_evacuations(), 1);
}

TEST(RadarFallback, ApplyPlanOntoDfsArmsNonDfsFallback) {
  flowsim::Network net{flowsim::Network::Config{}};
  const ClientCapability cap{WifiStandard::k80211ac, true, ChannelWidth::MHz80,
                             2, true, true};
  const ApId a = net.add_ap(Position{0, 0}, ChannelWidth::MHz80,
                            Channel{Band::G5, 36, ChannelWidth::MHz20});
  net.add_client(a, Position{3, 0}, cap, 5.0);

  net.apply_plan(ChannelPlan{{a, Channel{Band::G5, 100, ChannelWidth::MHz20}}});
  ASSERT_TRUE(net.aps()[0].dfs_fallback.has_value());
  EXPECT_FALSE(net.aps()[0].dfs_fallback->is_dfs());

  const Channel fallback = *net.aps()[0].dfs_fallback;
  net.radar_event(a);
  EXPECT_EQ(net.aps()[0].channel, fallback);
  EXPECT_FALSE(net.aps()[0].channel.is_dfs());
}

TEST(RadarFallback, BurstThroughInjectorNeverStrandsTheAp) {
  flowsim::Network net{flowsim::Network::Config{}};
  const ClientCapability cap{WifiStandard::k80211ac, true, ChannelWidth::MHz80,
                             2, true, true};
  const ApId a = net.add_ap(Position{0, 0}, ChannelWidth::MHz80,
                            Channel{Band::G5, 60, ChannelWidth::MHz20});
  net.add_client(a, Position{3, 0}, cap, 5.0);

  FaultPlan plan;
  plan.radar_burst(time::millis(0), 0, /*count=*/4, time::millis(5));
  FaultHandlers h;
  h.radar = [&](int ap) { net.radar_event(ApId{static_cast<std::uint32_t>(ap)}); };
  FaultInjector inj(plan, h);
  inj.advance_to(time::seconds(1));

  EXPECT_EQ(inj.stats().radar, 4);
  // The first strike evacuates to non-DFS; the rest are no-ops — the
  // fallback chain terminates instead of bouncing between DFS channels.
  EXPECT_EQ(net.radar_evacuations(), 1);
  EXPECT_FALSE(net.aps()[0].channel.is_dfs());
}

TEST(RadarFallback, RepeatStrikeWithinEpochDoesNotDoubleCountDegradation) {
  flowsim::Network net{flowsim::Network::Config{}};
  const ClientCapability cap{WifiStandard::k80211ac, true, ChannelWidth::MHz80,
                             2, true, true};
  const Channel ch52{Band::G5, 52, ChannelWidth::MHz20};
  const ApId a = net.add_ap(Position{0, 0}, ChannelWidth::MHz80, ch52);
  net.add_client(a, Position{3, 0}, cap, 5.0);

  net.radar_event(a);
  EXPECT_EQ(net.radar_evacuations(), 1);
  EXPECT_EQ(net.radar_duplicates(), 0);
  EXPECT_TRUE(net.radar_struck(ch52));
  const double disruption_after_first = net.disruption_client_seconds();

  // The planner (or a rollout revert) puts the AP back onto the channel
  // radar already cleared, before the non-occupancy epoch expires. The next
  // strike must still vacate the AP but not double-book the degradation
  // counters — this is the re-arm bug: each strike used to count as a fresh
  // evacuation no matter how many times the same channel was struck.
  net.apply_plan(ChannelPlan{{a, ch52}});
  ASSERT_EQ(net.aps()[0].channel, ch52);
  net.radar_event(a);
  EXPECT_FALSE(net.aps()[0].channel.is_dfs());  // still evacuates
  EXPECT_EQ(net.radar_evacuations(), 1);        // but counted once per epoch
  EXPECT_EQ(net.radar_duplicates(), 1);
  EXPECT_DOUBLE_EQ(net.disruption_client_seconds(), disruption_after_first);

  // A new non-occupancy epoch re-arms the channel: the next strike is a
  // genuine evacuation again.
  net.rearm_radar();
  EXPECT_FALSE(net.radar_struck(ch52));
  net.apply_plan(ChannelPlan{{a, ch52}});
  net.radar_event(a);
  EXPECT_EQ(net.radar_evacuations(), 2);
  EXPECT_EQ(net.radar_duplicates(), 1);
  EXPECT_GT(net.disruption_client_seconds(), disruption_after_first);
}

// -------------------------------------------- FastACK safe-disable / GC --

// Same minimal rig as test_fastack.cpp: one AP, agent installed, wire
// captured, segments driven by hand.
class FaultRig : public ::testing::Test {
 protected:
  void SetUp() override { init({}); }

  void init(fastack::FastAckAgent::Config cfg) {
    agent_.reset();
    client_.reset();
    ap_.reset();
    medium_.reset();
    wire_.clear();
    medium_ = std::make_unique<mac::Medium>(sim_, mac::MediumConfig{}, Rng(1));
    AccessPoint::Config acfg;
    acfg.id = ApId{0};
    ap_ = std::make_unique<AccessPoint>(sim_, *medium_, acfg, Rng(2));
    ClientStation::Config ccfg;
    ccfg.id = StationId{7};
    ccfg.pos = Position{5, 0};
    client_ = std::make_unique<ClientStation>(sim_, *medium_, ccfg, Rng(3));
    ap_->associate(client_.get());
    agent_ = std::make_unique<fastack::FastAckAgent>(sim_, *ap_, cfg);
    ap_->set_interceptor(agent_.get());
    ap_->set_wire_out([this](TcpSegment s) { wire_.push_back(std::move(s)); });
  }

  static TcpSegment data(FlowId flow, std::uint64_t seq,
                         std::uint32_t len = 1460) {
    TcpSegment seg;
    seg.flow = flow;
    seg.dst_station = StationId{7};
    seg.seq = seq;
    seg.payload = len;
    return seg;
  }

  static TcpSegment client_ack(FlowId flow, std::uint64_t ackno) {
    TcpSegment a;
    a.flow = flow;
    a.is_ack = true;
    a.ack = ackno;
    a.rwnd = 1'048'576;
    return a;
  }

  Simulator sim_;
  std::unique_ptr<mac::Medium> medium_;
  std::unique_ptr<AccessPoint> ap_;
  std::unique_ptr<ClientStation> client_;
  std::unique_ptr<fastack::FastAckAgent> agent_;
  std::vector<TcpSegment> wire_;
};

TEST_F(FaultRig, AnomalyRoutesToBypassNotException) {
  const FlowId f{1};
  TcpSegment seg = data(f, 0);
  agent_->on_downlink_data(seg);
  agent_->on_80211_delivered(data(f, 0));
  EXPECT_GT(agent_->stats().fast_acks_sent, 0u);

  agent_->inject_anomaly(f);
  TcpSegment next = data(f, 1460);
  // The poisoned flow drops to plain forwarding instead of throwing.
  EXPECT_EQ(agent_->on_downlink_data(next),
            TcpInterceptor::DataAction::kForward);
  EXPECT_EQ(agent_->stats().bypass_activations, 1u);
  EXPECT_EQ(agent_->stats().bypassed_segments, 1u);
  const fastack::FlowState* s = agent_->flow_state(f);
  ASSERT_NE(s, nullptr);
  EXPECT_TRUE(s->bypassed);
  EXPECT_TRUE(s->retx_cache.empty());  // heavy state released

  // Client ACKs pass upstream untouched: the sender's own machinery owns
  // recovery now.
  EXPECT_FALSE(agent_->on_uplink_ack(client_ack(f, 1460)));
  TcpSegment more = data(f, 2920);
  EXPECT_EQ(agent_->on_downlink_data(more),
            TcpInterceptor::DataAction::kForward);
  EXPECT_EQ(agent_->stats().bypassed_segments, 2u);
  EXPECT_EQ(agent_->stats().bypass_activations, 1u);  // activated once
}

TEST_F(FaultRig, BypassDisabledFailsHard) {
  fastack::FastAckAgent::Config cfg;
  cfg.bypass_on_anomaly = false;
  init(cfg);
  const FlowId f{1};
  TcpSegment seg = data(f, 0);
  agent_->on_downlink_data(seg);
  agent_->inject_anomaly(f);
  TcpSegment next = data(f, 1460);
  EXPECT_THROW(agent_->on_downlink_data(next), std::logic_error);
}

TEST_F(FaultRig, CorruptImportIsQuarantinedAtTheBorder) {
  fastack::FlowState bad;
  bad.initialized = true;
  bad.client = StationId{7};
  bad.seq_fack = 5000;  // fack > exp: impossible in a correct execution
  bad.seq_exp = 1000;
  bad.seq_high = 1000;
  agent_->import_flow(FlowId{2}, std::move(bad));
  const fastack::FlowState* s = agent_->flow_state(FlowId{2});
  ASSERT_NE(s, nullptr);
  EXPECT_TRUE(s->bypassed);
  EXPECT_EQ(agent_->stats().bypass_activations, 1u);
}

TEST_F(FaultRig, IdleFlowsAreGarbageCollected) {
  fastack::FastAckAgent::Config cfg;
  cfg.flow_idle_timeout = time::millis(10);
  init(cfg);
  TcpSegment s1 = data(FlowId{1}, 0);
  TcpSegment s2 = data(FlowId{2}, 0);
  agent_->on_downlink_data(s1);
  agent_->on_downlink_data(s2);
  sim_.run_until(time::millis(5));
  TcpSegment s1b = data(FlowId{1}, 1460);  // flow 1 stays active
  agent_->on_downlink_data(s1b);
  sim_.run_until(time::millis(12));

  agent_->gc_idle_flows();
  EXPECT_EQ(agent_->tracked_flows(), 1u);  // flow 2 idle 12ms > 10ms
  EXPECT_EQ(agent_->stats().flows_evicted_idle, 1u);
  EXPECT_NE(agent_->flow_state(FlowId{1}), nullptr);
  EXPECT_EQ(agent_->flow_state(FlowId{2}), nullptr);

  sim_.run_until(time::millis(30));
  agent_->gc_idle_flows();
  EXPECT_EQ(agent_->tracked_flows(), 0u);
  EXPECT_EQ(agent_->stats().flows_evicted_idle, 2u);
}

TEST_F(FaultRig, FlowTableStaysBounded) {
  fastack::FastAckAgent::Config cfg;
  cfg.max_flows = 4;
  init(cfg);
  for (std::uint32_t i = 11; i <= 16; ++i) {
    TcpSegment seg = data(FlowId{i}, 0);
    agent_->on_downlink_data(seg);
    EXPECT_LE(agent_->tracked_flows(), 4u);
  }
  EXPECT_EQ(agent_->tracked_flows(), 4u);
  EXPECT_EQ(agent_->stats().flows_evicted_capacity, 2u);
  // LRU with deterministic lowest-id tie-break: 11 and 12 made room.
  EXPECT_EQ(agent_->flow_state(FlowId{11}), nullptr);
  EXPECT_EQ(agent_->flow_state(FlowId{12}), nullptr);
  EXPECT_NE(agent_->flow_state(FlowId{13}), nullptr);
  EXPECT_NE(agent_->flow_state(FlowId{16}), nullptr);
}

TEST_F(FaultRig, CrashResetLosesEveryFlow) {
  TcpSegment s1 = data(FlowId{1}, 0);
  TcpSegment s2 = data(FlowId{2}, 0);
  agent_->on_downlink_data(s1);
  agent_->on_downlink_data(s2);
  agent_->crash_reset();
  EXPECT_EQ(agent_->tracked_flows(), 0u);
  EXPECT_EQ(agent_->stats().flows_lost_to_crash, 2u);
  // Flows re-create from scratch on the next segment.
  TcpSegment s3 = data(FlowId{1}, 99999);
  agent_->on_downlink_data(s3);
  EXPECT_EQ(agent_->tracked_flows(), 1u);
  EXPECT_FALSE(agent_->flow_state(FlowId{1})->bypassed);
}

// ------------------------------------------------- testbed-level faults --

TEST(TestbedFaults, ApCrashFlowsRecoverOrStallCleanly) {
  scenario::TestbedConfig cfg;
  cfg.n_aps = 2;
  cfg.n_clients_per_ap = 1;
  cfg.duration = time::seconds(4);
  cfg.warmup = time::millis(1);
  cfg.fastack = {true};
  cfg.seed = 5;
  scenario::Testbed tb(cfg);

  tb.simulator().schedule_at(time::seconds(1), [&] { tb.crash_ap(0); });
  std::uint64_t snap0 = 0, snap1 = 0;
  tb.simulator().schedule_at(time::millis(2500), [&] {
    snap0 = tb.client(0, 0).bytes_delivered();
    snap1 = tb.client(1, 0).bytes_delivered();
  });
  tb.run();

  EXPECT_GE(tb.agent(0)->stats().flows_lost_to_crash, 1u);
  // The untouched AP's flow keeps moving.
  EXPECT_GT(tb.client(1, 0).bytes_delivered(), snap1 + 100'000u);
  // The crashed AP's flow either recovers end to end, or — when the client
  // was stranded behind the lost fast-ACK point, bytes no one has any more —
  // degrades to a bounded zero-window stall (the honest PEP crash cost).
  const bool progressed =
      tb.client(0, 0).bytes_delivered() > snap0 + 100'000u;
  const auto& snd = tb.sender(0, 0);
  const bool clean_stall =
      snd.peer_rwnd() < 1460 || snd.stats().zero_window_probes > 0;
  EXPECT_TRUE(progressed || clean_stall)
      << "bytes " << snap0 << " -> " << tb.client(0, 0).bytes_delivered()
      << ", rwnd " << snd.peer_rwnd();
}

TEST(TestbedFaults, LinkFlapIsAbsorbedByRtoRecovery) {
  scenario::TestbedConfig cfg;
  cfg.n_aps = 1;
  cfg.n_clients_per_ap = 2;
  cfg.duration = time::seconds(4);
  cfg.warmup = time::millis(1);
  cfg.fastack = {true};
  cfg.seed = 11;
  scenario::Testbed tb(cfg);

  FaultPlan plan;
  plan.link_flap(time::seconds(1), 0, /*flaps=*/3, time::millis(50));
  FaultHandlers h;
  h.link_down = [&](int l) { tb.down_link(l).set_up(false); };
  h.link_up = [&](int l) { tb.down_link(l).set_up(true); };
  FaultInjector inj(plan, h);
  inj.arm(tb.simulator());

  std::vector<std::uint64_t> snap(2);
  tb.simulator().schedule_at(time::millis(2500), [&] {
    snap[0] = tb.client(0, 0).bytes_delivered();
    snap[1] = tb.client(0, 1).bytes_delivered();
  });
  tb.run();

  EXPECT_EQ(inj.stats().link_down, 3);
  EXPECT_TRUE(tb.down_link(0).is_up());
  EXPECT_GT(tb.down_link(0).outage_drops(), 0u);
  // Both flows resumed after the flaps: the outage is an RTO blip, not a
  // wedge.
  EXPECT_GT(tb.client(0, 0).bytes_delivered(), snap[0] + 100'000u);
  EXPECT_GT(tb.client(0, 1).bytes_delivered(), snap[1] + 100'000u);
}

// ------------------------------------------------------------ chaos soak --

// One testbed run under a random fault plan. Returns everything the
// determinism assertion needs to compare bit-for-bit.
struct SoakResult {
  std::vector<std::uint64_t> bytes;
  std::vector<FaultEvent> log;
  std::uint64_t bypass_activations = 0;
  std::uint64_t flows_lost = 0;
  bool anomaly_armed = false;
  bool ok = true;
};

SoakResult run_testbed_soak(std::uint64_t sim_seed, std::uint64_t plan_seed) {
  SoakResult r;
  scenario::TestbedConfig cfg;
  cfg.n_aps = 2;
  cfg.n_clients_per_ap = 2;
  cfg.duration = time::seconds(5);
  cfg.warmup = time::millis(200);
  cfg.fastack = {true};
  cfg.agent.max_flows = 8;
  cfg.seed = sim_seed;
  scenario::Testbed tb(cfg);

  FaultPlan::RandomConfig rc;
  rc.horizon = time::seconds(2);  // chaos window; the rest is recovery
  rc.n_aps = 2;
  rc.n_links = 2;
  rc.n_events = 5;
  rc.allow_radar = false;       // flowsim-side faults live in the other soak
  rc.allow_scan_faults = false;
  rc.allow_telemetry_faults = false;
  rc.allow_clock_faults = false;
  rc.max_outage = time::millis(300);
  FaultPlan plan = FaultPlan::random(plan_seed, rc);

  FaultHandlers h;
  h.ap_crash = [&](int ap) { tb.crash_ap(ap); };
  h.link_down = [&](int l) { tb.down_link(l).set_up(false); };
  h.link_up = [&](int l) { tb.down_link(l).set_up(true); };
  FaultInjector inj(plan, h);
  inj.arm(tb.simulator());

  // Well after the chaos window, poison one flow's state: the anomaly must
  // surface as a bypass activation, never as an exception.
  tb.simulator().schedule_at(time::millis(2600), [&] {
    if (tb.agent_mut(0)->flow_state(FlowId{0}) != nullptr) {
      tb.agent_mut(0)->inject_anomaly(FlowId{0});
      r.anomaly_armed = true;
    }
  });

  std::vector<std::uint64_t> snap(4);
  tb.simulator().schedule_at(time::millis(3600), [&] {
    for (int i = 0; i < 4; ++i)
      snap[static_cast<std::size_t>(i)] =
          tb.client(i / 2, i % 2).bytes_delivered();
  });

  tb.run();  // any W11_CHECK violation throws out of here

  for (int i = 0; i < 4; ++i) {
    const std::uint64_t fin = tb.client(i / 2, i % 2).bytes_delivered();
    r.bytes.push_back(fin);
    const auto& snd = tb.sender(i / 2, i % 2);
    const bool progressed = fin > snap[static_cast<std::size_t>(i)];
    const bool clean_stall =
        snd.peer_rwnd() < 1460 || snd.stats().zero_window_probes > 0;
    if (!(progressed || clean_stall)) r.ok = false;
  }
  for (int a = 0; a < 2; ++a) {
    r.bypass_activations += tb.agent(a)->stats().bypass_activations;
    r.flows_lost += tb.agent(a)->stats().flows_lost_to_crash;
    if (tb.agent(a)->tracked_flows() > cfg.agent.max_flows) r.ok = false;
  }
  r.log = inj.log();
  return r;
}

TEST(ChaosSoak, TestbedSurvivesRandomFaultPlans) {
  for (std::uint64_t sim_seed : {1u, 2u, 3u}) {
    for (std::uint64_t plan_seed : {11u, 12u, 13u, 14u}) {
      const SoakResult r = run_testbed_soak(sim_seed, plan_seed);
      EXPECT_TRUE(r.ok) << "sim seed " << sim_seed << ", plan seed "
                        << plan_seed;
      if (r.anomaly_armed) {
        EXPECT_GE(r.bypass_activations, 1u)
            << "sim seed " << sim_seed << ", plan seed " << plan_seed;
      }
    }
  }
}

TEST(ChaosSoak, TestbedRunIsReproducible) {
  const SoakResult a = run_testbed_soak(2, 12);
  const SoakResult b = run_testbed_soak(2, 12);
  EXPECT_EQ(a.log, b.log);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.bypass_activations, b.bypass_activations);
  EXPECT_EQ(a.flows_lost, b.flows_lost);
}

// The polling-loop half: radar, scan degradation, telemetry drops and clock
// glitches against the channel-assignment service and the collector.
struct PollResult {
  ChannelPlan plan;
  std::vector<FaultEvent> log;
  int switches = 0;
  int evacuations = 0;
  int runs = 0;
  int clock_anomalies = 0;
  std::uint64_t records_written = 0;
  std::uint64_t records_dropped = 0;
  bool ok = true;
};

PollResult run_polling_soak(std::uint64_t net_seed, std::uint64_t plan_seed) {
  PollResult r;
  workload::CampusConfig cc;
  cc.n_aps = 8;
  cc.seed = net_seed;
  auto net = workload::make_campus(cc);

  Time clock{};
  DegradedScanHooks deg(hooks_for(*net), [&clock] { return clock; },
                        Rng(net_seed * 31 + 7));
  turboca::TurboCaService::Schedule sched;
  sched.max_scan_age = time::hours(1);
  turboca::TurboCaService svc({}, sched, deg.hooks(), Rng(net_seed));
  telemetry::NetworkCollector coll;

  const Time horizon = time::hours(6);
  const Time step = time::minutes(15);

  FaultPlan::RandomConfig rc;
  rc.horizon = horizon;
  rc.n_aps = cc.n_aps;
  rc.n_events = 8;
  rc.allow_ap_crash = false;  // testbed-side faults live in the other soak
  rc.allow_link_faults = false;
  FaultPlan plan = FaultPlan::random(plan_seed, rc);

  Time last_observed{};
  FaultHandlers h;
  h.radar = [&](int ap) { net->radar_event(ApId{static_cast<std::uint32_t>(ap)}); };
  h.scan_degrade = [&](ScanFaultMode m, double keep) { deg.set_mode(m, keep); };
  h.telemetry_drop = [&](int n) { coll.drop_next(n); };
  h.clock_jump = [&](Time back) {
    // The harness clock glitches backwards, then the next tick recovers.
    svc.advance_to(last_observed - back);
  };
  FaultInjector inj(plan, h);

  std::uint64_t ticks = 0;
  for (Time t{}; t <= horizon; t = t + step, ++ticks) {
    clock = t;
    inj.advance_to(t);
    svc.advance_to(t);
    last_observed = t;
    const auto ev = net->evaluate();
    coll.record(*net, ev, t);
  }

  // No AP may ever end up stranded: on a DFS channel, a live non-DFS
  // fallback must be armed.
  for (const auto& ap : net->aps()) {
    if (ap.channel.is_dfs() &&
        !(ap.dfs_fallback.has_value() && !ap.dfs_fallback->is_dfs()))
      r.ok = false;
  }
  if (coll.records_written() + coll.records_dropped() != ticks) r.ok = false;

  r.plan = net->current_plan();
  r.log = inj.log();
  r.switches = net->total_switches();
  r.evacuations = net->radar_evacuations();
  r.runs = svc.stats().runs;
  r.clock_anomalies = svc.stats().clock_anomalies;
  r.records_written = coll.records_written();
  r.records_dropped = coll.records_dropped();
  if (r.clock_anomalies != inj.stats().clock_jump) r.ok = false;
  if (r.runs <= 0) r.ok = false;
  return r;
}

TEST(ChaosSoak, PollingLoopSurvivesRandomFaultPlans) {
  for (std::uint64_t net_seed : {1u, 2u}) {
    for (std::uint64_t plan_seed : {21u, 22u, 23u, 24u}) {
      const PollResult r = run_polling_soak(net_seed, plan_seed);
      EXPECT_TRUE(r.ok) << "net seed " << net_seed << ", plan seed "
                        << plan_seed << ", runs " << r.runs
                        << ", anomalies " << r.clock_anomalies;
    }
  }
}

TEST(ChaosSoak, PollingLoopIsReproducible) {
  const PollResult a = run_polling_soak(1, 23);
  const PollResult b = run_polling_soak(1, 23);
  EXPECT_EQ(a.log, b.log);
  EXPECT_EQ(a.plan, b.plan);
  EXPECT_EQ(a.switches, b.switches);
  EXPECT_EQ(a.evacuations, b.evacuations);
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.records_written, b.records_written);
}

}  // namespace
}  // namespace w11
