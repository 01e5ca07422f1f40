// testbed_fig16: the Fig. 13/16 packet-level testbed. One AP on an 80 MHz
// channel serves 5-30 clients, each with one saturating downlink TCP flow.
// A point is a baseline run and a FastACK run at the same seed, one after
// the other on one thread; points cycle through the client counts, with a
// fresh simulation seed per cycle. The DES layers (sim, mac, net, wlan,
// core/fastack) do all the work.

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "scenario/testbed.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace w11;

constexpr std::array<int, 6> kClients = {5, 10, 15, 20, 25, 30};
// Fig. 16 measures 6 s after a 2 s warmup. Simulating 3 s in all keeps a
// point near 0.15 s of host time, so half a timed pass gathers the 100
// points a p90 needs.
constexpr Time kWarmup = time::seconds(1);
constexpr Time kDuration = time::seconds(2);  // measured, after the warmup
constexpr double kMeasuredSeconds = 2.0;
// Trace recorder capacity: one FastACK run dispatches ~0.25M events.
constexpr std::size_t kTraceCapacity = std::size_t{1} << 20;

// Counters of one or more runs, all deterministic in the seed.
struct Counters {
  std::uint64_t events = 0;
  std::uint64_t traced_events = 0;
  std::uint64_t trace_dropped = 0;
  std::uint64_t txops = 0;
  std::uint64_t collisions = 0;
  double busy_s = 0.0;
  double sim_s = 0.0;
  std::uint64_t ampdus = 0;
  double ampdu_mpdus = 0.0;
  std::uint64_t segments_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t wire_deliveries = 0;
  std::uint64_t wire_drops = 0;
  std::uint64_t mpdus_acked = 0;
  std::uint64_t mpdus_lost = 0;
  std::uint64_t queue_drops = 0;
  std::uint64_t fast_acks = 0;
  std::uint64_t acks_suppressed = 0;
  std::uint64_t local_retransmits = 0;
  std::uint64_t bypassed_segments = 0;

  void add(const Counters& o) {
    events += o.events;
    traced_events += o.traced_events;
    trace_dropped += o.trace_dropped;
    txops += o.txops;
    collisions += o.collisions;
    busy_s += o.busy_s;
    sim_s += o.sim_s;
    ampdus += o.ampdus;
    ampdu_mpdus += o.ampdu_mpdus;
    segments_sent += o.segments_sent;
    retransmits += o.retransmits;
    wire_deliveries += o.wire_deliveries;
    wire_drops += o.wire_drops;
    mpdus_acked += o.mpdus_acked;
    mpdus_lost += o.mpdus_lost;
    queue_drops += o.queue_drops;
    fast_acks += o.fast_acks;
    acks_suppressed += o.acks_suppressed;
    local_retransmits += o.local_retransmits;
    bypassed_segments += o.bypassed_segments;
  }
};

struct RunResult {
  double goodput_mbps = 0.0;
  Counters counters;
};

// One point: its baseline and FastACK arms, and its wall time.
struct Point {
  std::uint64_t id = 0;
  RunResult arms[2];
  double ms = 0.0;
};

scenario::TestbedConfig config(int clients, bool fastack, std::uint64_t seed) {
  scenario::TestbedConfig cfg;
  cfg.n_clients_per_ap = clients;
  cfg.duration = kDuration;
  cfg.warmup = kWarmup;
  cfg.fastack = {fastack};
  cfg.seed = seed;
  return cfg;
}

Counters read_counters(scenario::Testbed& tb, int clients) {
  Counters c;
  const AccessPoint& ap = tb.ap(0);
  const mac::Medium& medium = tb.medium();
  c.txops = medium.txop_count();
  c.collisions = medium.collision_count();
  c.busy_s = static_cast<double>(medium.total_busy_time().ns()) * 1e-9;
  c.sim_s = static_cast<double>((kWarmup + kDuration).ns()) * 1e-9;
  for (int i = 0; i < clients; ++i) {
    const Samples& sizes = ap.ampdu_sizes(tb.client(0, i).id());
    c.ampdus += sizes.count();
    if (sizes.count() > 0)
      c.ampdu_mpdus += sizes.mean() * static_cast<double>(sizes.count());
    const TcpSender::Stats& s = tb.sender(0, i).stats();
    c.segments_sent += s.segments_sent;
    c.retransmits +=
        s.fast_retransmits + s.sack_retransmits + s.rto_retransmits;
  }
  for (const WiredLink* link : {&tb.down_link(0), &tb.up_link(0)}) {
    c.wire_deliveries += link->delivered_count();
    c.wire_drops += link->dropped_count();
  }
  const AccessPoint::Stats& as = ap.stats();
  for (int ac = 0; ac < 4; ++ac) {
    c.mpdus_acked += as.mpdus_acked_by_ac[static_cast<std::size_t>(ac)];
    c.mpdus_lost += as.mpdus_lost_by_ac[static_cast<std::size_t>(ac)];
  }
  c.queue_drops = as.queue_drops;
  if (const fastack::FastAckAgent* agent = tb.agent(0)) {
    const fastack::FlowStats& f = agent->stats();
    c.fast_acks = f.fast_acks_sent;
    c.acks_suppressed = f.client_acks_suppressed;
    c.local_retransmits = f.local_retransmits;
    c.bypassed_segments = f.bypassed_segments;
  }
  return c;
}

class TestbedFig16 final : public Workload {
 public:
  explicit TestbedFig16(std::uint64_t seed) : seed_(seed) {}

  // Set-up is testbed construction: every testbed of one client-count
  // cycle. Simulating is the measured work. The fingerprint digests the
  // client placements the seed drew.
  Setup setup() override {
    const double t0 = wall_s();
    next_point_ = 0;
    prefix_ = Counters{};
    witness_ = Witness{};
    double placement = 0.0;
    for (const int clients : kClients)
      for (const bool fastack : {false, true}) {
        scenario::Testbed tb(config(clients, fastack, point_seed(0)));
        for (int i = 0; i < clients; ++i)
          placement += tb.client(0, i).position().x +
                       2.0 * tb.client(0, i).position().y;
      }
    return {wall_s() - t0, double_bits(placement)};
  }

  // A timed pass (stop.seconds > 0) runs its points twice, the second time
  // after all of them, and keeps the faster execution of each point:
  // the host's speed drifts over seconds, and a slow stretch rarely covers
  // both executions, half a pass apart. Each replayed point must reproduce
  // its first execution exactly.
  Pass measure(const StopRule& stop, SpanLog& spans, Ledger& ledger) override {
    Pass pass;
    const double t_begin = wall_s();
    std::unique_ptr<obs::TraceRecorder> recorder;
    if (spans.enabled()) {
      recorder = std::make_unique<obs::TraceRecorder>(kTraceCapacity);
      recorder->set_enabled(true);
    }
    const bool replay = stop.seconds > 0.0;
    const double share = replay ? 0.5 : 1.0;
    std::vector<Point> points;
    while ((pass.timed_s < share * stop.seconds ||
            points.size() < stop.min_samples ||
            points.size() < stop.min_ops) &&
           wall_s() - t_begin < share * stop.max_wall_s) {
      const std::uint64_t id = next_point_++;
      // The recorder costs about as much as the dispatch it counts, so it
      // rides only on the pass's first point.
      obs::TraceRecorder* rec = points.empty() ? recorder.get() : nullptr;
      const Point p = run_point(id, spans, rec, pass);
      for (const RunResult& r : p.arms)
        ledger.op(r.goodput_mbps > 0.0 && r.counters.events > 0,
                  "testbed run delivered nothing");
      // The FastACK layer must engage on its arm and stay out of the other.
      ledger.op(p.arms[1].counters.fast_acks > 0 &&
                    p.arms[0].counters.fast_acks == 0,
                "FastACK arm did not engage or baseline arm was accelerated");
      if (rec)
        for (const RunResult& r : p.arms)
          ledger.op(r.counters.traced_events + r.counters.trace_dropped ==
                        r.counters.events,
                    "trace recorder missed dispatched events");
      if (id < kPrefixPoints) {
        const std::string key = "point" + std::to_string(id) + ".";
        const char* arm_name[2] = {"base", "fastack"};
        for (int a = 0; a < 2; ++a) {
          witness_.add(key + arm_name[a] + ".goodput_bits",
                       double_bits(p.arms[a].goodput_mbps));
          witness_.add(key + arm_name[a] + ".events",
                       std::to_string(p.arms[a].counters.events));
          prefix_.add(p.arms[a].counters);
        }
      }
      points.push_back(p);
    }
    if (replay) {
      pass.seg_work = 0.0;  // drop the partial cycle the first round ends in
      pass.seg_time = 0.0;
      SpanLog off(false);
      for (Point& p : points) {
        const Point again = run_point(p.id, off, nullptr, pass);
        for (int a = 0; a < 2; ++a)
          ledger.op(again.arms[a].goodput_mbps == p.arms[a].goodput_mbps &&
                        again.arms[a].counters.events ==
                            p.arms[a].counters.events,
                    "replayed testbed run differs from its first execution");
        p.ms = std::min(p.ms, again.ms);
      }
    }
    for (const Point& p : points) pass.op_ms.push_back(p.ms);
    pass.par_cpu_s = pass.cpu_s;
    pass.par_wall_s = pass.timed_s;
    return pass;
  }

  [[nodiscard]] std::uint64_t prefix_ops() const override {
    return kPrefixPoints;
  }
  [[nodiscard]] const Witness& witness() const override { return witness_; }

  [[nodiscard]] std::map<std::string, double> layer_metrics(
      const std::map<std::string, double>& self_s) const override {
    const Counters& c = prefix_;
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    const auto self = [&](const char* span) {
      const auto it = self_s.find(span);
      return it == self_s.end() ? 0.0 : it->second;
    };
    return {
        {"scenario.construct_ms", 1e3 * self("scenario.construct")},
        {"scenario.readout_ms", 1e3 * self("scenario.readout")},
        {"sim.run_ms", 1e3 * self("sim.run")},
        {"sim.ns_per_event",
         c.events > 0 ? 1e9 * self("sim.run") / d(c.events) : 0.0},
        {"sim.events", d(c.events)},
        {"sim.traced_events", d(c.traced_events)},
        {"sim.events_per_segment",
         c.segments_sent > 0 ? d(c.events) / d(c.segments_sent) : 0.0},
        {"net.wire_deliveries", d(c.wire_deliveries)},
        {"net.segments_sent", d(c.segments_sent)},
        {"net.retransmits", d(c.retransmits)},
        {"net.wire_drops", d(c.wire_drops)},
        {"mac.txops", d(c.txops)},
        {"mac.collisions", d(c.collisions)},
        {"mac.busy_fraction", c.sim_s > 0 ? c.busy_s / c.sim_s : 0.0},
        {"mac.ampdu_mean_mpdus",
         c.ampdus > 0 ? c.ampdu_mpdus / d(c.ampdus) : 0.0},
        {"wlan.mpdus_acked", d(c.mpdus_acked)},
        {"wlan.mpdus_lost", d(c.mpdus_lost)},
        {"wlan.queue_drops", d(c.queue_drops)},
        {"fastack.fast_acks", d(c.fast_acks)},
        {"fastack.acks_suppressed", d(c.acks_suppressed)},
        {"fastack.local_retransmits", d(c.local_retransmits)},
        {"fastack.bypassed_segments", d(c.bypassed_segments)},
    };
  }

  [[nodiscard]] bool rate_per_cpu_second() const override { return true; }
  [[nodiscard]] std::string rate_name() const override {
    return "testbed.mbit_per_cpu_s";
  }
  [[nodiscard]] std::string latency_name() const override {
    return "testbed.point_ms";
  }

 private:
  static constexpr std::uint64_t kPrefixPoints = kClients.size();

  [[nodiscard]] std::uint64_t point_seed(std::uint64_t point) const {
    return derive_seed(seed_, point / kClients.size());
  }

  // Both arms of one point, one after the other. Adds its wall time, CPU
  // time and goodput to `pass`, and closes a rate segment at the end of
  // each client-count cycle.
  Point run_point(std::uint64_t id, SpanLog& log, obs::TraceRecorder* recorder,
                  Pass& pass) {
    Point p;
    p.id = id;
    const double w0 = wall_s();
    const double c0 = process_cpu_s();
    {
      SpanLog::Scope root(log, "testbed.point", id);
      for (int a = 0; a < 2; ++a) p.arms[a] = run_arm(id, a == 1, log, recorder);
    }
    p.ms = 1e3 * (wall_s() - w0);
    pass.timed_s += 1e-3 * p.ms;
    const double cpu = process_cpu_s() - c0;
    pass.cpu_s += cpu;
    pass.seg_time += cpu;
    ++pass.ops;
    for (const RunResult& r : p.arms) {
      pass.work += r.goodput_mbps * kMeasuredSeconds;
      pass.seg_work += r.goodput_mbps * kMeasuredSeconds;
    }
    if ((id + 1) % kClients.size() == 0) pass.close_segment();
    return p;
  }

  // One arm of one point: construct, run, read out. Spans wrap each call
  // into the program; the recorder, when given, counts dispatched events
  // per kind.
  RunResult run_arm(std::uint64_t point, bool fastack, SpanLog& log,
                    obs::TraceRecorder* recorder) {
    const int clients = kClients[point % kClients.size()];
    int idx = log.open("scenario.construct", point);
    scenario::Testbed tb(config(clients, fastack, point_seed(point)));
    log.close(idx);
    if (recorder) tb.simulator().set_tracer(recorder);
    idx = log.open("sim.run", point);
    tb.run();
    log.close(idx);
    idx = log.open("scenario.readout", point);
    RunResult r;
    r.goodput_mbps = tb.aggregate_throughput_mbps();
    r.counters = read_counters(tb, clients);
    r.counters.events = tb.simulator().processed_events();
    log.close(idx);
    if (recorder) {
      tb.simulator().set_tracer(nullptr);
      for (const obs::TraceEvent& e : recorder->merged())
        if (e.kind == obs::TraceKind::kSimEvent) ++r.counters.traced_events;
      r.counters.trace_dropped = recorder->total_dropped();
      recorder->clear();
    }
    return r;
  }

  std::uint64_t seed_;
  std::uint64_t next_point_ = 0;
  Counters prefix_;
  Witness witness_;
};

}  // namespace

std::unique_ptr<Workload> make_testbed_fig16(std::uint64_t seed) {
  return std::make_unique<TestbedFig16>(seed);
}

}  // namespace perfbench
