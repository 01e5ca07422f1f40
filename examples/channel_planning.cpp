// Channel planning walkthrough: build a campus network, watch TurboCA plan
// it (vs the ReservedCA baseline), inspect the resulting channel layout,
// and handle a radar event on a DFS channel.
//
//   $ ./channel_planning [n_aps]

#include <cstdlib>
#include <iostream>
#include <map>

#include "common/table_printer.hpp"
#include "core/turboca/service.hpp"
#include "obs/audit.hpp"
#include "workload/topology.hpp"

using namespace w11;

namespace {

void report(const char* tag, flowsim::Network& net) {
  const auto ev = net.evaluate();
  auto lat = net.sample_tcp_latency(ev, 20, 0.0);
  std::map<std::string, int> channel_histogram;
  for (const auto& ap : net.aps()) ++channel_histogram[ap.channel.to_string()];

  std::cout << "\n--- " << tag << " ---\n";
  std::cout << "  served " << ev.total_throughput_mbps << " / offered "
            << ev.total_offered_mbps << " Mbps, median AP TCP latency "
            << lat.median() << " ms, switches so far " << net.total_switches()
            << "\n  channel layout:";
  int shown = 0;
  for (const auto& [ch, count] : channel_histogram) {
    std::cout << "  " << ch << " x" << count;
    if (++shown % 5 == 0) std::cout << "\n                 ";
  }
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  const int n_aps = argc > 1 ? std::atoi(argv[1]) : 60;

  workload::CampusConfig cc;
  cc.n_aps = n_aps;
  cc.buildings = std::max(2, n_aps / 10);
  cc.seed = 42;
  auto net = workload::make_campus(cc);
  std::cout << "Campus: " << net->ap_count()
            << " APs, fresh deployment (everyone on channel 36/20MHz).\n";

  turboca::NetworkHooks hooks;
  hooks.scan = [&net] { return net->scan(); };
  hooks.current_plan = [&net] { return net->current_plan(); };
  hooks.apply_plan = [&net](const ChannelPlan& p) { net->apply_plan(p); };

  report("before any planning", *net);

  // The baseline: sequential, isolated, fixed-width assignment.
  {
    turboca::ReservedCaService reserved({}, {}, hooks);
    reserved.run_now();
    report("after ReservedCA (fixed 40MHz, isolated per-AP)", *net);
  }

  // TurboCA: NetP-driven randomized sweeps, full i=2,1,0 schedule. The
  // attached audit records every ACC pick's NodeP term breakdown; the
  // decision table below explains each committed channel switch by the
  // per-width airtime/quality/penalty movement behind it (DESIGN.md §12).
  turboca::TurboCaService turbo({}, {}, hooks, Rng(8));
  obs::PlanAudit audit;
  turbo.engine().set_audit(&audit);
  turbo.run_now({2, 1, 0});
  report("after TurboCA (channel-bonding aware, NetP-optimized)", *net);
  std::cout << "  TurboCA NetP(log) = " << turbo.stats().last_netp_log
            << ", plans applied = " << turbo.stats().plans_applied << "\n";

  std::cout << "\n--- planner decision audit (switches only) ---\n";
  audit.write_table(std::cout, /*switches_only=*/true);

  // Radar! Any AP sitting on a DFS channel must vacate to its fallback.
  for (const auto& ap : net->aps()) {
    if (ap.channel.is_dfs()) {
      std::cout << "\nRadar event at " << ap.id << " on " << ap.channel
                << " -> falls back to ";
      net->radar_event(ap.id);
      std::cout << net->aps()[ap.id.value()].channel << "\n";
      break;
    }
  }

  // The 15-minute tier re-optimizes around the displaced AP.
  turbo.run_now({0});
  report("after post-radar TurboCA touch-up", *net);
  return 0;
}
