#pragma once
// The §4.6 deployment experiment: UNet (university, uplink-limited) and
// MNet (museum, medium-limited), run over a multi-day diurnal timeline
// under either ReservedCA or TurboCA. Shared by the Table 2, Fig. 8 and
// Fig. 9 benches so all three report from the same runs.
//
// Scale note (documented in DESIGN.md): the paper's UNet is ~600 APs and
// MNet ~300; we run 1/5-scale topologies (120 / 60 APs) with uplink and
// load scaled accordingly — channel-plan dynamics are preserved, wall-clock
// stays bench-friendly.

#include <memory>

#include "common/stats.hpp"
#include "core/turboca/service.hpp"
#include "workload/topology.hpp"
#include "workload/traffic.hpp"

namespace w11::bench {

enum class Deployment { kUNet, kMNet };
enum class Algorithm { kReservedCA, kTurboCA };

struct DeploymentResult {
  std::vector<double> daily_usage_gb;  // per simulated day
  double peak_hour_usage_gb = 0.0;
  Samples tcp_latency_ms;      // business-hours samples
  Samples bitrate_efficiency;  // business-hours samples
  int channel_switches = 0;

  [[nodiscard]] double mean_daily_gb() const {
    double s = 0;
    for (double d : daily_usage_gb) s += d;
    return daily_usage_gb.empty() ? 0.0 : s / static_cast<double>(daily_usage_gb.size());
  }
  [[nodiscard]] double sigma_daily_gb() const {
    RunningStats rs;
    for (double d : daily_usage_gb) rs.add(d);
    return rs.stddev();
  }
};

inline std::unique_ptr<flowsim::Network> make_deployment(Deployment d) {
  workload::CampusConfig cc;
  if (d == Deployment::kUNet) {
    cc.n_aps = 120;  // 1/5 of ~600
    cc.buildings = 14;
    cc.campus_size_m = 700.0;
    cc.clients_per_ap_mean = 8.0;
    cc.offered_per_client_mbps = 1.2;
    cc.interferers_per_building = 1.0;
    // The WAN uplink, not the air, is UNet's bottleneck (§4.6.2).
    cc.uplink_capacity = RateMbps{400.0};
    cc.seed = 601;
  } else {
    cc.n_aps = 60;  // 1/5 of ~300
    cc.buildings = 4;  // museum wings: dense, strongly coupled
    cc.campus_size_m = 220.0;
    cc.building_size_m = 80.0;
    cc.clients_per_ap_mean = 10.0;
    cc.offered_per_client_mbps = 3.0;
    cc.interferers_per_building = 3.0;
    cc.seed = 301;
  }
  return workload::make_campus(cc);
}

// Run `days` simulated days under the given algorithm. Metrics are sampled
// every 15 minutes; business hours are 9:00-18:00.
inline DeploymentResult run_deployment(Deployment dep, Algorithm algo,
                                       int days = 3, std::uint64_t seed = 97) {
  auto net = make_deployment(dep);
  turboca::NetworkHooks hooks;
  hooks.scan = [&net] { return net->scan(); };
  hooks.current_plan = [&net] { return net->current_plan(); };
  hooks.apply_plan = [&net](const ChannelPlan& p) { net->apply_plan(p); };

  std::unique_ptr<turboca::TurboCaService> turbo;
  std::unique_ptr<turboca::ReservedCaService> reserved;
  if (algo == Algorithm::kTurboCA) {
    turbo = std::make_unique<turboca::TurboCaService>(
        turboca::Params{}, turboca::TurboCaService::Schedule{}, hooks, Rng(seed));
  } else {
    reserved = std::make_unique<turboca::ReservedCaService>(
        turboca::ReservedCaService::Config{}, turboca::Params{}, hooks);
  }

  DeploymentResult res;
  Rng churn_rng(seed + 1);
  Rng sample_rng(seed + 2);
  const int switches_before = net->total_switches();

  for (int day = 0; day < days; ++day) {
    double day_gb = 0.0;
    for (int step = 0; step < 96; ++step) {  // 15-minute steps
      const double hour = step * 0.25;
      const Time now = time::hours(24 * day) + time::minutes(15 * step);

      net->set_load_factor(workload::diurnal_factor(hour));
      // RF churn: the interference landscape shifts every 2 hours.
      if (step % 8 == 0) net->mutate_interferers(churn_rng);
      // One radar event per day (11:00): an AP occupying a DFS channel must
      // vacate to its non-DFS fallback immediately (§4.5.2); the next CA
      // run re-optimizes around it.
      if (step == 44) {
        for (const auto& ap : net->aps()) {
          if (ap.channel.is_dfs()) {
            net->radar_event(ap.id);
            break;
          }
        }
      }

      if (turbo) turbo->advance_to(now);
      if (reserved) reserved->advance_to(now);

      const auto ev = net->evaluate();
      day_gb += ev.total_throughput_mbps * 900.0 / 8e3;  // Mbps*s -> GB

      const bool business = hour >= 9.0 && hour < 18.0;
      if (business && step % 4 == 0) {
        res.peak_hour_usage_gb =
            std::max(res.peak_hour_usage_gb, ev.total_throughput_mbps * 3600.0 / 8e3);
        auto lat = net->sample_tcp_latency(ev, 4);
        for (double v : lat.sorted()) res.tcp_latency_ms.add(v);
        auto eff = net->sample_bitrate_efficiency(ev);
        // Subsample efficiency to keep memory flat.
        for (std::size_t i = 0; i < eff.count(); i += 7)
          res.bitrate_efficiency.add(eff.sorted()[i]);
      }
    }
    res.daily_usage_gb.push_back(day_gb);
  }
  res.channel_switches = net->total_switches() - switches_before;
  return res;
}

}  // namespace w11::bench
