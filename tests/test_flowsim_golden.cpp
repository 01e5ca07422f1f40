// Golden determinism for flowsim::Network: FNV-1a digests over the bit
// patterns of every scan() field and every evaluate() metric, pinned across
// plan changes, interferer churn, diurnal load and radar strikes. Any change
// to how the network computes link budgets, neighbourhoods or interference
// must leave these digests untouched.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "flowsim/network.hpp"
#include "workload/topology.hpp"

namespace w11 {
namespace {

using flowsim::ApNode;
using flowsim::Network;

class Fnv {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void channel(const Channel& c) {
    i64(static_cast<int>(c.band));
    i64(c.number);
    i64(static_cast<int>(c.width));
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

void digest_scans(Fnv& h, const std::vector<ApScan>& scans) {
  h.u64(scans.size());
  for (const ApScan& s : scans) {
    h.u64(s.id.value());
    h.i64(static_cast<int>(s.band));
    h.channel(s.current);
    h.i64(static_cast<int>(s.max_width));
    h.u64(s.has_clients);
    h.u64(s.dfs_capable);
    h.u64(s.load_by_width.size());
    for (const auto& [w, l] : s.load_by_width) {
      h.i64(static_cast<int>(w));
      h.f64(l);
    }
    h.u64(s.neighbors.size());
    for (const NeighborReport& n : s.neighbors) {
      h.u64(n.id.value());
      h.f64(n.rssi);
    }
    h.u64(s.external_util.size());
    for (const auto& [c, u] : s.external_util) {
      h.i64(c);
      h.f64(u);
    }
    h.u64(s.quality.size());
    for (const auto& [c, q] : s.quality) {
      h.i64(c);
      h.f64(q);
    }
    h.f64(s.utilization_current);
    h.i64(s.taken_at.ns());
  }
}

void digest_evaluation(Fnv& h, const flowsim::Evaluation& ev) {
  h.u64(ev.per_ap.size());
  for (const flowsim::ApMetrics& m : ev.per_ap) {
    h.u64(m.id.value());
    h.f64(m.demand_airtime);
    h.f64(m.airtime_share);
    h.f64(m.utilization);
    h.f64(m.throughput_mbps);
    h.f64(m.offered_mbps);
    h.f64(m.mean_phy_rate_mbps);
    h.f64(m.mean_bitrate_efficiency);
    h.u64(m.client_efficiency.size());
    for (double e : m.client_efficiency) h.f64(e);
    h.i64(m.cochannel_interferers);
  }
  h.f64(ev.total_throughput_mbps);
  h.f64(ev.total_offered_mbps);
}

void digest_samples(Fnv& h, const Samples& s) {
  h.u64(s.count());
  for (double v : s.sorted()) h.f64(v);
}

// One observation round: scan (which draws scan noise from the network's
// stream), evaluate, and the samplers that read the link budget or draw
// from the same stream afterwards.
void observe(Fnv& h, Network& net) {
  digest_scans(h, net.scan());
  const flowsim::Evaluation ev = net.evaluate();
  digest_evaluation(h, ev);
  digest_samples(h, net.sample_client_rssi());
  digest_samples(h, net.sample_cochannel_interferers());
  digest_samples(h, net.sample_tcp_latency(ev, 2));
  h.i64(net.total_switches());
  h.f64(net.disruption_client_seconds());
  h.u64(net.clients_disrupted());
}

// A plan drawing every AP's channel from the full candidate set (DFS and
// all widths up to its max), so overlaps of every shape appear.
ChannelPlan random_plan(const Network& net, Rng& rng) {
  ChannelPlan plan;
  for (const ApNode& ap : net.aps()) {
    const auto cands = channels::candidate_set(net.config().band, ap.max_width,
                                               /*allow_dfs=*/true);
    plan[ap.id] = cands[rng.index(cands.size())];
  }
  return plan;
}

// Observe a network, then three rounds of re-plan, interferer churn, a
// diurnal load step and a radar strike on its first DFS AP, observing after
// each.
std::uint64_t churn_digest(Network& net, Rng& rng) {
  Fnv h;
  observe(h, net);
  for (int round = 0; round < 3; ++round) {
    net.apply_plan(random_plan(net, rng));
    observe(h, net);
    net.mutate_interferers(rng);
    net.set_load_factor(round == 1 ? 0.05 : 0.4 + 0.5 * round);
    observe(h, net);
    for (const ApNode& ap : net.aps()) {
      if (ap.channel.is_dfs()) {
        net.radar_event(ap.id);
        break;
      }
    }
    observe(h, net);
    net.rearm_radar();
  }
  return h.value();
}

std::uint64_t campus_digest(int n_aps, std::uint64_t seed) {
  workload::CampusConfig cc;
  cc.n_aps = n_aps;
  cc.buildings = std::max(2, n_aps / 12);
  cc.interferers_per_building = 1.5;
  cc.seed = seed;
  auto net = workload::make_campus(cc);
  Rng rng(seed ^ 0x90dULL);
  return churn_digest(*net, rng);
}

ClientCapability client(ChannelWidth w, int nss) {
  return ClientCapability{WifiStandard::k80211ac, true, w, nss, true, true};
}

// Insertion order the campus generator never uses: interferers added before
// later APs, and clients attached to an AP after later APs exist.
std::uint64_t hand_built_digest() {
  Network::Config cfg;
  cfg.scan_noise_sigma = 0.05;
  cfg.seed = 5;
  Network net(cfg);
  const Channel ch36{Band::G5, 36, ChannelWidth::MHz20};
  const Channel ch38{Band::G5, 38, ChannelWidth::MHz40};
  const Channel ch42{Band::G5, 42, ChannelWidth::MHz80};
  const Channel ch52{Band::G5, 52, ChannelWidth::MHz20};
  const Channel ch149{Band::G5, 149, ChannelWidth::MHz20};

  const ApId a = net.add_ap({0, 0}, ChannelWidth::MHz80, ch42);
  net.add_interferer({{12, 5}, ch36, 0.3, 20.0});
  net.add_client(a, {4, 1}, client(ChannelWidth::MHz80, 2), 6.0);
  const ApId b = net.add_ap({40, 10}, ChannelWidth::MHz40, ch38);
  net.add_interferer({{90, -20}, ch149, 0.5, 23.0});
  const ApId c = net.add_ap({75, 0}, ChannelWidth::MHz80, ch36);
  net.add_client(a, {-6, 3}, client(ChannelWidth::MHz40, 1), 3.0);
  net.add_client(b, {45, 14}, client(ChannelWidth::MHz80, 3), 9.0);
  const ApId d = net.add_ap({150, 30}, ChannelWidth::MHz20, ch52, false);
  net.add_interferer({{60, 60}, ch52, 0.2, 17.0});
  net.add_client(c, {80, 5}, client(ChannelWidth::MHz20, 1), 2.0);
  net.add_client(a, {2, -9}, client(ChannelWidth::MHz80, 4), 12.0);
  net.add_client(d, {148, 36}, client(ChannelWidth::MHz80, 2), 0.2);
  const ApId e = net.add_ap({20, 70}, ChannelWidth::MHz80, ch42);
  net.add_client(b, {38, 2}, client(ChannelWidth::MHz40, 2), 4.0);
  net.add_client(e, {25, 72}, client(ChannelWidth::MHz80, 2), 5.0);

  Fnv h;
  observe(h, net);
  Rng rng(99);
  for (int round = 0; round < 3; ++round) {
    net.apply_plan(random_plan(net, rng));
    observe(h, net);
    net.mutate_interferers(rng);
    net.set_load_factor(0.5 + round);
    observe(h, net);
    net.apply_channel(c, ch52);
    net.radar_event(c);
    observe(h, net);
  }
  return h.value();
}

// A campus-sized network with noisy scans, grown in a random insertion
// order: APs, clients of any AP added so far and interferers interleave, so
// the scan-noise draws run over a large neighbourhood built the way no
// generator builds one.
std::uint64_t noisy_mixed_digest(int n_aps, std::uint64_t seed) {
  Network::Config cfg;
  cfg.scan_noise_sigma = 0.05;
  cfg.seed = seed;
  Network net(cfg);
  Rng rng(seed ^ 0x5eedULL);
  const auto catalog = channels::us_catalog(Band::G5, ChannelWidth::MHz20);
  const ChannelWidth widths[] = {ChannelWidth::MHz20, ChannelWidth::MHz40,
                                 ChannelWidth::MHz80};
  const double side = 30.0 * std::sqrt(static_cast<double>(n_aps));
  while (static_cast<int>(net.ap_count()) < n_aps) {
    const double pick = rng.uniform();
    const double x = rng.uniform(0.0, side);
    const double y = rng.uniform(0.0, side);
    const Channel ch = catalog[rng.index(catalog.size())];
    if (net.ap_count() == 0 || pick < 0.2) {
      const ChannelWidth max_width = widths[rng.index(3)];
      const bool dfs_capable = rng.uniform() < 0.8;
      net.add_ap({x, y}, max_width, ch, dfs_capable);
    } else if (pick < 0.9) {
      const ApNode& ap = net.aps()[rng.index(net.ap_count())];
      const ChannelWidth width = widths[rng.index(3)];
      const int nss = static_cast<int>(rng.uniform_int(1, 4));
      const double load = rng.uniform(0.1, 10.0);
      net.add_client(ap.id, {ap.pos.x + (x - side / 2) / 10,
                             ap.pos.y + (y - side / 2) / 10},
                     client(width, nss), load);
    } else {
      const double duty = rng.uniform(0.05, 0.5);
      net.add_interferer({{x, y}, ch, duty, 20.0});
    }
  }
  return churn_digest(net, rng);
}

TEST(FlowsimGolden, Campus40Oracle) {
  EXPECT_EQ(campus_digest(40, 11), 0x31150f5ffcb3419cull);
}

TEST(FlowsimGolden, Campus120Oracle) {
  EXPECT_EQ(campus_digest(120, 601), 0x318b706102290b97ull);
}

TEST(FlowsimGolden, HandBuiltInsertionOrder) {
  EXPECT_EQ(hand_built_digest(), 0xe2c623433aa1d69bull);
}

TEST(FlowsimGolden, Mixed40NoisyScans) {
  EXPECT_EQ(noisy_mixed_digest(40, 12), 0x164620bb47394883ull);
}

TEST(FlowsimGolden, Mixed120NoisyScans) {
  EXPECT_EQ(noisy_mixed_digest(120, 23), 0x53f1d586305dcf77ull);
}

}  // namespace
}  // namespace w11
