// campus_day: the §4.6 deployment loop on the 120-AP UNet-scale campus
// under TurboCaService. A simulated day is 96 steps of 15 minutes with
// diurnal load, interferer churn every 2 h and one radar strike at 11:00.
// Each step advances the planner (scan -> ScanIndex -> NBO at the i=0/1/2
// cadence), evaluates the network, and samples outcomes in business hours.
// The work is flowsim (scan, evaluate) and core/turboca.
//
// The planner runs on one lane. With nproc lanes its fine-grained fork/joins
// made firing latency follow host scheduling noise: across seeds the p90
// spread was ~40%, too wide for a yardstick. The exec layer stays measured
// on fleet_churn, where parallelism is one task per campus.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>

#include "core/turboca/service.hpp"
#include "exec/task_pool.hpp"
#include "workload.hpp"
#include "workload/topology.hpp"
#include "workload/traffic.hpp"

namespace perfbench {
namespace {

using namespace w11;

constexpr int kStepsPerDay = 96;
// An episode is two days from a fresh, unplanned network; its steps 0 and 1
// (step 1 is the first firing) are the set-up pass.
constexpr std::uint64_t kEpisodeSteps = 2 * kStepsPerDay;
constexpr std::uint64_t kSetupSteps = 2;

// The UNet deployment of bench/deployment.hpp, topology seed included: the
// campus is fixed and the benchmark seed drives the planner and the RF churn,
// so every seed plans the same network.
workload::CampusConfig unet() {
  workload::CampusConfig cc;
  cc.n_aps = 120;
  cc.buildings = 14;
  cc.campus_size_m = 700.0;
  cc.clients_per_ap_mean = 8.0;
  cc.offered_per_client_mbps = 1.2;
  cc.interferers_per_building = 1.0;
  cc.uplink_capacity = RateMbps{400.0};
  cc.seed = 601;
  return cc;
}

class CampusDay final : public Workload {
 public:
  explicit CampusDay(std::uint64_t seed) : seed_(seed) {
    // Each firing's ScanIndex fans out on the process-wide pool, which is
    // sized from W11_THREADS when first used; one lane keeps it serial too.
    setenv("W11_THREADS", "1", 1);
  }

  Setup setup() override {
    episode_ = 0;
    witness_ = Witness{};
    prefix_ = Snapshot{};
    return start_episode();
  }

  Pass measure(const StopRule& stop, SpanLog& spans, Ledger& ledger) override {
    Pass pass;
    spans_ = &spans;
    const double t_begin = wall_s();
    while ((pass.timed_s < stop.seconds ||
            pass.op_ms.size() < stop.min_samples || pass.ops < stop.min_ops) &&
           wall_s() - t_begin < stop.max_wall_s) {
      if (next_step_ == kEpisodeSteps) {
        ++episode_;
        (void)start_episode();
      }
      const Snapshot before = snapshot();
      const double c0 = process_cpu_s();
      const StepTimes t = step(ledger);
      pass.cpu_s += process_cpu_s() - c0;
      pass.timed_s += t.step_s;
      ++pass.ops;
      pass.work += 1.0;
      pass.seg_work += 1.0;
      pass.seg_time += t.step_s;
      if (next_step_ == kEpisodeSteps) pass.close_segment();
      const Snapshot after = snapshot();
      ledger.op(after.skips == before.skips, "planner firing skipped");
      if (after.firings > before.firings) {
        pass.op_ms.push_back(t.advance_s * 1e3);
        pass.par_wall_s += t.advance_s;
        pass.par_cpu_s += t.advance_cpu_s;
      }
      if (episode_ == 0 && next_step_ == kEpisodeSteps) {
        prefix_ = snapshot();
        record_witness();
      }
    }
    spans_ = &off_;
    return pass;
  }

  [[nodiscard]] std::uint64_t prefix_ops() const override {
    return kEpisodeSteps - kSetupSteps;
  }
  [[nodiscard]] const Witness& witness() const override { return witness_; }

  [[nodiscard]] std::map<std::string, double> layer_metrics(
      const std::map<std::string, double>& self_s) const override {
    const auto self = [&](const char* span) {
      const auto it = self_s.find(span);
      return it == self_s.end() ? 0.0 : it->second;
    };
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    const Snapshot& a = start_;
    const Snapshot& b = prefix_;
    const std::uint64_t probes =
        (b.cache_hits - a.cache_hits) + (b.cache_misses - a.cache_misses);
    return {
        {"flowsim.scan_ms", 1e3 * self("flowsim.scan")},
        {"flowsim.scan_calls", d(b.scan_calls - a.scan_calls)},
        {"flowsim.evaluate_ms", 1e3 * self("flowsim.evaluate")},
        {"flowsim.sample_ms", 1e3 * self("flowsim.sample")},
        {"flowsim.churn_ms", 1e3 * self("flowsim.churn")},
        {"flowsim.stats_cache_hit_ratio",
         probes > 0 ? d(b.cache_hits - a.cache_hits) / d(probes) : 0.0},
        {"turboca.firing_self_ms", 1e3 * self("turboca.advance_to")},
        {"turboca.apply_ms", 1e3 * self("turboca.apply")},
        {"turboca.firings", d(b.firings - a.firings)},
        {"turboca.picks", d(b.picks - a.picks)},
        {"turboca.switches", d(b.switches - a.switches)},
        {"flowsim.samples", d(b.samples - a.samples)},
    };
  }

  [[nodiscard]] std::string rate_name() const override {
    return "campus.steps_per_s";
  }
  [[nodiscard]] std::string latency_name() const override {
    return "campus.plan_ms";
  }
  [[nodiscard]] int lanes() const override {
    return std::max(pool_.workers(), exec::TaskPool::global().workers());
  }

 private:
  // Cumulative program counters at one instant.
  struct Snapshot {
    std::uint64_t firings = 0;
    std::uint64_t skips = 0;
    std::uint64_t picks = 0;
    std::uint64_t switches = 0;
    std::uint64_t scan_calls = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t samples = 0;
  };

  struct StepTimes {
    double step_s = 0.0;
    double advance_s = 0.0;
    double advance_cpu_s = 0.0;
  };

  // A fresh network and service for the current episode, with its own
  // planner and churn streams, through the set-up steps. Returns the
  // set-up's wall time and a fingerprint of its first plan.
  Setup start_episode() {
    const double t0 = wall_s();
    service_.reset();
    net_.reset();
    next_step_ = 0;
    day_gb_ = 0.0;
    days_gb_.clear();
    scan_calls_ = 0;
    samples_ = 0;
    net_ = workload::make_campus(unet());
    turboca::NetworkHooks hooks;
    hooks.scan = [this] {
      const int idx = spans_->open("flowsim.scan", next_step_);
      std::vector<ApScan> scans = net_->scan();
      spans_->close(idx);
      ++scan_calls_;
      return scans;
    };
    hooks.current_plan = [this] { return net_->current_plan(); };
    hooks.apply_plan = [this](const ChannelPlan& p) {
      const int idx = spans_->open("turboca.apply", next_step_);
      net_->apply_plan(p);
      spans_->close(idx);
    };
    const std::uint64_t episode_seed = derive_seed(seed_, episode_);
    service_ = std::make_unique<turboca::TurboCaService>(
        turboca::Params{}, turboca::TurboCaService::Schedule{},
        std::move(hooks), Rng(derive_seed(episode_seed, 1)));
    service_->engine().set_pool(&pool_);
    churn_rng_ = std::make_unique<Rng>(derive_seed(episode_seed, 2));
    switches_before_ = net_->total_switches();
    Ledger unused;
    for (std::uint64_t s = 0; s < kSetupSteps; ++s) step(unused);
    start_ = snapshot();
    return {wall_s() - t0, hex64(plan_hash(net_->current_plan())) + "/" +
                               std::to_string(service_->stats().runs)};
  }

  [[nodiscard]] Snapshot snapshot() const {
    const turboca::TurboCaService::Stats& st = service_->stats();
    Snapshot s;
    s.firings = static_cast<std::uint64_t>(st.runs);
    s.skips = static_cast<std::uint64_t>(st.empty_scan_skips +
                                         st.stale_scan_skips);
    s.picks = service_->engine().sweep_stats().picks;
    s.switches = static_cast<std::uint64_t>(net_->total_switches() -
                                            switches_before_);
    s.scan_calls = scan_calls_;
    s.cache_hits = service_->scan_stats_cache().stats().hits;
    s.cache_misses = service_->scan_stats_cache().stats().misses;
    s.samples = samples_;
    return s;
  }

  // One 15-minute step of the deployment loop.
  StepTimes step(Ledger& ledger) {
    SpanLog& log = *spans_;
    const std::uint64_t s = next_step_;
    const int in_day = static_cast<int>(s % kStepsPerDay);
    const double hour = in_day * 0.25;
    const Time now = time::minutes(15 * static_cast<std::int64_t>(s));
    StepTimes t;
    flowsim::Evaluation ev;
    const double w0 = wall_s();
    {
      SpanLog::Scope root(log, "campus.step", s);
      {
        SpanLog::Scope churn(log, "flowsim.churn", s);
        net_->set_load_factor(workload::diurnal_factor(hour));
        if (in_day % 8 == 0) net_->mutate_interferers(*churn_rng_);
        if (in_day == 44) {
          for (const auto& ap : net_->aps()) {
            if (ap.channel.is_dfs()) {
              net_->radar_event(ap.id);
              break;
            }
          }
        }
      }
      {
        SpanLog::Scope adv(log, "turboca.advance_to", s);
        const double a0 = wall_s();
        const double c0 = process_cpu_s();
        service_->advance_to(now);
        t.advance_cpu_s = process_cpu_s() - c0;
        t.advance_s = wall_s() - a0;
      }
      {
        SpanLog::Scope e(log, "flowsim.evaluate", s);
        ev = net_->evaluate();
      }
      day_gb_ += ev.total_throughput_mbps * 900.0 / 8e3;  // Mbps*s -> GB
      if (hour >= 9.0 && hour < 18.0 && in_day % 4 == 0) {
        SpanLog::Scope smp(log, "flowsim.sample", s);
        const Samples lat = net_->sample_tcp_latency(ev, 4);
        const Samples eff = net_->sample_bitrate_efficiency(ev);
        samples_ += lat.count() + eff.count();
      }
    }
    t.step_s = wall_s() - w0;
    ledger.op(ev.total_throughput_mbps > 0.0, "campus carried no traffic");
    ++next_step_;
    if (next_step_ % kStepsPerDay == 0) {
      days_gb_.push_back(day_gb_);
      day_gb_ = 0.0;
    }
    return t;
  }

  void record_witness() {
    for (std::size_t d = 0; d < days_gb_.size(); ++d)
      witness_.add("day" + std::to_string(d) + ".gb_bits",
                   double_bits(days_gb_[d]));
    witness_.add("switches", std::to_string(net_->total_switches() -
                                            switches_before_));
    witness_.add("plan_hash", hex64(plan_hash(net_->current_plan())));
  }

  std::uint64_t seed_;
  exec::TaskPool pool_{1};
  std::unique_ptr<flowsim::Network> net_;
  std::unique_ptr<turboca::TurboCaService> service_;
  std::unique_ptr<Rng> churn_rng_;
  SpanLog off_{false};
  SpanLog* spans_ = &off_;
  std::uint64_t episode_ = 0;
  std::uint64_t next_step_ = 0;
  int switches_before_ = 0;
  std::uint64_t scan_calls_ = 0;
  std::uint64_t samples_ = 0;
  double day_gb_ = 0.0;
  std::vector<double> days_gb_;
  Snapshot start_;
  Snapshot prefix_;
  Witness witness_;
};

}  // namespace

std::unique_ptr<Workload> make_campus_day(std::uint64_t seed) {
  return std::make_unique<CampusDay>(seed);
}

}  // namespace perfbench
