// fleet_churn: a ~10k-AP, 640-campus population through FleetController on
// a TaskPool of `lanes` lanes. An episode starts with one full census, then
// offers a series of 15-minute polls as DeltaEpochs (25% spectrum churn,
// 1% member churn). Delivered plans go through ctrl::PlanFanout and
// telemetry::FleetIngest, as in scenario::run_fleet_scenario.
//
// The census trajectory (make_fleet_scans + evolve_population) is built once,
// before anything is timed, and every episode replays it on a fresh
// controller: member churn merges campuses as it accumulates, so replaying
// a fixed trajectory keeps the work of every episode the same. Only
// offer_delta, tick (with its plan sink) and the telemetry fan-out are
// timed.

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ctrl/fanout.hpp"
#include "exec/task_pool.hpp"
#include "fleet/controller.hpp"
#include "scenario/fleet_harness.hpp"
#include "telemetry/fleet_ingest.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace w11;

constexpr int kEpisodePolls = 8;  // delta polls after the full census
constexpr double kSpectrumChurn = 0.25;
constexpr double kMemberChurn = 0.01;
constexpr Time kPoll = time::minutes(15);

Time poll_time(int p) { return kPoll * static_cast<std::int64_t>(p + 1); }

class FleetChurn final : public Workload {
 public:
  FleetChurn(std::uint64_t seed, int lanes) : seed_(seed), pool_(lanes) {
    pop_.campuses = 640;
    pop_.aps_min = 10;
    pop_.aps_max = 22;
    pop_.seed = derive_seed(seed, 1);
    census_ = scenario::make_fleet_scans(pop_, Time{});
    for (ApScan& s : census_) s.taken_at = poll_time(0);
    std::vector<ApScan> scans = census_;
    std::uint32_t next_id = scans.empty() ? 0 : scans.back().id.value() + 1;
    for (int p = 1; p <= kEpisodePolls; ++p)
      deltas_.push_back(scenario::evolve_population(
          scans, pop_, kSpectrumChurn, kMemberChurn, derive_seed(seed, 100 + p),
          next_id, poll_time(p - 1), poll_time(p)));
  }

  Setup setup() override {
    witness_ = Witness{};
    episodes_ = 0;
    const double seconds = start_episode();
    return {seconds, hex64(controller_->plan_digest())};
  }

  Pass measure(const StopRule& stop, SpanLog& spans, Ledger& ledger) override {
    Pass pass;
    spans_ = &spans;
    const double t_begin = wall_s();
    while ((pass.timed_s < stop.seconds ||
            pass.op_ms.size() < stop.min_samples || pass.ops < stop.min_ops) &&
           wall_s() - t_begin < stop.max_wall_s) {
      if (next_poll_ > kEpisodePolls) {
        finish_episode(ledger);
        start_episode();
      }
      // Input preparation: a copy of the pre-built delta, outside timing.
      const fleet::DeltaEpoch& planned_delta =
          deltas_[static_cast<std::size_t>(next_poll_ - 1)];
      fleet::DeltaEpoch delta = planned_delta;
      const Time now = poll_time(next_poll_);
      const fleet::FleetController::Stats before = controller_->stats();
      const std::uint64_t op = op_;

      const double w0 = wall_s();
      const double poll_c0 = process_cpu_s();
      double tick_s = 0.0;
      double tick_cpu_s = 0.0;
      {
        SpanLog::Scope root(spans, "fleet.poll", op);
        bool offered = false;
        {
          SpanLog::Scope o(spans, "fleet.offer", op);
          offered = controller_->offer_delta(std::move(delta));
        }
        ledger.op(offered, "epoch dropped");
        {
          SpanLog::Scope t(spans, "fleet.tick", op);
          const double c0 = process_cpu_s();
          const double t0 = wall_s();
          controller_->tick(now);
          tick_s = wall_s() - t0;
          tick_cpu_s = process_cpu_s() - c0;
          spans.add_reported(t.index(), "fleet.ingest",
                             controller_->stats().ingest_seconds -
                                 before.ingest_seconds);
        }
        {
          SpanLog::Scope tel(spans, "telemetry.ingest_scans", op);
          ingest_scans(now, planned_delta);
        }
      }
      const double dt = wall_s() - w0;
      pass.timed_s += dt;
      pass.cpu_s += process_cpu_s() - poll_c0;
      pass.par_wall_s += tick_s;
      pass.par_cpu_s += tick_cpu_s;
      pass.op_ms.push_back(tick_s * 1e3);
      ++pass.ops;

      const fleet::FleetController::Stats& after = controller_->stats();
      const double planned =
          static_cast<double>(after.aps_planned - before.aps_planned);
      pass.work += planned;
      pass.seg_work += planned;
      pass.seg_time += dt;
      if (next_poll_ == kEpisodePolls) pass.close_segment();
      ledger.attempt(after.jobs_run - before.jobs_run);
      ledger.fail("job deferred", after.jobs_deferred - before.jobs_deferred);
      ledger.attempt(after.jobs_deferred - before.jobs_deferred);
      ledger.fail("delta rejected",
                  after.deltas_rejected - before.deltas_rejected);
      ledger.fail("epoch dropped (controller)",
                  after.epochs_dropped - before.epochs_dropped);
      ledger.op(after.plans_delivered - before.plans_delivered ==
                    after.jobs_run - before.jobs_run,
                "plans delivered differ from jobs run");

      if (episodes_ == 0 && next_poll_ == kEpisodePolls) {
        prefix_ = counters();
        prefix_plan_ms_ = plan_ms_;
        witness_.add("plan_digest", hex64(controller_->plan_digest()));
        witness_.add("fleet_plan_hash",
                     hex64(plan_hash(controller_->fleet_plan())));
        witness_.add("fleet_aps", std::to_string(controller_->fleet_aps()));
      }
      ++next_poll_;
      ++op_;
    }
    spans_ = &off_;
    return pass;
  }

  [[nodiscard]] std::uint64_t prefix_ops() const override {
    return kEpisodePolls;
  }
  [[nodiscard]] const Witness& witness() const override { return witness_; }

  [[nodiscard]] std::map<std::string, double> layer_metrics(
      const std::map<std::string, double>& self_s) const override {
    const auto self = [&](const char* span) {
      const auto it = self_s.find(span);
      return it == self_s.end() ? 0.0 : it->second;
    };
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    const Counters& a = start_;
    const Counters& b = prefix_;
    const std::uint64_t probes = (b.st.cache_hits - a.st.cache_hits) +
                                 (b.st.cache_misses - a.st.cache_misses);
    const std::vector<double> plan_ms(prefix_plan_ms_.begin() +
                                          static_cast<std::ptrdiff_t>(a.plans),
                                      prefix_plan_ms_.end());
    double plan_cpu_ms = 0.0;
    for (const double v : plan_ms) plan_cpu_ms += v;
    return {
        {"fleet.tick_self_ms", 1e3 * self("fleet.tick")},
        {"fleet.offer_ms", 1e3 * self("fleet.offer")},
        {"fleet.ingest_ms", 1e3 * self("fleet.ingest")},
        {"fleet.plan_cpu_ms", plan_cpu_ms},
        {"fleet.campus_plan_ms.p50", percentile(plan_ms, 0.50).value},
        {"fleet.campus_plan_ms.p99", percentile(plan_ms, 0.99).value},
        {"fleet.jobs_run", d(b.st.jobs_run - a.st.jobs_run)},
        {"fleet.aps_repartitioned",
         d(b.st.aps_repartitioned - a.st.aps_repartitioned)},
        {"fleet.cache_hit_ratio",
         probes > 0 ? d(b.st.cache_hits - a.st.cache_hits) / d(probes) : 0.0},
        {"fleet.jobs_deferred", d(b.st.jobs_deferred - a.st.jobs_deferred)},
        {"fleet.epochs_dropped", d(b.st.epochs_dropped - a.st.epochs_dropped)},
        {"ctrl.commit_us", 1e6 * self("ctrl.commit")},
        {"ctrl.plans_committed", d(b.committed - a.committed)},
        {"telemetry.ingest_plan_us", 1e6 * self("telemetry.ingest_plan")},
        {"telemetry.ingest_scans_ms", 1e3 * self("telemetry.ingest_scans")},
        {"telemetry.rows", d(b.rows - a.rows)},
    };
  }

  [[nodiscard]] std::string rate_name() const override {
    return "fleet.aps_planned_per_s";
  }
  [[nodiscard]] std::string latency_name() const override {
    return "fleet.tick_ms";
  }
  [[nodiscard]] int lanes() const override { return pool_.workers(); }

 private:
  struct Counters {
    fleet::FleetController::Stats st;
    std::uint64_t committed = 0;
    std::uint64_t rows = 0;
    std::size_t plans = 0;  // per-campus plan latencies recorded
  };

  [[nodiscard]] Counters counters() const {
    Counters c;
    c.st = controller_->stats();
    c.committed = fanout_->stats().plans_committed;
    c.rows = ingest_->rows_ingested();
    c.plans = plan_ms_.size();
    return c;
  }

  // A fresh controller with its fanout legs, fed the full census: the cold
  // pass that set-up times. Returns its wall seconds, excluding the copy of
  // the census.
  double start_episode() {
    fleet::ScanEpoch census{poll_time(0), census_};
    const double w0 = wall_s();
    controller_.reset();
    fanout_ = std::make_unique<ctrl::PlanFanout>();
    ingest_ = std::make_unique<telemetry::FleetIngest>();
    plan_ms_.clear();
    fleet::FleetController::Config cfg;
    cfg.seed = derive_seed(seed_, 2);
    cfg.pool = &pool_;
    controller_ = std::make_unique<fleet::FleetController>(cfg);
    controller_->set_plan_sink([this](const fleet::CampusPlanOutput& out) {
      plan_ms_.push_back(out.plan_seconds * 1e3);
      {
        SpanLog::Scope c(*spans_, "ctrl.commit", op_);
        fanout_->commit(out.campus_key, out.plan, out.netp_log, out.planned_at);
      }
      SpanLog::Scope t(*spans_, "telemetry.ingest_plan", op_);
      ingest_->ingest_plan(out.campus_key, out.planned_at, out.n_aps,
                           out.netp_log, out.improved, out.plan_seconds);
    });
    const Time t0 = poll_time(0);
    controller_->offer_epoch(std::move(census));
    controller_->tick(t0);
    ingest_->ingest_pipeline(controller_->ingest_stats(),
                             controller_->output_stats(),
                             controller_->stats().jobs_deferred);
    controller_->for_each_campus(
        [&](std::uint32_t key, const std::vector<ApScan>& campus) {
          ingest_->ingest_scans(key, campus, t0);
        });
    const double seconds = wall_s() - w0;
    next_poll_ = 1;
    start_ = counters();
    return seconds;
  }

  // Every episode replays the same inputs, so it must end on the same
  // plan stream as the first.
  void finish_episode(Ledger& ledger) {
    if (episodes_ == 0) episode_digest_ = controller_->plan_digest();
    else
      ledger.op(controller_->plan_digest() == episode_digest_,
                "episode plan digest differs from the first episode");
    ++episodes_;
  }

  // The per-poll telemetry fan-out of run_fleet_scenario: pipeline health,
  // then the scans of every campus the delta touched.
  void ingest_scans(Time now, const fleet::DeltaEpoch& delta) {
    ingest_->ingest_pipeline(controller_->ingest_stats(),
                             controller_->output_stats(),
                             controller_->stats().jobs_deferred);
    std::vector<std::uint32_t> touched;
    const auto note = [&](ApId id) {
      if (const auto key = controller_->campus_of(id)) touched.push_back(*key);
    };
    for (const ApScan& s : delta.added) note(s.id);
    for (const ApScan& s : delta.updated) note(s.id);
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    for (const std::uint32_t key : touched)
      if (const std::vector<ApScan>* campus = controller_->campus_scans(key))
        ingest_->ingest_scans(key, *campus, now);
  }

  std::uint64_t seed_;
  exec::TaskPool pool_;
  scenario::FleetPopulationConfig pop_;
  std::vector<ApScan> census_;
  std::vector<fleet::DeltaEpoch> deltas_;
  std::unique_ptr<fleet::FleetController> controller_;
  std::unique_ptr<ctrl::PlanFanout> fanout_;
  std::unique_ptr<telemetry::FleetIngest> ingest_;
  SpanLog off_{false};
  SpanLog* spans_ = &off_;
  std::vector<double> plan_ms_;
  std::vector<double> prefix_plan_ms_;
  int next_poll_ = 1;
  int episodes_ = 0;
  std::uint64_t op_ = 0;
  std::uint64_t episode_digest_ = 0;
  Counters start_;
  Counters prefix_;
  Witness witness_;
};

}  // namespace

std::unique_ptr<Workload> make_fleet_churn(std::uint64_t seed, int lanes) {
  return std::make_unique<FleetChurn>(seed, lanes);
}

}  // namespace perfbench
