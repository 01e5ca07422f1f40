#pragma once
// ReferenceEvaluator: the pre-ScanIndex planner evaluation path, preserved
// verbatim for equivalence testing.
//
// This is the original TurboCA implementation — linear find_scan per
// neighbor lookup, catalog walks per sub-channel resolution, a full
// ChannelPlan copy per ACC call and a full rescore per NetP — kept as the
// behavioural oracle: the golden-determinism tests assert that the
// PlanContext/ScanIndex engine reproduces it bit-for-bit, and the perf
// benches measure the speedup against it. Do not optimize this file.

#include <set>
#include <vector>

#include "common/rng.hpp"
#include "core/turboca/turboca.hpp"
#include "flowsim/scan.hpp"
#include "phy/channel.hpp"

namespace w11::turboca::reference {

// Free-function forms of the reference metrics (no state beyond Params) —
// also the implementation behind TurboCA's scan-vector node_p_log, which
// must keep working for APs that are not part of any index.
[[nodiscard]] double node_p_log(const Params& params, const ApScan& a,
                                const Channel& c,
                                const std::vector<ApScan>& scans,
                                const ChannelPlan& plan,
                                const std::set<ApId>& ignore);
[[nodiscard]] double net_p_log(const Params& params,
                               const std::vector<ApScan>& scans,
                               const ChannelPlan& plan);
[[nodiscard]] Channel acc(const Params& params, const ApScan& target,
                          const std::vector<ApScan>& scans,
                          const ChannelPlan& plan, const std::set<ApId>& psi);

}  // namespace w11::turboca::reference

namespace w11::turboca {

class ReferenceEvaluator {
 public:
  ReferenceEvaluator(Params params, Rng rng)
      : params_(params), rng_(std::move(rng)) {}

  [[nodiscard]] double node_p_log(const ApScan& a, const Channel& c,
                                  const std::vector<ApScan>& scans,
                                  const ChannelPlan& plan,
                                  const std::set<ApId>& ignore) const {
    return reference::node_p_log(params_, a, c, scans, plan, ignore);
  }

  [[nodiscard]] double net_p_log(const std::vector<ApScan>& scans,
                                 const ChannelPlan& plan) const {
    return reference::net_p_log(params_, scans, plan);
  }

  [[nodiscard]] Channel acc(const ApScan& target,
                            const std::vector<ApScan>& scans,
                            const ChannelPlan& plan,
                            const std::set<ApId>& psi) const {
    return reference::acc(params_, target, scans, plan, psi);
  }

  [[nodiscard]] ChannelPlan nbo(const std::vector<ApScan>& scans,
                                const ChannelPlan& current, int hop_limit);

  [[nodiscard]] TurboCA::RunResult run(const std::vector<ApScan>& scans,
                                       const ChannelPlan& current,
                                       int hop_limit);

  [[nodiscard]] const Params& params() const { return params_; }

 private:
  Params params_;
  Rng rng_;
};

}  // namespace w11::turboca
