#pragma once
// PlanContext: the incremental NetP evaluation layer TurboCA runs on.
//
// A PlanContext binds one ScanIndex (a scan epoch) to one evolving channel
// plan, stored densely by AP index. It caches every AP's NodeP term and,
// on a single-AP move, invalidates only the mover and the APs whose
// contention counts can change (the index's reverse contender edges), so
// the ΔNetP of a move costs O(degree) term recomputes instead of a full
// network rescan. Summation always runs over all cached terms in scan
// order, so results stay bit-for-bit identical to the reference evaluator.
//
// Ownership / invalidation rules:
//   * ScanIndex outlives the PlanContext and never changes; a new scan
//     epoch means a new index and new contexts (services rebuild both per
//     firing).
//   * Only set() mutates the plan; it is the single invalidation point.
//   * begin_round()/commit_round()/rollback_round() bracket one NBO sweep:
//     rollback restores every channel the sweep touched (and re-dirties
//     exactly those terms), which is how TurboCA::run discards a
//     non-improving proposal without rescoring the network.

#include <cstdint>
#include <span>
#include <vector>

#include "core/turboca/turboca.hpp"
#include "flowsim/scan_index.hpp"
#include "obs/audit.hpp"

namespace w11::turboca {

// O(1) membership set over AP indices (the ψ of ACC), epoch-stamped so
// clear() is O(1) — replaces the per-iteration std::set rebuild the old
// NBO group-drain loop paid.
class PsiSet {
 public:
  explicit PsiSet(std::size_t n) : stamp_(n, 0) {}

  void clear() {
    if (++token_ == 0) {  // stamp wrap: reset lazily
      std::fill(stamp_.begin(), stamp_.end(), 0);
      token_ = 1;
    }
  }
  void insert(std::size_t i) { stamp_[i] = token_; }
  void erase(std::size_t i) { stamp_[i] = 0; }
  [[nodiscard]] bool contains(std::size_t i) const {
    return stamp_[i] == token_;
  }

 private:
  std::vector<std::uint32_t> stamp_;
  std::uint32_t token_ = 1;
};

class PlanContext {
 public:
  // A candidate assignment being evaluated but not (yet) committed: ACC
  // scores target-moves-to-c by overriding the target's plan entry without
  // touching the context.
  struct TrialMove {
    std::size_t index;
    Channel channel;
    int ordinal;  // channels::ordinal(channel), -1 if non-catalog
  };

  PlanContext(const flowsim::ScanIndex& index, const Params& params,
              const ChannelPlan& initial);

  [[nodiscard]] const flowsim::ScanIndex& index() const { return *index_; }

  [[nodiscard]] const Channel& channel_of(std::size_t i) const {
    return plan_[i];
  }

  // Assign AP i's channel; no-op when unchanged. Marks the mover and every
  // dependent NodeP term dirty, and records the first touch per round for
  // rollback.
  void set(std::size_t i, const Channel& c);

  // log NetP of the current plan: recomputes only dirty terms, then sums
  // all cached terms in scan order (bit-identical to a full rescore).
  [[nodiscard]] double net_p_log();

  // log NodeP of AP i operating on channel c against the current plan,
  // with ψ excluded from contention and an optional uncommitted trial move
  // overriding one AP's planned channel. When `out` is non-null the §4.4
  // per-width term breakdown is appended to it; the audit (DESIGN.md §12)
  // thus sees exactly the numbers the optimizer used, and the kernel parity
  // suite (tests/test_score_kernel.cpp) pins it against score_candidates.
  [[nodiscard]] double node_p_log(std::size_t i, const Channel& c,
                                  const PsiSet* psi = nullptr,
                                  const TrialMove* trial = nullptr,
                                  std::vector<obs::NodePTerm>* out =
                                      nullptr) const;

  // ---- batched SoA scoring kernel (DESIGN.md §14) -----------------------
  // One pass over AP i's ScanIndex score block evaluating log NodeP for
  // EVERY candidate channel at once: the ψ overlay and the plan's contender
  // counts are applied once per sub-channel instead of once per (candidate,
  // width, neighbor) probe. out[k] must equal — bit for bit —
  //   node_p_log(i, candidates(i)[k], psi, &TrialMove{i, cand_k, ord_k})
  // (the self-trial is what ACC passes; it only differs from a plain
  // node_p_log when an AP degenerately reports itself as a neighbor, in
  // which case the kernel falls back to the scalar loop). out.size() must
  // be candidates(i).size().
  void score_candidates(std::size_t i, std::span<double> out,
                        const PsiSet* psi = nullptr) const;

  // The ACC neighbor leg, batched over trial channels: adds
  //   node_p_log(nb, channel_of(nb), psi, &TrialMove{target, cand_k, ord_k})
  // to inout[k] for every candidate k of `target`. The neighbor's base
  // contender counts and per-width log terms are computed once; per
  // candidate the only varying input is whether the target's trial channel
  // overlaps each sub-channel — one mask probe selecting between the
  // with/without-target log term. Bit-identical to the scalar sum.
  void add_neighbor_scores(std::size_t nb, std::size_t target,
                           const PsiSet* psi, std::span<double> inout) const;

  void begin_round();
  void commit_round();
  void rollback_round();

  // The plan as a ChannelPlan map: every indexed AP's dense entry plus any
  // entries of the initial plan whose APs are absent from this epoch.
  [[nodiscard]] ChannelPlan snapshot() const;

 private:
  [[nodiscard]] double channel_metric(std::size_t i, const Channel& c,
                                      int c_ord, ChannelWidth b,
                                      const PsiSet* psi,
                                      const TrialMove* trial,
                                      obs::NodePTerm* detail = nullptr) const;
  void mark_dirty(std::size_t i);

  // Scalar fallback for one candidate slot of the batched kernel (rare
  // paths: non-catalog candidate or plan channel, self-reporting AP).
  [[nodiscard]] double scalar_candidate_score(std::size_t i, std::size_t k,
                                              const PsiSet* psi,
                                              const TrialMove* trial) const;

  const flowsim::ScanIndex* index_;
  Params params_;
  std::vector<Channel> plan_;
  std::vector<int> plan_ord_;
  // Kernel SoA companions, aligned to the index's candidate slots / term
  // arrays: switch penalties depend only on (scan, params, candidate) and
  // effective loads fold the empty-AP rule in — both are plan-invariant, so
  // they are built once here and never touched by set().
  std::vector<double> cand_penalty_;  // per candidate slot
  std::vector<double> term_eff_load_;  // per term, empty_ap_load applied
  ChannelPlan extras_;  // initial-plan entries for APs not in the index
  std::vector<double> term_;
  std::vector<char> dirty_;
  std::vector<std::uint32_t> dirty_list_;
  bool round_active_ = false;
  std::vector<std::pair<std::uint32_t, Channel>> undo_;  // first touches
  std::vector<char> touched_;
  std::vector<std::uint32_t> touched_list_;
};

}  // namespace w11::turboca
