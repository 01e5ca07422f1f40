#include "core/turboca/plan_context.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "common/check.hpp"

// The kernel's bit-for-bit equivalence with the scalar/reference paths
// (golden suites, audit parity) dies under value-unsafe FP.
#ifdef __FAST_MATH__
#error "plan_context.cpp must not be compiled with -ffast-math (determinism)"
#endif

namespace w11::turboca {

namespace {

// One log NodeP term: load(b) · log channel_metric(c, b), with an
// effectively-zero metric clamped to kNodePLogFloor.
inline double log_term(double load, double metric) {
  return load * (metric > 1e-12 ? std::log(metric) : kNodePLogFloor);
}

// Client-disruption cost of moving the AP scanned as `a` to c (§4.5.1);
// zero when c is its current channel or it has no clients.
double switch_penalty(const Params& p, const ApScan& a, const Channel& c) {
  if (c == a.current) return 0.0;
  double penalty = p.switch_penalty;
  if (a.band == Band::G2_4) penalty = p.switch_penalty_24ghz;
  if (a.utilization_current > p.high_util_threshold)
    penalty = std::max(penalty, p.switch_penalty_high_util);
  if (!a.has_clients) penalty = 0.0;  // nothing to disrupt
  return penalty;
}

}  // namespace

PlanContext::PlanContext(const flowsim::ScanIndex& index, const Params& params,
                         const ChannelPlan& initial)
    : index_(&index), params_(params) {
  // The contender floor is baked into the index's adjacency; a mismatched
  // pairing would silently mis-count contenders.
  W11_CHECK(index.contender_rssi_floor() == params_.neighbor_rssi_floor);

  const std::size_t n = index.size();
  plan_.reserve(n);
  plan_ord_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const ApScan& s = index.scan(i);
    const auto it = initial.find(s.id);
    plan_.push_back(it != initial.end() ? it->second : s.current);
    plan_ord_.push_back(channels::ordinal(plan_.back()));
  }
  for (const auto& [id, c] : initial)
    if (!index.find(id)) extras_.emplace(id, c);

  term_.assign(n, 0.0);
  dirty_.assign(n, 1);
  dirty_list_.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    dirty_list_[i] = static_cast<std::uint32_t>(i);
  touched_.assign(n, 0);

  // Plan-invariant kernel companions (see header): per-candidate switch
  // penalties (constant across the per-width loop of channel_metric) and
  // per-term effective loads (the empty-AP substitution folded in).
  cand_penalty_.resize(index.candidate_slots());
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<Channel>& cands = index.candidates(i);
    const std::uint32_t base = index.candidate_base(i);
    for (std::size_t k = 0; k < cands.size(); ++k)
      cand_penalty_[base + k] =
          switch_penalty(params_, index.scan(i), cands[k]);
  }
  {
    const std::size_t slots = index.candidate_slots();
    std::size_t total_terms = 0;
    if (slots > 0) {
      // Global sentinel: the final entry of the offset array.
      total_terms = index.score_block(n - 1)
                        .term_begin[index.candidates(n - 1).size()];
    }
    term_eff_load_.resize(total_terms);
    for (std::size_t i = 0; i < n; ++i) {
      const flowsim::ScanIndex::ScoreBlock blk = index.score_block(i);
      const bool empty = index.total_load(i) <= 0.0;
      const std::uint32_t tb = blk.term_begin[0];
      const std::uint32_t te = blk.term_begin[index.candidates(i).size()];
      for (std::uint32_t t = tb; t < te; ++t)
        term_eff_load_[t] = empty ? params_.empty_ap_load : blk.load[t];
    }
  }
}

void PlanContext::mark_dirty(std::size_t i) {
  if (!dirty_[i]) {
    dirty_[i] = 1;
    dirty_list_.push_back(static_cast<std::uint32_t>(i));
  }
}

void PlanContext::set(std::size_t i, const Channel& c) {
  if (plan_[i] == c) return;
  if (round_active_ && !touched_[i]) {
    touched_[i] = 1;
    touched_list_.push_back(static_cast<std::uint32_t>(i));
    undo_.emplace_back(static_cast<std::uint32_t>(i), plan_[i]);
  }
  plan_[i] = c;
  plan_ord_[i] = channels::ordinal(c);
  mark_dirty(i);
  for (std::uint32_t d : index_->dependents(i)) mark_dirty(d);
}

double PlanContext::net_p_log() {
  for (std::uint32_t i : dirty_list_) {
    term_[i] = node_p_log(i, plan_[i]);
    dirty_[i] = 0;
  }
  dirty_list_.clear();
  double total = 0.0;
  for (double t : term_) total += t;
  return total;
}

double PlanContext::node_p_log(std::size_t i, const Channel& c,
                               const PsiSet* psi, const TrialMove* trial,
                               std::vector<obs::NodePTerm>* out) const {
  const int c_ord = channels::ordinal(c);
  const double total_load = index_->total_load(i);
  double log_p = 0.0;
  const int cw = static_cast<int>(c.width);
  for (int b = 0; b <= cw; ++b) {
    double load = index_->load_at(i, static_cast<ChannelWidth>(b), c.width);
    if (total_load <= 0.0) load = params_.empty_ap_load;
    if (load <= 0.0) continue;
    obs::NodePTerm* term = out != nullptr ? &out->emplace_back() : nullptr;
    const double metric = channel_metric(
        i, c, c_ord, static_cast<ChannelWidth>(b), psi, trial, term);
    const double lt = log_term(load, metric);
    log_p += lt;
    if (term != nullptr) {
      term->width_mhz = width_mhz(static_cast<ChannelWidth>(b));
      term->load = load;
      term->metric = metric;
      term->log_term = lt;
    }
  }
  return log_p;
}

double PlanContext::channel_metric(std::size_t i, const Channel& c, int c_ord,
                                   ChannelWidth b, const PsiSet* psi,
                                   const TrialMove* trial,
                                   obs::NodePTerm* detail) const {
  const flowsim::ScanIndex& index = *index_;
  const ApScan& a = index.scan(i);

  // The b-wide sub-channel of c and its precomputed spectrum aggregates.
  Channel sub;
  int sub_ord;
  if (c_ord >= 0) {
    sub_ord = channels::sub_channel_ordinal(c_ord, b);
    sub = channels::by_ordinal(sub_ord);
  } else {
    sub = channels::sub_channel(c, b);
    sub_ord = channels::ordinal(sub);
  }
  const flowsim::ScanChannelStats st =
      sub_ord >= 0 ? index.stats(i, sub_ord)
                   : flowsim::ScanIndex::compute_stats(a, sub);

  // Same-network contenders whose planned channel overlaps the sub-channel.
  int contenders = 0;
  for (const flowsim::ScanIndex::Neighbor& nb : index.neighbors(i)) {
    if (!nb.contender) continue;
    if (psi && psi->contains(nb.index)) continue;  // ψ: presume they move
    const bool is_trial = trial && nb.index == trial->index;
    const int po = is_trial ? trial->ordinal : plan_ord_[nb.index];
    bool overlaps;
    if (po >= 0 && sub_ord >= 0) {
      overlaps = channels::overlaps_ordinal(po, sub_ord);
    } else {
      const Channel& pc = is_trial ? trial->channel : plan_[nb.index];
      overlaps = pc.overlaps(sub);
    }
    if (overlaps) ++contenders;
  }

  const double airtime =
      std::clamp((1.0 - st.external_util) / (1.0 + contenders), 0.0, 1.0);

  const double penalty = switch_penalty(params_, a, c);

  if (detail != nullptr) {
    detail->airtime = airtime;
    detail->quality = st.quality;
    detail->penalty = penalty;
    detail->contenders = contenders;
  }

  // capacity(c,b) scales with bandwidth (achievable rate ∝ width); keeping
  // the metric rate-like (able to exceed 1) is what makes wider channels
  // win when airtime is available and lose when contention eats the gain.
  return static_cast<double>(width_mhz(b)) * (airtime * st.quality - penalty);
}

double PlanContext::scalar_candidate_score(std::size_t i, std::size_t k,
                                           const PsiSet* psi,
                                           const TrialMove* trial) const {
  const std::vector<Channel>& cands = index_->candidates(i);
  if (trial != nullptr) return node_p_log(i, cands[k], psi, trial);
  const TrialMove self{i, cands[k], index_->candidate_ordinals(i)[k]};
  return node_p_log(i, cands[k], psi, &self);
}

void PlanContext::score_candidates(std::size_t i, std::span<double> out,
                                   const PsiSet* psi) const {
  const flowsim::ScanIndex& index = *index_;
  const std::vector<Channel>& cands = index.candidates(i);
  const std::vector<int>& ords = index.candidate_ordinals(i);
  W11_CHECK(out.size() == cands.size());

  if (index.has_self_neighbor(i)) {
    // Degenerate input (an AP reporting itself as a neighbor): the
    // self-trial actually bites, and per candidate at that — keep the
    // scalar loop, which handles it exactly.
    for (std::size_t k = 0; k < cands.size(); ++k)
      out[k] = scalar_candidate_score(i, k, psi, nullptr);
    return;
  }

  // Contender counts per catalog sub-channel, built in ONE pass over the
  // neighbor list: each active contender's planned channel spreads through
  // its precomputed overlap mask (one increment per set bit). After this,
  // no per-candidate work ever touches the neighbor list again. Neighbors
  // planned off-catalog (rare) are kept aside and resolved per term.
  std::array<int, channels::kMaxCatalogOrdinals> cnt{};
  std::vector<const Channel*> off_catalog;
  const std::uint64_t* masks = channels::overlap_masks();
  for (const flowsim::ScanIndex::Neighbor& nb : index.neighbors(i)) {
    if (!nb.contender) continue;
    if (psi != nullptr && psi->contains(nb.index)) continue;
    const int po = plan_ord_[nb.index];
    if (po >= 0) {
      for (std::uint64_t m = masks[po]; m != 0; m &= m - 1)
        ++cnt[static_cast<std::size_t>(std::countr_zero(m))];
    } else {
      off_catalog.push_back(&plan_[nb.index]);
    }
  }

  // The batched pass: per candidate, walk its contiguous term slice; every
  // input is a flat array read and the arithmetic is the scalar metric's,
  // expression for expression — bit-identical results, no map lookups, no
  // geometry calls.
  const flowsim::ScanIndex::ScoreBlock blk = index.score_block(i);
  const std::uint32_t base = index.candidate_base(i);
  for (std::size_t k = 0; k < cands.size(); ++k) {
    if (ords[k] < 0) {
      out[k] = scalar_candidate_score(i, k, psi, nullptr);
      continue;
    }
    const double penalty = cand_penalty_[base + k];
    double log_p = 0.0;
    const std::uint32_t te = blk.term_begin[k + 1];
    for (std::uint32_t t = blk.term_begin[k]; t < te; ++t) {
      const double load = term_eff_load_[t];
      if (load <= 0.0) continue;
      const std::size_t s = static_cast<std::size_t>(blk.sub[t]);
      int contenders = cnt[s];
      for (const Channel* pc : off_catalog)
        if (pc->overlaps(channels::by_ordinal(static_cast<int>(s))))
          ++contenders;
      const double airtime =
          std::clamp((1.0 - blk.ext[t]) / (1.0 + contenders), 0.0, 1.0);
      const double metric = blk.width[t] * (airtime * blk.qual[t] - penalty);
      log_p += log_term(load, metric);
    }
    out[k] = log_p;
  }
}

void PlanContext::add_neighbor_scores(std::size_t nb, std::size_t target,
                                      const PsiSet* psi,
                                      std::span<double> inout) const {
  const flowsim::ScanIndex& index = *index_;
  const std::vector<Channel>& cands = index.candidates(target);
  const std::vector<int>& ords = index.candidate_ordinals(target);
  W11_CHECK(inout.size() == cands.size());

  const int nc_ord = plan_ord_[nb];
  if (nb == target || nc_ord < 0) {
    // Scalar fallback: a self-affected AP (degenerate self-neighbor input,
    // where the evaluated channel is the trial channel itself) or a plan
    // channel outside the catalog.
    for (std::size_t k = 0; k < cands.size(); ++k) {
      const TrialMove trial{target, cands[k], ords[k]};
      const Channel& nc = nb == target ? cands[k] : plan_[nb];
      inout[k] += node_p_log(nb, nc, psi, &trial);
    }
    return;
  }

  // The neighbor's sub-channel geometry and base contender counts (with the
  // target's contribution split out) are computed once; each candidate then
  // costs one mask probe per width term.
  const Channel& nc = plan_[nb];
  const int cw = static_cast<int>(nc.width);
  const std::int16_t* sub_row =
      channels::sub_channel_table() +
      static_cast<std::size_t>(nc_ord) * channels::sub_channel_stride();
  const std::uint64_t* masks = channels::overlap_masks();
  std::int16_t subs[4];
  std::uint64_t sub_mask[4];
  for (int b = 0; b <= cw; ++b) {
    subs[b] = sub_row[b];
    sub_mask[b] = masks[subs[b]];
  }

  int base_cnt[4] = {0, 0, 0, 0};
  int t_mult = 0;  // multiplicity of `target` among nb's active contenders
  for (const flowsim::ScanIndex::Neighbor& e : index.neighbors(nb)) {
    if (!e.contender) continue;
    if (psi != nullptr && psi->contains(e.index)) continue;
    if (e.index == target) {
      ++t_mult;
      continue;
    }
    const int po = plan_ord_[e.index];
    if (po >= 0) {
      for (int b = 0; b <= cw; ++b)
        base_cnt[b] += static_cast<int>((sub_mask[b] >> po) & 1u);
    } else {
      const Channel& pc = plan_[e.index];
      for (int b = 0; b <= cw; ++b)
        if (pc.overlaps(channels::by_ordinal(subs[b]))) ++base_cnt[b];
    }
  }

  // Per width term, the two possible log contributions: target's trial
  // channel overlapping this sub-channel (+t_mult contenders) or not.
  // Exactly the scalar metric arithmetic; only the contender count varies.
  const double penalty = switch_penalty(params_, index.scan(nb), nc);
  const double total_load = index.total_load(nb);
  double lt_without[4];
  double lt_with[4];
  bool live[4] = {false, false, false, false};
  for (int b = 0; b <= cw; ++b) {
    double load = index.load_at(nb, static_cast<ChannelWidth>(b), nc.width);
    if (total_load <= 0.0) load = params_.empty_ap_load;
    if (load <= 0.0) continue;
    live[b] = true;
    const flowsim::ScanChannelStats& st = index.stats(nb, subs[b]);
    const double width =
        static_cast<double>(width_mhz(static_cast<ChannelWidth>(b)));
    {
      const double airtime =
          std::clamp((1.0 - st.external_util) / (1.0 + base_cnt[b]), 0.0, 1.0);
      const double metric = width * (airtime * st.quality - penalty);
      lt_without[b] = log_term(load, metric);
    }
    if (t_mult > 0) {
      const int contenders = base_cnt[b] + t_mult;
      const double airtime =
          std::clamp((1.0 - st.external_util) / (1.0 + contenders), 0.0, 1.0);
      const double metric = width * (airtime * st.quality - penalty);
      lt_with[b] = log_term(load, metric);
    } else {
      lt_with[b] = lt_without[b];
    }
  }

  for (std::size_t k = 0; k < cands.size(); ++k) {
    const int ord = ords[k];
    if (ord < 0) {
      const TrialMove trial{target, cands[k], ord};
      inout[k] += node_p_log(nb, nc, psi, &trial);
      continue;
    }
    double sum = 0.0;
    for (int b = 0; b <= cw; ++b) {
      if (!live[b]) continue;
      const bool overlaps_trial = ((sub_mask[b] >> ord) & 1u) != 0;
      sum += overlaps_trial ? lt_with[b] : lt_without[b];
    }
    inout[k] += sum;
  }
}

void PlanContext::begin_round() {
  W11_CHECK(!round_active_);
  round_active_ = true;
}

void PlanContext::commit_round() {
  W11_CHECK(round_active_);
  round_active_ = false;
  undo_.clear();
  for (std::uint32_t i : touched_list_) touched_[i] = 0;
  touched_list_.clear();
}

void PlanContext::rollback_round() {
  W11_CHECK(round_active_);
  round_active_ = false;  // cleared first so set() does not re-log
  for (const auto& [i, prev] : undo_) set(i, prev);
  undo_.clear();
  for (std::uint32_t i : touched_list_) touched_[i] = 0;
  touched_list_.clear();
}

ChannelPlan PlanContext::snapshot() const {
  ChannelPlan out = extras_;
  for (std::size_t i = 0; i < plan_.size(); ++i)
    out[index_->scan(i).id] = plan_[i];
  return out;
}

}  // namespace w11::turboca
