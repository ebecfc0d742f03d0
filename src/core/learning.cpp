#include "core/learning.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace asman::core {

LearningEstimator::LearningEstimator(const LearningConfig& cfg)
    : cfg_(cfg), rng_(cfg.seed), q_(cfg.num_candidates, 0.0) {
  assert(cfg_.num_candidates >= 2);
  // q_x(0) = s(0) * A / N with A the average candidate value. Candidates
  // are valued in unit counts (candidate k has value k+1) so that the
  // propensities live on the same O(1) scale as Algorithm 2's rewards
  // (1 - e); only the final estimate is converted to cycles.
  const double avg = (static_cast<double>(cfg_.num_candidates) + 1.0) / 2.0;
  const double q0 =
      cfg_.initial_scaling * avg / static_cast<double>(cfg_.num_candidates);
  std::fill(q_.begin(), q_.end(), q0);
}

std::uint32_t LearningEstimator::select_probabilistic() {
  double total = std::accumulate(q_.begin(), q_.end(), 0.0);
  if (total <= 0.0) return static_cast<std::uint32_t>(rng_.next_below(q_.size()));
  double r = rng_.next_double() * total;
  for (std::uint32_t k = 0; k < q_.size(); ++k) {
    r -= q_[k];
    if (r <= 0.0) return k;
  }
  return static_cast<std::uint32_t>(q_.size() - 1);
}

std::uint32_t LearningEstimator::select_argmax() const {
  std::uint32_t best = 0;
  for (std::uint32_t k = 1; k < q_.size(); ++k)
    if (q_[k] > q_[best]) best = k;
  return best;
}

void LearningEstimator::update_propensities(double gap, double prev_gap,
                                            std::uint32_t chosen_idx) {
  const double e = cfg_.experimentation;
  const double spread = e / static_cast<double>(cfg_.num_candidates - 1);
  const double chosen_x = static_cast<double>(chosen_idx) + 1.0;
  // Each q_[k] is rewritten from its own old value only, so the update
  // runs in place.
  for (std::uint32_t k = 0; k < q_.size(); ++k) {
    const double x = static_cast<double>(k) + 1.0;
    double u;
    if (gap <= static_cast<double>(cfg_.under_gap.v)) {
      // Under-coscheduling: an over-threshold spinlock followed the window
      // almost immediately — reward every larger duration (Algorithm 2
      // lines 2-7).
      u = (x > chosen_x) ? (1.0 - e) : q_[k] * spread;
    } else {
      // Adequate/over window: reinforce the chosen duration in proportion
      // to the slack growth (Algorithm 2 lines 8-13).
      if (k == chosen_idx) {
        double ratio = prev_gap > 0.0 ? gap / prev_gap : 1.0;
        ratio = std::clamp(ratio, 0.0, cfg_.ratio_cap);
        u = ratio * (1.0 - e);
      } else {
        u = q_[k] * spread;
      }
    }
    q_[k] = (1.0 - cfg_.recency) * q_[k] + u;
  }
}

Cycles LearningEstimator::on_adjusting_event(Cycles now) {
  std::uint32_t idx;
  if (events_ < 2) {
    // Algorithm 1: the first two events select probabilistically.
    idx = select_probabilistic();
  } else {
    // z_i: interval between the beginnings of locality i and i+1.
    const Cycles z = now - last_event_time_;
    const double gap = static_cast<double>(z.v) -
                       static_cast<double>(last_x_.v);
    update_propensities(gap, have_prev_gap_ ? prev_gap_ : gap, last_idx_);
    prev_gap_ = gap;
    have_prev_gap_ = true;
    idx = select_argmax();
  }
  if (events_ == 1) {
    // The very first gap becomes z_0 - x_0 once event 2 arrives.
    const Cycles z = now - last_event_time_;
    prev_gap_ =
        static_cast<double>(z.v) - static_cast<double>(last_x_.v);
    have_prev_gap_ = true;
  }
  ++events_;
  last_event_time_ = now;
  last_idx_ = idx;
  last_x_ = candidate(idx);
  return last_x_;
}

}  // namespace asman::core
