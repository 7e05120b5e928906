#include "policies/mlfq.h"

#include <stdexcept>

namespace tempofair {

Mlfq::Mlfq(double base_quantum, double growth)
    : base_(base_quantum), growth_(growth) {
  if (!(base_quantum > 0.0)) {
    throw std::invalid_argument("Mlfq: base_quantum must be > 0");
  }
  if (!(growth > 1.0)) {
    throw std::invalid_argument("Mlfq: growth must be > 1");
  }
  scratch_.thresholds.reset(base_, growth_);
}

double Mlfq::threshold(int level) const noexcept {
  return scratch_.thresholds.threshold(level);
}

int Mlfq::level_of(double attained) const noexcept {
  return scratch_.thresholds.level_of(attained);
}

RateDecision Mlfq::rates(const SchedulerContext& ctx) {
  const auto alive = ctx.alive;
  RateDecision d;
  d.max_duration = share_rules::mlfq_rates(
      ctx.n_alive(), ctx.machines, ctx.speed, base_, growth_,
      [alive](std::size_t i) { return alive[i].attained; },
      [alive](std::size_t i) { return alive[i].release; }, d.rates, scratch_);
  return d;
}

FastForward Mlfq::fast_forward() const noexcept {
  FastForward ff;
  ff.kind = FastForwardKind::kLevelPriority;
  ff.mlfq_base = base_;
  ff.mlfq_growth = growth_;
  return ff;
}

}  // namespace tempofair
