#include "core/hop_level.hpp"

namespace gmfnet::core {

void LevelSlot::ensure(const AnalysisContext& ctx, const JitterMap& jitters,
                       const std::vector<FlowId>& ids, const StageKey& stage,
                       LinkRef link) {
  // Revalidation: same interferers, same derived state (= same curves),
  // same jitter version (= same shifts) — two compares per interferer (see
  // the class comment for why they are sound), no map lookups, no curve
  // dereferences.
  if (ids_ == ids) {
    bool valid = true;
    for (std::size_t m = 0; m < ids.size(); ++m) {
      if (ctx.derived_state_ptr(ids[m]) != derived_[m].get() ||
          jitters.flow_version(ids[m]) != jitter_[m]) {
        valid = false;
        break;
      }
    }
    if (valid) return;
  }

  // Re-gather: read each interferer's shift once, pin its derived state,
  // record its jitter version, and re-fingerprint the envelope (which
  // itself skips the rebuild when the curves and shifts come out
  // unchanged, e.g. after an id-order-preserving context copy).
  ids_ = ids;
  derived_.resize(ids.size());
  jitter_.resize(ids.size());
  specs_.resize(ids.size());
  for (std::size_t m = 0; m < ids.size(); ++m) {
    derived_[m] = ctx.derived_state(ids[m]);
    jitter_[m] = jitters.flow_version(ids[m]);
    specs_[m].curve = &ctx.demand(ids[m], link);
    specs_[m].shift = jitters.max_jitter(ids[m], stage);
  }
  env_.ensure(specs_.data(), specs_.size());
}

LevelSlot& HopScratch::slot(const HopSlotKey& key) {
  if (slots_.size() >= kMaxSlots && slots_.find(key) == slots_.end()) {
    // Evict every other slot instead of clearing: a scenario whose hop
    // working set exceeds the cap keeps ~half its hot entries per round
    // instead of falling off a rebuild-everything cliff each wraparound.
    for (auto it = slots_.begin(); it != slots_.end();) {
      it = slots_.erase(it);
      if (it != slots_.end()) ++it;
    }
  }
  return slots_[key];
}

HopScratch& HopScratch::local() {
  thread_local HopScratch scratch;
  return scratch;
}

}  // namespace gmfnet::core
