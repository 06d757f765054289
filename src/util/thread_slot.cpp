#include "util/thread_slot.h"

#include <bitset>
#include <mutex>

namespace iq::detail {

namespace {

struct SlotRegistry {
  std::mutex mu;
  std::bitset<kThreadSlots> taken;  // guarded by mu
  std::size_t overflow_rotor = 0;   // guarded by mu
};

/// Function-local so it is constructed before, and destroyed after, every
/// thread_local holder that uses it.
SlotRegistry& Registry() {
  static SlotRegistry registry;
  return registry;
}

}  // namespace

ThreadSlotHolder::ThreadSlotHolder() : slot_(0), owned_(false) {
  SlotRegistry& r = Registry();
  std::lock_guard lock(r.mu);
  for (std::size_t i = 0; i < kThreadSlots; ++i) {
    if (!r.taken[i]) {
      r.taken[i] = true;
      slot_ = i;
      owned_ = true;
      return;
    }
  }
  slot_ = r.overflow_rotor++ % kThreadSlots;
}

ThreadSlotHolder::~ThreadSlotHolder() {
  if (!owned_) return;
  SlotRegistry& r = Registry();
  std::lock_guard lock(r.mu);
  r.taken[slot_] = false;
}

}  // namespace iq::detail
