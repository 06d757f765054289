// A small dense index per live thread, for striping per-thread state
// (counters, histogram stripes) so that a hot path writes only cache lines
// no other thread writes.
//
// Slots are taken lowest-free-first when a thread first asks and returned
// when it exits, so while at most kThreadSlots threads hold one, every live
// thread has its own. Past that, further threads share slots round-robin:
// state indexed by a slot must therefore stay correct when shared (atomic
// counters, mutex-guarded stripes) — the slot only makes sharing rare.
#pragma once

#include <cstddef>

namespace iq {

inline constexpr std::size_t kThreadSlots = 64;

namespace detail {

/// Holds one thread's slot for the thread's lifetime.
class ThreadSlotHolder {
 public:
  ThreadSlotHolder();
  ~ThreadSlotHolder();
  ThreadSlotHolder(const ThreadSlotHolder&) = delete;
  ThreadSlotHolder& operator=(const ThreadSlotHolder&) = delete;

  std::size_t slot() const { return slot_; }

 private:
  std::size_t slot_;
  bool owned_;  // false: every slot was taken, this thread shares one
};

}  // namespace detail

/// The calling thread's slot, in [0, kThreadSlots).
inline std::size_t ThreadSlot() {
  thread_local const detail::ThreadSlotHolder holder;
  return holder.slot();
}

}  // namespace iq
