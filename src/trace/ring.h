// The one ring behind every trace stream (DESIGN.md §7): power-of-two slots
// keyed by `id & mask`, each slot holding the id of the record in it, so a
// stale id — one whose slot was reused or retired since — is rejected
// instead of reading another record. Append mints the ids 1, 2, ... (0 means
// "untracked"), so an id is also the record's append count: in a ring
// nothing retires, the retained records are ids (recorded - size, recorded],
// oldest first, and overwritten = recorded - size.
//
// Storage is allocated by the first Append, so an unused ring holds no
// bytes. Appending over a live record drops it and counts it; Find counts
// every rejected nonzero id as stale.
#ifndef SRC_TRACE_RING_H_
#define SRC_TRACE_RING_H_

#include <algorithm>
#include <cstdint>
#include <vector>

namespace tas {

template <typename T>
class Ring {
 public:
  // Rounds `capacity` up to a power of two (at least 1).
  explicit Ring(size_t capacity) {
    while (mask_ + 1 < capacity) {
      mask_ = mask_ * 2 + 1;
    }
  }

  // Opens record id recorded() + 1 (read it back from recorded()) and
  // returns its slot with the slot's previous record still in place, for the
  // caller to read before overwriting it. `*evicted`, when given, says
  // whether that previous record was live.
  T& Append(bool* evicted = nullptr) {
    if (slots_.empty()) {
      slots_.resize(mask_ + 1);
    }
    const uint64_t id = ++recorded_;
    Slot& s = slots_[id & mask_];
    const bool live = s.id != 0;
    overwritten_ += live ? 1 : 0;
    if (evicted != nullptr) {
      *evicted = live;
    }
    s.id = id;
    return s.value;
  }

  // The live record `id`, or nullptr: id 0 (untracked) is ignored, any
  // other miss — overwritten, retired, never appended — counts as stale.
  T* Find(uint64_t id) {
    if (id == 0) {
      return nullptr;
    }
    if (slots_.empty() || slots_[id & mask_].id != id) {
      ++stale_;
      return nullptr;
    }
    return &slots_[id & mask_].value;
  }

  // Frees the slot of live record `id`; false if it is already gone.
  bool Retire(uint64_t id) {
    if (id == 0 || slots_.empty() || slots_[id & mask_].id != id) {
      return false;
    }
    slots_[id & mask_].id = 0;
    return true;
  }

  // Visits the live records, oldest first.
  template <typename F>
  void ForEach(F&& f) const {
    for (uint64_t id = recorded_ - size() + 1; id <= recorded_; ++id) {
      const Slot& s = slots_[id & mask_];
      if (s.id == id) {
        f(s.value);
      }
    }
  }

  size_t capacity() const { return mask_ + 1; }
  // Records appended and not yet overwritten (retired ones included).
  size_t size() const { return static_cast<size_t>(std::min<uint64_t>(recorded_, mask_ + 1)); }
  uint64_t recorded() const { return recorded_; }
  uint64_t overwritten() const { return overwritten_; }
  uint64_t stale() const { return stale_; }
  // Bytes of slot storage held: 0 until the first Append.
  size_t bytes() const { return slots_.capacity() * sizeof(Slot); }

 private:
  struct Slot {
    uint64_t id = 0;  // 0 = free.
    T value{};
  };

  size_t mask_ = 0;
  std::vector<Slot> slots_;
  uint64_t recorded_ = 0;
  uint64_t overwritten_ = 0;
  uint64_t stale_ = 0;
};

}  // namespace tas

#endif  // SRC_TRACE_RING_H_
