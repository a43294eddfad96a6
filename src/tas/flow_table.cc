#include "src/tas/flow_table.h"

#include <sanitizer/asan_interface.h>
#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cstring>

#include "src/util/logging.h"

namespace tas {
namespace {

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

uint64_t HashKey(const FlowKey& key) { return FlowKeyHash{}(key); }

// Ring placement inside a chunk's region: every ring starts cache-line
// aligned, and ASan builds follow each ring with a poisoned gap. Outside
// ASan, rings whose size is a page multiple are page aligned.
constexpr size_t kRingAlign = 64;
#if defined(__SANITIZE_ADDRESS__)
constexpr size_t kRingGap = 64;
#else
constexpr size_t kRingGap = 0;
#endif

size_t RingStride(uint32_t ring_bytes) {
  return ring_bytes == 0 ? 0 : (ring_bytes + kRingGap + kRingAlign - 1) / kRingAlign * kRingAlign;
}

constexpr uint64_t kLsbs = 0x0101010101010101ull;
constexpr uint64_t kMsbs = 0x8080808080808080ull;

uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

// High bit set in every byte of `w` equal to `b`. May rarely flag a byte
// adjacent to a true match (borrow propagation); callers follow every match
// with a full key compare, so false positives only cost that compare. Never
// flags empty/deleted bytes: their high bit survives the xor (fingerprints
// have it clear), which zeroes the ~x term.
uint64_t MatchByteMask(uint64_t w, uint8_t b) {
  const uint64_t x = w ^ (kLsbs * b);
  return (x - kLsbs) & ~x & kMsbs;
}

// Exact masks over the ctrl special encoding (see header): empty = 0x80 has
// bits 1 and 0 clear, deleted = 0xFE has bit 1 set / bit 0 clear, full bytes
// have bit 7 clear — so one shifted self-AND distinguishes them with no
// false positives (this is why the sentinels are 0x80/0xFE, not 0/1).
uint64_t MaskEmpty(uint64_t w) { return w & ~(w << 6) & kMsbs; }
uint64_t MaskEmptyOrDeleted(uint64_t w) { return w & ~(w << 7) & kMsbs; }

size_t ByteIndex(uint64_t mask) { return static_cast<size_t>(std::countr_zero(mask)) >> 3; }

constexpr size_t kNpos = ~static_cast<size_t>(0);

}  // namespace

FlowTable::FlowTable(size_t initial_capacity) {
  const size_t cap =
      RoundUpPow2(initial_capacity < kGroupSize ? kGroupSize : initial_capacity);
  ctrl_.assign(cap, kEmptyByte);
  entries_.resize(cap);
}

// Shared probe loop: returns the slot index of `key` in one table, or kNpos.
// Triangular probing over groups (cumulative offsets 1, 3, 6, ... visit every
// group exactly once while the group count is a power of two); terminates at
// the first group containing an empty byte.
namespace {

template <typename Entry>
size_t FindSlotIn(const std::vector<uint8_t>& ctrl, const std::vector<Entry>& entries,
                  const FlowKey& key, uint64_t hash, uint64_t* probe) {
  const uint8_t h2 = static_cast<uint8_t>(hash & 0x7F);
  const size_t ngroups = ctrl.size() / FlowTable::kGroupSize;
  const size_t gmask = ngroups - 1;
  size_t g = (hash >> 7) & gmask;
  for (size_t step = 1; step <= ngroups; ++step) {
    ++*probe;
    const uint8_t* gp = ctrl.data() + g * FlowTable::kGroupSize;
    const uint64_t lo = Load64(gp);
    const uint64_t hi = Load64(gp + 8);
    for (uint64_t m = MatchByteMask(lo, h2); m != 0; m &= m - 1) {
      const size_t idx = g * FlowTable::kGroupSize + ByteIndex(m);
      if (entries[idx].key == key) return idx;
    }
    for (uint64_t m = MatchByteMask(hi, h2); m != 0; m &= m - 1) {
      const size_t idx = g * FlowTable::kGroupSize + 8 + ByteIndex(m);
      if (entries[idx].key == key) return idx;
    }
    if ((MaskEmpty(lo) | MaskEmpty(hi)) != 0) return kNpos;
    g = (g + step) & gmask;
  }
  return kNpos;
}

}  // namespace

FlowId FlowTable::FindIn(const std::vector<uint8_t>& ctrl, const std::vector<Entry>& entries,
                         const FlowKey& key, uint64_t hash, uint64_t* probe) const {
  const size_t idx = FindSlotIn(ctrl, entries, key, hash, probe);
  return idx == kNpos ? kInvalidFlow : entries[idx].id;
}

FlowId FlowTable::Find(const FlowKey& key) const {
  ++stats_.lookups;
  const uint64_t hash = HashKey(key);
  uint64_t probe = 0;
  FlowId id = FindIn(ctrl_, entries_, key, hash, &probe);
  if (id == kInvalidFlow && !old_ctrl_.empty()) {
    id = FindIn(old_ctrl_, old_entries_, key, hash, &probe);
  }
  stats_.probes += probe;
  if (probe > stats_.max_probe) stats_.max_probe = probe;
  probe_hist_.Add(probe);
  return id;
}

size_t FlowTable::PlaceInActive(const FlowKey& key, FlowId id, uint64_t hash,
                                bool reuse_tombstones) {
  const uint8_t h2 = static_cast<uint8_t>(hash & 0x7F);
  const size_t ngroups = ctrl_.size() / kGroupSize;
  const size_t gmask = ngroups - 1;
  size_t g = (hash >> 7) & gmask;
  for (size_t step = 1; step <= ngroups; ++step) {
    const uint8_t* gp = ctrl_.data() + g * kGroupSize;
    const uint64_t lo = Load64(gp);
    const uint64_t hi = Load64(gp + 8);
    // The first reusable byte in probe order: a tombstone earlier on the
    // chain is taken before a trailing empty slot, which is what keeps
    // steady-state erase+insert churn from growing occupancy.
    const uint64_t m_lo = reuse_tombstones ? MaskEmptyOrDeleted(lo) : MaskEmpty(lo);
    const uint64_t m_hi = reuse_tombstones ? MaskEmptyOrDeleted(hi) : MaskEmpty(hi);
    if ((m_lo | m_hi) != 0) {
      const size_t byte = m_lo != 0 ? ByteIndex(m_lo) : 8 + ByteIndex(m_hi);
      const size_t idx = g * kGroupSize + byte;
      if (ctrl_[idx] == kDeletedByte) {
        --tombstones_;
        ++stats_.tombstones_reused;
      }
      ctrl_[idx] = h2;
      entries_[idx].key = key;
      entries_[idx].id = id;
      return idx;
    }
    g = (g + step) & gmask;
  }
  TAS_LOG(FATAL) << "flow table full (occupancy bound violated)";
  return kNpos;
}

void FlowTable::Insert(const FlowKey& key, FlowId id) {
  StepRehash(kRehashStrideSlots);
  // Keep live + tombstone occupancy of the active table under 7/8 so probe
  // chains stay short and the empty-group termination is always reachable.
  if ((active_size_ + tombstones_ + 1) * 8 > ctrl_.size() * 7) {
    if (rehash_in_progress()) {
      // Should not happen (see kRehashStrideSlots sizing); finish the drain
      // so the new rehash starts from a single-table state, and count it.
      ++stats_.forced_finishes;
      FinishRehash();
    }
    // If occupancy is mostly tombstones, rebuilding at the same capacity is
    // enough (tombstone drift); only grow when live entries need the room.
    const bool drift = size() * 8 <= ctrl_.size() * 7 / 2;
    if (drift) ++stats_.drift_rebuilds;
    StartRehash(drift ? ctrl_.size() : ctrl_.size() * 2);
  }
  PlaceInActive(key, id, HashKey(key), /*reuse_tombstones=*/true);
  ++active_size_;
}

bool FlowTable::Erase(const FlowKey& key) {
  StepRehash(kRehashStrideSlots);
  const uint64_t hash = HashKey(key);
  uint64_t probe = 0;
  size_t idx = FindSlotIn(ctrl_, entries_, key, hash, &probe);
  if (idx != kNpos) {
    ctrl_[idx] = kDeletedByte;
    ++tombstones_;
    --active_size_;
    return true;
  }
  if (!old_ctrl_.empty()) {
    idx = FindSlotIn(old_ctrl_, old_entries_, key, hash, &probe);
    if (idx != kNpos) {
      // Old-table erases just mark the slot; the drain scan skips it. No
      // tombstone accounting: the old table never takes inserts.
      old_ctrl_[idx] = kDeletedByte;
      --old_live_;
      return true;
    }
  }
  return false;
}

void FlowTable::StartRehash(size_t new_capacity) {
  TAS_DCHECK(old_ctrl_.empty());
  ++stats_.rehashes;
  old_ctrl_ = std::move(ctrl_);
  old_entries_ = std::move(entries_);
  old_live_ = active_size_;
  active_size_ = 0;
  tombstones_ = 0;
  rehash_pos_ = 0;
  if (spare_ctrl_.size() == new_capacity) {
    // Same-capacity rebuild: reuse the retired buffers — no allocation, so
    // steady-state churn with periodic drift rebuilds stays alloc-free.
    ctrl_ = std::move(spare_ctrl_);
    entries_ = std::move(spare_entries_);
    spare_ctrl_.clear();
    spare_entries_.clear();
    std::fill(ctrl_.begin(), ctrl_.end(), kEmptyByte);
  } else {
    ctrl_.assign(new_capacity, kEmptyByte);
    entries_.assign(new_capacity, Entry{});
  }
  // First stride up front: a table that sees no further Insert/Erase traffic
  // still makes progress on the next mutating call, and short drains finish
  // immediately.
  StepRehash(kRehashStrideSlots);
}

void FlowTable::StepRehash(size_t max_slots) {
  if (old_ctrl_.empty()) return;
  const size_t end = old_ctrl_.size();
  size_t scanned = 0;
  while (rehash_pos_ < end && scanned < max_slots) {
    if (IsFull(old_ctrl_[rehash_pos_])) {
      const Entry& e = old_entries_[rehash_pos_];
      // Migration can't overflow the new table: growth sizes it for all old
      // entries plus the inserts that can occur before the drain completes.
      PlaceInActive(e.key, e.id, HashKey(e.key), /*reuse_tombstones=*/true);
      ++active_size_;
      --old_live_;
      ++stats_.relocated;
      old_ctrl_[rehash_pos_] = kDeletedByte;  // Keeps old-table probes valid.
    }
    ++rehash_pos_;
    ++scanned;
  }
  if (scanned > stats_.max_reloc_slots) stats_.max_reloc_slots = scanned;
  if (rehash_pos_ == end) {
    TAS_DCHECK(old_live_ == 0);
    // Retire the drained buffers as spares for the next same-capacity
    // rebuild (moved-from vectors are cleared explicitly: their state is
    // only guaranteed "valid", and empty old_ctrl_ means "no rehash").
    spare_ctrl_ = std::move(old_ctrl_);
    spare_entries_ = std::move(old_entries_);
    old_ctrl_.clear();
    old_entries_.clear();
    rehash_pos_ = 0;
  }
}

void FlowTable::FinishRehash() {
  while (!old_ctrl_.empty()) {
    StepRehash(old_ctrl_.size());
  }
}

FlowSlab::FlowSlab(uint32_t rx_ring_bytes, uint32_t tx_ring_bytes)
    : rx_ring_bytes_(rx_ring_bytes),
      tx_ring_bytes_(tx_ring_bytes),
      rx_stride_(RingStride(rx_ring_bytes)),
      slot_stride_(rx_stride_ + RingStride(tx_ring_bytes)) {}

FlowSlab::Chunk::Chunk(size_t region_bytes)
    : flows(kChunkSlots),
      cold(kChunkSlots),
      generation(kChunkSlots, 0),
      live(kChunkSlots, 0),
      ring_region_bytes(region_bytes) {
  for (size_t i = 0; i < kChunkSlots; ++i) {
    flows[i].BindCold(&cold[i]);
  }
  if (ring_region_bytes == 0) {
    return;
  }
  // Anonymous private pages read as zero until written, which is exactly a
  // free slot's all-zero invariant; NORESERVE because most of the region is
  // never written.
  void* region = mmap(nullptr, ring_region_bytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  TAS_CHECK(region != MAP_FAILED) << "ring region of " << ring_region_bytes << " bytes";
  madvise(region, ring_region_bytes, MADV_NOHUGEPAGE);
  rings = static_cast<uint8_t*>(region);
}

FlowSlab::Chunk::~Chunk() {
  if (rings != nullptr) {
    ASAN_UNPOISON_MEMORY_REGION(rings, ring_region_bytes);
    munmap(rings, ring_region_bytes);
  }
}

FlowId FlowSlab::Allocate() {
  uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    if (slot_count_ == capacity_slots()) {
      chunks_.push_back(std::make_unique<Chunk>(kChunkSlots * slot_stride_));
      Chunk& c = *chunks_.back();
      for (size_t i = 0; c.rings != nullptr && i < kChunkSlots; ++i) {
        uint8_t* rx = c.rings + i * slot_stride_;
        uint8_t* tx = rx + rx_stride_;
        ASAN_POISON_MEMORY_REGION(rx + rx_ring_bytes_, rx_stride_ - rx_ring_bytes_);
        ASAN_POISON_MEMORY_REGION(tx + tx_ring_bytes_,
                                  slot_stride_ - rx_stride_ - tx_ring_bytes_);
      }
    }
    slot = static_cast<uint32_t>(slot_count_++);
    TAS_DCHECK(slot < kFlowSlotMask);  // Slot 0xFFFFF reserved: id != kInvalidFlow.
  }
  Chunk& c = ChunkOf(slot);
  const size_t i = slot % kChunkSlots;
  c.live[i] = 1;
  ++live_;
  if (c.rings != nullptr) {
    FlowState& fs = c.flows[i].fs;
    uint8_t* rings = c.rings + i * slot_stride_;
    fs.rx_base = rx_ring_bytes_ > 0 ? rings : nullptr;
    fs.tx_base = tx_ring_bytes_ > 0 ? rings + rx_stride_ : nullptr;
    fs.rx_size = rx_ring_bytes_;
    fs.tx_size = tx_ring_bytes_;
  }
  return MakeFlowId(slot, c.generation[i]);
}

void FlowSlab::Free(FlowId id) {
  Chunk* c = nullptr;
  size_t i = 0;
  const uint32_t slot = FlowSlotOf(id);
  if (slot < slot_count_) {
    Chunk& cand = ChunkOf(slot);
    i = slot % kChunkSlots;
    if (cand.live[i] && cand.generation[i] == FlowGenOf(id)) c = &cand;
  }
  TAS_DCHECK(c != nullptr);
  if (c == nullptr) return;
  c->flows[i].Reset();
  c->generation[i] = (c->generation[i] + 1) & kFlowGenMask;
  c->live[i] = 0;
  --live_;
  free_slots_.push_back(slot);
}

}  // namespace tas
