#include "engine/relation.h"

#include <algorithm>
#include <bit>

namespace tiebreak {

namespace {
constexpr uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;
constexpr uint64_t kGolden = 0x9E3779B97F4A7C15ULL;
constexpr int32_t kInitialSlots = 16;  // power of two
// How many rows ahead the batch paths prefetch dedupe/index slot lines.
constexpr int64_t kPrefetchAhead = 8;

// Smallest power of two >= max(bound, kInitialSlots).
size_t PowerOfTwoAtLeast(size_t bound) {
  size_t capacity = kInitialSlots;
  while (capacity < bound) capacity *= 2;
  return capacity;
}

// The shared probe key over the masked positions, parameterized over how a
// position's value is fetched (from a pattern array or from a stored row)
// so the two call sites cannot drift apart. ConstIds are nonnegative
// 31-bit values, so one or two of them pack injectively — the key IS the
// masked tuple and key equality is match equality. Wider masks fall back
// to an FNV chain (collisions possible; chains verify rows anyway). Slot
// positions are always derived via Relation::MixSlot, so the packed keys
// need no avalanche of their own.
template <typename GetFn>
uint64_t ProbeKeyImpl(uint32_t mask, GetFn get) {
  switch (std::popcount(mask)) {
    case 0:
      return 0;
    case 1: {
      const int32_t i = std::countr_zero(mask);
      return static_cast<uint64_t>(get(i));
    }
    case 2: {
      const int32_t i = std::countr_zero(mask);
      const int32_t j = std::countr_zero(mask & (mask - 1));
      return static_cast<uint64_t>(get(i)) << 32 |
             static_cast<uint32_t>(get(j));
    }
    default: {
      uint64_t h = kFnvOffset ^ mask;
      for (uint32_t bits = mask; bits != 0; bits &= bits - 1) {
        h ^= static_cast<uint64_t>(get(std::countr_zero(bits))) + kGolden;
        h *= kFnvPrime;
      }
      return h;
    }
  }
}

}  // namespace

uint64_t Relation::FingerprintOf(const ConstId* values, int32_t count) const {
  // Arity ≤ 2 packs exactly (see ExactFingerprints); wider tuples hash.
  switch (count) {
    case 0:
      return 0;
    case 1:
      return static_cast<uint64_t>(values[0]);
    case 2:
      return static_cast<uint64_t>(values[0]) << 32 |
             static_cast<uint32_t>(values[1]);
    default: {
      uint64_t h = kFnvOffset;
      for (int32_t i = 0; i < count; ++i) {
        h ^= static_cast<uint64_t>(values[i]) + kGolden;
        h *= kFnvPrime;
      }
      return h;
    }
  }
}

uint64_t Relation::ProbeKeyOf(uint32_t mask, const ConstId* values) const {
  return ProbeKeyImpl(mask, [values](int32_t i) { return values[i]; });
}

uint64_t Relation::RowProbeKey(uint32_t mask, int32_t row) const {
  return ProbeKeyImpl(mask, [this, row](int32_t i) { return At(row, i); });
}

int32_t Relation::FindRow(const ConstId* values, uint64_t fingerprint) const {
  if (dedupe_.empty()) {
    // No table: the relation is empty or sorted-loaded (every append
    // builds the table first), so a full-prefix run is the row if any.
    const RowRun run = PrefixRun(arity_, values);
    return run.empty() ? -1 : run.begin;
  }
  const size_t slot_mask = dedupe_.size() - 1;
  for (size_t slot = MixSlot(fingerprint) & slot_mask;;
       slot = (slot + 1) & slot_mask) {
    const int32_t row = dedupe_[slot];
    if (row < 0) return -1;
    if (RowEquals(row, values)) return row;
  }
}

void Relation::GrowArena(int64_t min_capacity) {
  int64_t new_capacity = capacity_ == 0 ? 16 : capacity_ * 2;
  while (new_capacity < min_capacity) new_capacity *= 2;
  std::vector<ConstId> fresh(static_cast<size_t>(new_capacity) * arity_);
  for (int32_t c = 0; c < arity_; ++c) {
    const ConstId* src = data_.data() + static_cast<size_t>(c) * capacity_;
    ConstId* dst = fresh.data() + static_cast<size_t>(c) * new_capacity;
    std::copy(src, src + num_rows_, dst);
  }
  data_ = std::move(fresh);
  capacity_ = new_capacity;
}

void Relation::ReserveDedupe(int64_t num_rows) {
  const size_t wanted = static_cast<size_t>(num_rows) * 2;
  if (!dedupe_.empty() && wanted <= dedupe_.size()) return;
  RehashDedupe(PowerOfTwoAtLeast(wanted));
}

void Relation::RehashDedupe(size_t new_capacity) {
  // Slots hold only row ids, so rehashing recomputes fingerprints from the
  // columns — in row order, so each column block is read as one sequential
  // stream (iterating slots instead would gather rows randomly). Rare by
  // construction: every bulk path pre-sizes the table for its whole batch,
  // and a sorted-loaded relation builds it once, on its first append.
  std::vector<int32_t> fresh(new_capacity, -1);
  const size_t slot_mask = new_capacity - 1;
  std::vector<ConstId> row_buf(static_cast<size_t>(arity_));
  for (int32_t row = 0; row < num_rows_; ++row) {
    CopyRow(row, row_buf.data());
    size_t slot = MixSlot(FingerprintOf(row_buf.data(), arity_)) & slot_mask;
    while (fresh[slot] >= 0) slot = (slot + 1) & slot_mask;
    fresh[slot] = row;
  }
  dedupe_ = std::move(fresh);
}

bool Relation::Insert(const ConstId* values, uint64_t fingerprint) {
  ReserveDedupe(num_rows_ + 1);
  const size_t slot_mask = dedupe_.size() - 1;
  size_t slot = MixSlot(fingerprint) & slot_mask;
  while (dedupe_[slot] >= 0) {
    if (RowEquals(dedupe_[slot], values)) return false;
    slot = (slot + 1) & slot_mask;
  }
  AppendRow(values);
  const int32_t row = num_rows_++;
  dedupe_[slot] = row;
  for (ProbeIndex& index : indexes_) AppendToIndex(&index, row);
  return true;
}

bool Relation::LoadSorted(const ConstId* rows, int64_t count) {
  TIEBREAK_CHECK_EQ(num_rows_, 0) << "LoadSorted needs an empty relation";
  if (count < 0 || count > INT32_MAX) return false;
  // A table kept by Clear() would hide the loaded rows from FindRow:
  // drop it, so lookups binary-search until the first append rebuilds it.
  dedupe_.clear();
  if (count == 0) return true;
  if (arity_ == 0) {
    if (count != 1) return false;
    num_rows_ = 1;
  } else {
    if (count > capacity_) GrowArena(count);
    // first_diff[c]: rows whose first column differing from the previous
    // row is c — a row starts a new key of every prefix longer than c.
    std::vector<int64_t> first_diff(static_cast<size_t>(arity_), 0);
    for (int64_t r = 0; r < count; ++r) {
      const ConstId* row = rows + r * arity_;
      for (int32_t c = 0; c < arity_; ++c) {
        if (row[c] < 0) return false;
        data_[static_cast<size_t>(c) * capacity_ + r] = row[c];
      }
      if (r == 0) continue;
      const ConstId* prev = row - arity_;
      int32_t c = 0;
      while (c < arity_ && row[c] == prev[c]) ++c;
      if (c == arity_ || row[c] < prev[c]) return false;
      ++first_diff[c];
    }
    prefix_keys_.assign(static_cast<size_t>(arity_), 1);
    int64_t keys = 1;
    for (int32_t c = 0; c < arity_; ++c) {
      keys += first_diff[c];
      prefix_keys_[c] = keys;
    }
    num_rows_ = static_cast<int32_t>(count);
  }
  // Index shells kept by Clear() cover the loaded rows like appended ones.
  for (ProbeIndex& index : indexes_) {
    index.next.reserve(num_rows_);
    for (int32_t row = 0; row < num_rows_; ++row) AppendToIndex(&index, row);
  }
  return true;
}

Relation::RowRun Relation::PrefixRun(int32_t prefix,
                                     const ConstId* pattern) const {
  TIEBREAK_CHECK(sorted_) << "PrefixRun on an unsorted relation";
  // Rows ascend lexicographically, so within the run of rows that match
  // columns 0 .. c-1, column c ascends too: narrow [begin, end) by one
  // equal_range per column, each over one contiguous column block.
  int32_t begin = 0;
  int32_t end = num_rows_;
  for (int32_t c = 0; c < prefix && begin < end; ++c) {
    const ConstId* column = ColumnData(c);
    const auto [first, last] =
        std::equal_range(column + begin, column + end, pattern[c]);
    begin = static_cast<int32_t>(first - column);
    end = static_cast<int32_t>(last - column);
  }
  return RowRun{begin, end};
}

int64_t Relation::BulkInsert(const Relation& staged) {
  TIEBREAK_CHECK_EQ(staged.arity_, arity_);
  const int32_t first_new = num_rows_;
  // One capacity decision for the whole batch: size the arena and dedupe
  // table for the worst case (every staged row new) so the scan never
  // regrows mid-stream.
  if (num_rows_ + staged.num_rows_ > capacity_) {
    GrowArena(num_rows_ + staged.num_rows_);
  }
  ReserveDedupe(num_rows_ + staged.num_rows_ + 1);
  const size_t slot_mask = dedupe_.size() - 1;
  // Hash the whole stage up front so the probe loop can prefetch the slot
  // line a few rows before it lands on it. For the dominant arities the
  // fingerprints come straight off the column blocks (sequential reads);
  // wider tuples gather row-wise.
  std::vector<uint64_t> fps(static_cast<size_t>(staged.num_rows_));
  std::vector<ConstId> row_buf(static_cast<size_t>(arity_));
  if (arity_ == 1) {
    const ConstId* c0 = staged.ColumnData(0);
    for (int32_t r = 0; r < staged.num_rows_; ++r) {
      fps[r] = static_cast<uint64_t>(c0[r]);
    }
  } else if (arity_ == 2) {
    const ConstId* c0 = staged.ColumnData(0);
    const ConstId* c1 = staged.ColumnData(1);
    for (int32_t r = 0; r < staged.num_rows_; ++r) {
      fps[r] = static_cast<uint64_t>(c0[r]) << 32 |
               static_cast<uint32_t>(c1[r]);
    }
  } else {
    for (int32_t r = 0; r < staged.num_rows_; ++r) {
      staged.CopyRow(r, row_buf.data());
      fps[r] = FingerprintOf(row_buf.data(), arity_);
    }
  }
  for (int32_t r = 0; r < staged.num_rows_; ++r) {
    if (r + kPrefetchAhead < staged.num_rows_) {
      PrefetchDedupe(fps[r + kPrefetchAhead]);
    }
    staged.CopyRow(r, row_buf.data());
    size_t slot = MixSlot(fps[r]) & slot_mask;
    bool duplicate = false;
    while (dedupe_[slot] >= 0) {
      if (RowEquals(dedupe_[slot], row_buf.data())) {
        duplicate = true;
        break;
      }
      slot = (slot + 1) & slot_mask;
    }
    if (duplicate) continue;
    AppendRow(row_buf.data());
    dedupe_[slot] = num_rows_++;
  }
  // Publish to the probe indexes: each index is extended once with the
  // whole batch of new rows (not per tuple). Chains only ever prepend at
  // slot heads, so MatchRange walks opened before this publish are
  // unaffected. Note this is one pass per index *per BulkInsert call* —
  // the round barrier calls BulkInsert once per non-empty worker stage.
  for (ProbeIndex& index : indexes_) {
    index.next.reserve(num_rows_);
    for (int32_t row = first_new; row < num_rows_; ++row) {
      AppendToIndex(&index, row);
    }
  }
  return num_rows_ - first_new;
}

int64_t Relation::InsertBatch(const ConstId* rows, int64_t count) {
  if (count <= 0) return 0;
  // Pre-grow once so mid-batch inserts never rehash (which would strand the
  // prefetches on the old slot arrays).
  ReserveDedupe(num_rows_ + count + 1);
  std::vector<uint64_t> fps(static_cast<size_t>(count));
  for (int64_t r = 0; r < count; ++r) {
    fps[r] = FingerprintOf(rows + r * arity_, arity_);
  }
  int64_t inserted = 0;
  for (int64_t r = 0; r < count; ++r) {
    if (r + kPrefetchAhead < count) {
      // Prefetch the dedupe slot and, for rows likely new, the index slot
      // lines the insert will touch.
      PrefetchDedupe(fps[r + kPrefetchAhead]);
      for (const ProbeIndex& index : indexes_) {
        if (index.slots.empty()) continue;
        const uint64_t key =
            ProbeKeyOf(index.mask, rows + (r + kPrefetchAhead) * arity_);
        __builtin_prefetch(
            &index.slots[MixSlot(key) & (index.slots.size() - 1)]);
      }
    }
    if (Insert(rows + r * arity_, fps[r])) ++inserted;
  }
  return inserted;
}

void Relation::Clear() {
  num_rows_ = 0;
  sorted_ = true;
  prefix_keys_.clear();
  std::fill(dedupe_.begin(), dedupe_.end(), -1);
  // Keep the arena and the materialized index shells (mask + slot/link
  // capacity): recycled staging relations re-probe the same masks every
  // fixpoint round, and retaining the shells keeps those rounds
  // allocation-free steady-state.
  for (ProbeIndex& index : indexes_) {
    index.next.clear();
    std::fill(index.slots.begin(), index.slots.end(), Slot{});
    index.used_slots = 0;
  }
  for (SortedIndex& sorted : sorted_indexes_) {
    sorted.keys.clear();
    sorted.rows.clear();
    sorted.built_rows = 0;
    sorted.distinct_keys = 0;
  }
}

void Relation::GrowIndexSlots(ProbeIndex* index) {
  const size_t new_capacity =
      index->slots.empty() ? kInitialSlots : index->slots.size() * 2;
  std::vector<Slot> fresh(new_capacity);
  const size_t slot_mask = new_capacity - 1;
  // Chains move wholesale: rehashing touches only the slot table, never the
  // `next` links, so live MatchRange walks are unaffected.
  for (const Slot& entry : index->slots) {
    if (entry.row < 0) continue;
    size_t slot = MixSlot(entry.key) & slot_mask;
    while (fresh[slot].row >= 0) slot = (slot + 1) & slot_mask;
    fresh[slot] = entry;
  }
  index->slots = std::move(fresh);
}

void Relation::AppendToIndex(ProbeIndex* index, int32_t row) const {
  if (index->slots.empty() ||
      static_cast<size_t>(index->used_slots + 1) * 2 > index->slots.size()) {
    GrowIndexSlots(index);
  }
  const uint64_t key = RowProbeKey(index->mask, row);
  const size_t slot_mask = index->slots.size() - 1;
  size_t slot = MixSlot(key) & slot_mask;
  while (index->slots[slot].row >= 0 && index->slots[slot].key != key) {
    slot = (slot + 1) & slot_mask;
  }
  index->next.push_back(index->slots[slot].row >= 0 ? index->slots[slot].row
                                                    : -1);
  if (index->slots[slot].row < 0) {
    index->slots[slot].key = key;
    ++index->used_slots;
  }
  index->slots[slot].row = row;
}

Relation::ProbeIndex& Relation::EnsureIndex(uint32_t mask) const {
  for (ProbeIndex& index : indexes_) {
    if (index.mask == mask) return index;
  }
  ProbeIndex& index = indexes_.emplace_back();
  index.mask = mask;
  index.next.reserve(num_rows_);
  for (int32_t row = 0; row < num_rows_; ++row) AppendToIndex(&index, row);
  return index;
}

Relation::MatchRange Relation::Probe(uint32_t mask,
                                     const ConstId* pattern) const {
  const ProbeIndex& index = EnsureIndex(mask);
  const int32_t index_pos = static_cast<int32_t>(&index - indexes_.data());
  return MatchRange(this, index_pos,
                    ProbeChainHead(ProbeRef{index_pos},
                                   ProbeKeyOf(mask, pattern)));
}

Relation::MatchRange Relation::ProbeHashed(ProbeRef ref, uint64_t key) const {
  return MatchRange(this, ref.index_pos, ProbeChainHead(ref, key));
}

int32_t Relation::ProbeChainHead(ProbeRef ref, uint64_t key) const {
  const ProbeIndex& index = indexes_[ref.index_pos];
  if (index.slots.empty()) return -1;
  const size_t slot_mask = index.slots.size() - 1;
  size_t slot = MixSlot(key) & slot_mask;
  while (index.slots[slot].row >= 0 && index.slots[slot].key != key) {
    slot = (slot + 1) & slot_mask;
  }
  return index.slots[slot].row;
}

Relation::SortedIndex& Relation::EnsureSorted(uint32_t mask) const {
  for (SortedIndex& sorted : sorted_indexes_) {
    if (sorted.mask == mask) return sorted;
  }
  SortedIndex& sorted = sorted_indexes_.emplace_back();
  sorted.mask = mask;
  return sorted;
}

void Relation::RefreshSorted(SortedIndex* sorted) const {
  if (sorted->built_rows == num_rows_) return;
  // Sort the appended tail, then merge it with the already-sorted prefix
  // into fresh arrays (two parallel arrays beat an array-of-pairs for the
  // binary-search scans that consume this index).
  std::vector<std::pair<uint64_t, int32_t>> tail;
  tail.reserve(static_cast<size_t>(num_rows_ - sorted->built_rows));
  for (int32_t row = static_cast<int32_t>(sorted->built_rows);
       row < num_rows_; ++row) {
    tail.emplace_back(RowProbeKey(sorted->mask, row), row);
  }
  std::sort(tail.begin(), tail.end());
  std::vector<uint64_t> keys;
  std::vector<int32_t> rows;
  keys.reserve(static_cast<size_t>(num_rows_));
  rows.reserve(static_cast<size_t>(num_rows_));
  size_t old_at = 0;
  size_t tail_at = 0;
  const size_t old_size = sorted->keys.size();
  while (old_at < old_size || tail_at < tail.size()) {
    const bool take_old =
        tail_at == tail.size() ||
        (old_at < old_size &&
         (sorted->keys[old_at] < tail[tail_at].first ||
          (sorted->keys[old_at] == tail[tail_at].first &&
           sorted->rows[old_at] < tail[tail_at].second)));
    if (take_old) {
      keys.push_back(sorted->keys[old_at]);
      rows.push_back(sorted->rows[old_at]);
      ++old_at;
    } else {
      keys.push_back(tail[tail_at].first);
      rows.push_back(tail[tail_at].second);
      ++tail_at;
    }
  }
  sorted->keys = std::move(keys);
  sorted->rows = std::move(rows);
  sorted->built_rows = num_rows_;
  sorted->distinct_keys = 0;
  for (size_t i = 0; i < sorted->keys.size(); ++i) {
    if (i == 0 || sorted->keys[i] != sorted->keys[i - 1]) {
      ++sorted->distinct_keys;
    }
  }
}

void Relation::EnsureSortedIndex(uint32_t mask) const {
  RefreshSorted(&EnsureSorted(mask));
}

Relation::SortedRun Relation::ProbeSorted(uint32_t mask,
                                          const ConstId* pattern) const {
  SortedIndex& sorted = EnsureSorted(mask);
  RefreshSorted(&sorted);
  const uint64_t key = ProbeKeyOf(mask, pattern);
  const auto begin = sorted.keys.begin();
  const auto lo = std::lower_bound(begin, sorted.keys.end(), key);
  if (lo == sorted.keys.end() || *lo != key) return SortedRun{};
  const auto hi = std::upper_bound(lo, sorted.keys.end(), key);
  const int32_t* rows = sorted.rows.data();
  return SortedRun{rows + (lo - begin), rows + (hi - begin)};
}

int64_t Relation::DistinctKeysEstimate(uint32_t mask) const {
  // Run steps build no index, so without the load's counts a prefix mask
  // of a sorted relation would never get an estimate (nor a merge join).
  const int32_t prefix = PrefixLength(mask);
  if (sorted_ && prefix > 0 && !prefix_keys_.empty()) {
    return prefix_keys_[prefix - 1];
  }
  for (const SortedIndex& sorted : sorted_indexes_) {
    if (sorted.mask == mask && sorted.built_rows == num_rows_) {
      return sorted.distinct_keys;
    }
  }
  for (const ProbeIndex& index : indexes_) {
    if (index.mask == mask) return index.used_slots;
  }
  return -1;
}

}  // namespace tiebreak
