// Calendar-queue priority structure for the DES hot path.
//
// An unsorted-bucket calendar queue (Brown 1988): simulated time is cut
// into fixed-width slices, slice k lands in bucket k mod N, and a
// cursor walks the slices in order. Insert is an O(1) list push;
// popping works slice-at-a-time — when the cursor reaches an occupied
// slice, its entries are extracted in one pass, sorted once by
// (at, seq), and served from a scratch buffer, so each entry is touched
// O(log k) times instead of rescanned on every pop. Against the
// O(log n) sift of a binary heap both ends are O(1) amortized, which is
// why this workload's bounded, clustered horizons (sub-minute message
// hops, 30-min scan waits, 24-h reboots) favor it.
//
// Buckets are intrusive singly-linked lists threaded through an
// index-based node pool (the shape McSim uses for its event queue):
// insert, remove, extraction and rebuilds relink indices and never
// allocate once the pool has grown to the live-entry peak, so the queue
// adds nothing to the scheduler's per-event allocation budget.
//
// Ordering contract (identical to the heap it replaces): entries pop in
// nondecreasing (at, seq) order, seq being the scheduler's monotone
// FIFO tie-break. Removal by (at, id) is eager — the entry leaves its
// bucket (or the serving buffer) immediately, which is what fixes the
// lazy-cancellation memory growth of the heap.
//
// Slice width (Brown's head sampling): every rebuild sets the width to
// three times the mean gap between the earliest pending entries, after
// dropping gaps above twice the mean. The head is what the cursor serves
// next, so that is where slices should hold a few entries; the far tail
// (24-h reboots) just spreads thinly over the buckets. The queue counts
// the entries in each slice it serves. When a window of served slices
// averages more than kDenseSliceEntries entries (or walks more than
// kSparseSliceGap empty slices per served one), the next hunt refits
// the width from a fresh head sample, so the width follows the head's
// density as an outbreak grows and fades. A refit that leaves the width
// about where it was (a same-instant storm) doubles the window before
// the next check, which bounds the refit work.
//
// Out-of-range times (SimTime::infinity(), or anything whose slice
// index would overflow the cursor) are parked in an overflow list that
// is only consulted when the calendar proper is empty; rebuilds
// reclassify it, so a width change can never reorder overflow entries
// ahead of calendar ones.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mvsim::des {

class CalendarQueue {
 public:
  /// What peek() exposes of the minimum entry.
  struct Entry {
    double at = 0.0;
    std::uint64_t seq = 0;
    std::uint32_t id = 0;
  };

  CalendarQueue();

  /// O(1). `at` must be >= 0 (the scheduler's now() floor); +infinity
  /// is allowed and lands in the overflow list.
  void insert(double at, std::uint64_t seq, std::uint32_t id) {
    cursor_valid_ = false;
    ++size_;
    if (!in_calendar_range(at)) {
      insert_overflow(at, seq, id);
      return;
    }
    const std::uint64_t abs = abs_bucket_of(at);
    if (slice_active_ && abs <= slice_abs_) {
      // The entry competes with (or precedes) the slice being served;
      // keep the serving buffer authoritative for its slice.
      insert_into_slice(at, seq, id, abs);
      return;
    }
    // peek() may have walked the cursor past `at` while hunting for a
    // minimum that run_until() then declined to pop; rewind so the new
    // entry cannot be skipped.
    if (abs < current_abs_) current_abs_ = abs;
    link(abs, at, seq, id);
    ++calendar_size_;
    if (calendar_size_ > bucket_grow_limit_) grow();
  }

  /// Eagerly removes the entry inserted with this (at, id). Returns
  /// false if no such entry is pending.
  bool remove(double at, std::uint32_t id);

  /// Minimum entry by (at, seq), or nullptr when empty. The location is
  /// cached, so an immediately following pop_front() is O(1).
  [[nodiscard]] const Entry* peek() {
    if (slice_active_) {
      if (slice_pos_ < slice_.size()) return &slice_[slice_pos_];
      finish_slice();
    }
    return peek_slow();
  }

  /// The entry that follows the minimum, when the slice being served
  /// already holds it (nullptr otherwise). Lets the scheduler prefetch
  /// the next event while the current one runs.
  [[nodiscard]] const Entry* peek_second() const {
    return slice_active_ && slice_pos_ + 1 < slice_.size() ? &slice_[slice_pos_ + 1] : nullptr;
  }

  /// Removes the minimum entry (re-peeking if needed). No-op on an
  /// empty queue.
  void pop_front() {
    if (slice_active_ && slice_pos_ < slice_.size()) {
      ++slice_pos_;
      --calendar_size_;
      --size_;
      return;
    }
    pop_front_slow();
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  // Geometry introspection for tests and benches.
  [[nodiscard]] std::size_t bucket_count() const { return heads_.size(); }
  [[nodiscard]] double bucket_width() const { return width_; }
  [[nodiscard]] std::size_t overflow_size() const { return overflow_size_; }
  [[nodiscard]] std::uint64_t rebuild_count() const { return rebuilds_; }

  // Work counters (hardware-independent; see docs/architecture.md).
  /// Non-empty slices the cursor extracted and served.
  [[nodiscard]] std::uint64_t slices_served() const { return slices_served_; }
  /// Entries those slices held when extracted; divided by
  /// slices_served() it is the mean slice occupancy.
  [[nodiscard]] std::uint64_t entries_served() const { return entries_served_; }
  /// Extracted slices that were out of (at, seq) order and needed a sort.
  [[nodiscard]] std::uint64_t slice_sorts() const { return slice_sorts_; }
  /// Width refits triggered by dense or sparse served slices (growth
  /// rebuilds, which refit too, are counted by rebuild_count() only).
  [[nodiscard]] std::uint64_t refit_count() const { return refits_; }
  /// Pool slots ever created; constant in steady state (the queue's
  /// zero-allocation witness, alongside EventArena::chunk_count()).
  [[nodiscard]] std::size_t node_pool_size() const { return pool_.size() - 1; }

 private:
  /// Index-based list node; `next` is a pool index, 0 = end of list.
  struct Node {
    double at = 0.0;
    std::uint64_t seq = 0;
    std::uint64_t abs_bucket = 0;  // floor(at * inv_width) at link time
    std::uint32_t id = 0;
    std::uint32_t next = 0;
  };

  /// Starting bucket count (power of two). Generous on purpose: the
  /// grow trigger fires at 2 entries/bucket, so a small start would
  /// rebuild twice while a replication warms up — 4 KiB of heads buys
  /// rebuild-free filling up to 2048 pending events.
  static constexpr std::size_t kMinBuckets = 1024;
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 20;
  /// Slice indices at or beyond this go to the overflow list: guards
  /// the double -> uint64 cast and keeps +infinity out of the calendar.
  static constexpr double kMaxAbsBucket = 9.0e15;
  /// Head sample of a width fit: at most this many of the earliest
  /// finite entries.
  static constexpr std::size_t kHeadSample = 64;
  /// Served slices per density check, and the mean occupancy above
  /// which a window of them counts as dense.
  static constexpr std::uint64_t kRefitWindow = 64;
  static constexpr std::uint64_t kDenseSliceEntries = 8;
  /// Empty slices walked per served slice above which a window counts
  /// as sparse (the head thinned out under a narrow width).
  static constexpr std::uint64_t kSparseSliceGap = 16;
  /// Cap on the backed-off window (see refit_window_).
  static constexpr std::uint64_t kMaxRefitWindow = std::uint64_t{1} << 20;

  [[nodiscard]] bool in_calendar_range(double at) const {
    // NaN and +infinity fail the comparison and fall to overflow.
    return at * inv_width_ < kMaxAbsBucket;
  }
  [[nodiscard]] std::uint64_t abs_bucket_of(double at) const {
    return static_cast<std::uint64_t>(at * inv_width_);
  }

  std::uint32_t alloc_node();
  void free_node(std::uint32_t node) { free_nodes_.push_back(node); }
  void link(std::uint64_t abs, double at, std::uint64_t seq, std::uint32_t id);
  void insert_overflow(double at, std::uint64_t seq, std::uint32_t id);
  void insert_into_slice(double at, std::uint64_t seq, std::uint32_t id, std::uint64_t abs);
  /// Unlinks `node` from the list rooted at `*head`, where `prev` is
  /// its predecessor (0 = it is the head), and recycles it.
  void unlink(std::uint32_t* head, std::uint32_t prev, std::uint32_t node);
  bool remove_from_list(std::uint32_t* head, std::uint32_t id);
  /// Drops the (exhausted) serving buffer and advances the cursor.
  void finish_slice();
  /// Puts the unserved tail of the serving buffer back into its bucket.
  void abandon_slice();
  /// Cursor hunt: find the next occupied slice, extract and sort it.
  [[nodiscard]] const Entry* peek_slow();
  [[nodiscard]] const Entry* scan_overflow();
  void pop_front_slow();
  void grow();
  /// Counts a freshly extracted slice and flags a refit when the
  /// current window of served slices ran dense or sparse.
  void note_slice_served(std::size_t entries);
  /// Re-buckets every entry (calendar, slice and overflow) into
  /// `new_bucket_count` buckets with a width fitted to the head of the
  /// queue. Returns false when the head sample kept the old width.
  bool rebuild(std::size_t new_bucket_count);
  /// Brown's width estimate from the earliest finite entries in
  /// rebuild_scratch_ (reorders it); 0 when they are too few or share
  /// one instant.
  [[nodiscard]] double head_sample_width();

  std::vector<Node> pool_;  // index 0 unused (null)
  std::vector<std::uint32_t> free_nodes_;
  std::vector<std::uint32_t> heads_;  // per-bucket list heads
  std::uint32_t overflow_head_ = 0;
  std::size_t overflow_size_ = 0;
  std::size_t mask_ = 0;                // heads_.size() - 1
  std::size_t bucket_grow_limit_ = 0;   // 2 * heads_.size(), cached
  double width_ = 1.0;                  // minutes per slice; re-fit on rebuild
  double inv_width_ = 1.0;
  std::uint64_t current_abs_ = 0;       // slice the next hunt scans first
  std::size_t size_ = 0;                // calendar + slice + overflow entries
  std::size_t calendar_size_ = 0;       // entries in buckets + serving buffer
  std::uint64_t rebuilds_ = 0;
  std::uint64_t refits_ = 0;
  std::uint64_t slices_served_ = 0;
  std::uint64_t entries_served_ = 0;
  std::uint64_t slice_sorts_ = 0;
  // Density window: slices, entries and empty slices walked since the
  // last check, and the window length (kRefitWindow, doubled after each
  // refit that left the width within 25% of where it was).
  std::uint64_t window_slices_ = 0;
  std::uint64_t window_entries_ = 0;
  std::uint64_t window_empty_ = 0;
  std::uint64_t refit_window_ = kRefitWindow;
  bool refit_due_ = false;

  // Slice serving buffer: the extracted, sorted entries of slice
  // `slice_abs_`; slice_[slice_pos_..] are still pending.
  std::vector<Entry> slice_;
  std::vector<Entry> rebuild_scratch_;  // reused across rebuilds
  std::size_t slice_pos_ = 0;
  std::uint64_t slice_abs_ = 0;
  bool slice_active_ = false;

  // Overflow peek cache (calendar-empty regime only).
  bool cursor_valid_ = false;
  std::uint32_t cursor_prev_ = 0;
  std::uint32_t cursor_node_ = 0;
  Entry cursor_entry_{};
};

}  // namespace mvsim::des
