// Tournament fast-tree for O(log n) resource selection.
//
// The ECNP decision sites (CFP winner selection, replication-destination
// choice) are argmax-with-ties queries over a dense slot universe: "which
// RM has the best key, how many are tied at that key, and what is the r-th
// tied slot in ascending slot order?" A linear scan answers all three in
// O(n); this index answers them in O(log n) after O(log n) incremental
// updates (allocate/release re-keys, crash/recover de/reactivation), while
// reproducing the linear scan's semantics *exactly*:
//
//   - the reported best slot is the lowest slot achieving the maximum key,
//     i.e. the first maximum a left-to-right scan encounters;
//   - tie_at(r) enumerates the tied slots in ascending slot order, i.e. the
//     order a scan's tie list has;
//   - key comparison is plain double ==/<, so any two keys produced by the
//     same arithmetic compare identically to the scan.
//
// Equivalence to the scan is enforced by tests/core/selection_tree_test.cpp
// (mutation-path units) and tests/core/selection_diff_test.cpp (randomized
// differential harness); see docs/TESTING.md.
//
// Keys must not be NaN (a NaN key would silently fall out of both the scan
// and the tree, but with different tie accounting); set_key CHECKs this.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace sqos::core {

class SelectionTree {
 public:
  /// Sentinel slot id: "no active slot".
  static constexpr std::uint32_t kNoSlot = std::numeric_limits<std::uint32_t>::max();

  /// Aggregate answer at (a subtree of) the index.
  struct Best {
    std::uint32_t slot = kNoSlot;  // lowest slot achieving `key`
    double key = 0.0;              // the maximum key
    std::uint32_t ties = 0;        // active slots achieving it; 0 = empty
  };

  SelectionTree() = default;
  explicit SelectionTree(std::size_t slots) { reset(slots); }

  /// Resize to `slots` slots, all inactive. Reuses storage.
  void reset(std::size_t slots);

  /// Bulk-load: slot i active with keys[i], for all i — O(n), the fast path
  /// for per-negotiation scratch use.
  void build(std::span<const double> keys);

  [[nodiscard]] std::size_t slot_count() const { return slots_; }
  [[nodiscard]] std::uint32_t active_count() const { return active_; }

  /// (Re-)key `slot` and activate it. O(log n).
  void set_key(std::uint32_t slot, double key);

  /// Remove `slot` from consideration (crash / drained). Idempotent.
  /// O(log n).
  void deactivate(std::uint32_t slot);

  [[nodiscard]] bool is_active(std::uint32_t slot) const;

  /// Key of an *active* slot (CHECKs activity).
  [[nodiscard]] double key_of(std::uint32_t slot) const;

  /// The maximum over active slots. O(1). `ties == 0` means no active slot.
  [[nodiscard]] Best best() const;

  /// The r-th slot (0-based, ascending slot order) among those tied at the
  /// maximum — exactly the linear scan's ties[r]. Requires r < best().ties.
  /// O(log n).
  [[nodiscard]] std::uint32_t tie_at(std::uint32_t r) const;

  /// best() restricted to active slots NOT in `excluded`. `excluded` must be
  /// sorted ascending (duplicates allowed, inactive/out-of-range entries
  /// ignored). O(|excluded| · log n): the recursion only splits on subtrees
  /// overlapping an excluded slot.
  [[nodiscard]] Best best_excluding(std::span<const std::uint32_t> excluded) const;

  /// tie_at(r) under the same exclusion. Requires r < best_excluding(...).ties
  /// for the same `excluded`.
  [[nodiscard]] std::uint32_t tie_at_excluding(std::uint32_t r,
                                               std::span<const std::uint32_t> excluded) const;

 private:
  struct Node {
    double key = 0.0;
    std::uint32_t ties = 0;  // 0 = empty subtree
    std::uint32_t slot = kNoSlot;
  };

  [[nodiscard]] static Node merge(const Node& a, const Node& b);
  void pull_up(std::uint32_t leaf_index);
  [[nodiscard]] Node query_excluding(std::uint32_t node, std::uint32_t lo, std::uint32_t hi,
                                     std::span<const std::uint32_t> excluded) const;
  [[nodiscard]] std::uint32_t select_tie(std::uint32_t node, std::uint32_t r) const;
  bool select_tie_excluding(std::uint32_t node, std::uint32_t lo, std::uint32_t hi, double key,
                            std::span<const std::uint32_t> excluded, std::uint32_t& r,
                            std::uint32_t& out) const;

  // Implicit perfect binary tree: root at 1, leaves at [leaf_base_,
  // leaf_base_ + leaf_base_); slot s lives at leaf_base_ + s. leaf_base_ is
  // the smallest power of two >= slots_ (>= 1).
  std::vector<Node> nodes_;
  std::size_t slots_ = 0;
  std::uint32_t leaf_base_ = 1;
  std::uint32_t active_ = 0;
};

}  // namespace sqos::core
