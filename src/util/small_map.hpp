// SmallU64Map — an unordered_map replacement for small, hot key sets.
//
// The DFS client keys its in-flight negotiation state (opens, writes,
// sessions, pending releases) by a 64-bit id, and the *lookups* run once per
// delivered message — millions of times per run. A flat vector of
// (key, value) pairs with linear scan skips unordered_map's hash, modulo and
// cold bucket chase, and allocates nothing once warm.
//
// The maps are not tiny, though. Averaged over lookups in bench/e2e, the map
// searched holds 74 entries on scale-2048 (148 at most), 46 on paper-day
// (72), 38 on ingest-mix (111) and 2.2 on ec-tenants (72), so a lookup
// typically scans tens of entries — many cache lines when the values are
// large.
//
// Semantics match the subset of unordered_map the client uses: find/end,
// at, emplace (no overwrite), erase by iterator or key. Erase is
// swap-with-back, so iteration order is NOT stable — callers must never
// iterate for output (the determinism linter's no-unordered-iteration rule
// applies in spirit; these maps are lookup tables, not sequences).
#pragma once

#include <cassert>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

namespace sqos::util {

template <typename V>
class SmallU64Map {
 public:
  using value_type = std::pair<std::uint64_t, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  [[nodiscard]] iterator begin() { return items_.begin(); }
  [[nodiscard]] iterator end() { return items_.end(); }
  [[nodiscard]] const_iterator begin() const { return items_.begin(); }
  [[nodiscard]] const_iterator end() const { return items_.end(); }
  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] bool empty() const { return items_.empty(); }

  [[nodiscard]] iterator find(std::uint64_t key) {
    for (auto it = items_.begin(); it != items_.end(); ++it) {
      if (it->first == key) return it;
    }
    return items_.end();
  }
  [[nodiscard]] const_iterator find(std::uint64_t key) const {
    for (auto it = items_.begin(); it != items_.end(); ++it) {
      if (it->first == key) return it;
    }
    return items_.end();
  }

  [[nodiscard]] V& at(std::uint64_t key) {
    const iterator it = find(key);
    assert(it != items_.end());
    return it->second;
  }

  /// Insert (key, V{args...}) unless the key is present — unordered_map
  /// emplace semantics. Invalidates iterators/references on growth.
  template <typename... Args>
  std::pair<iterator, bool> emplace(std::uint64_t key, Args&&... args) {
    const iterator it = find(key);
    if (it != items_.end()) return {it, false};
    // Jump straight to the steady-state capacity: growing 1 -> 2 -> 4 costs
    // an allocation (and a value move) per step, once per owner — and there
    // are 10^5 owners in the big cells.
    if (items_.capacity() == 0) items_.reserve(4);
    items_.emplace_back(std::piecewise_construct, std::forward_as_tuple(key),
                        std::forward_as_tuple(std::forward<Args>(args)...));
    return {items_.end() - 1, true};
  }

  /// Swap-with-back removal: O(1), order not preserved.
  void erase(iterator it) {
    assert(it != items_.end());
    if (it != items_.end() - 1) *it = std::move(items_.back());
    items_.pop_back();
  }

  std::size_t erase(std::uint64_t key) {
    const iterator it = find(key);
    if (it == items_.end()) return 0;
    erase(it);
    return 1;
  }

 private:
  std::vector<value_type> items_;
};

}  // namespace sqos::util
