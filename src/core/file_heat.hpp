// Access-frequency tracking — the "what to replicate" decision (§V).
//
// When replication triggers, the RM replicates its *busiest* files: the first
// N_BF files ranked by request frequency whose cumulative accesses cover the
// configured fraction of the RM's total access count (50 % in the paper's
// experiments).
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace sqos::core {

class FileHeat {
 public:
  /// One access to `file` was served.
  void record_access(std::uint64_t file);

  /// A replica left this RM; its heat record is dropped so deleted files do
  /// not distort future cover computations.
  void forget(std::uint64_t file);

  [[nodiscard]] std::uint64_t total_accesses() const { return total_; }
  [[nodiscard]] std::uint64_t accesses(std::uint64_t file) const;

  /// Files sorted by access count descending (ties by ascending key for
  /// determinism), truncated to the smallest prefix covering at least
  /// `cover_fraction` of the total access count — the N_BF set. Empty when
  /// nothing was accessed.
  [[nodiscard]] std::vector<std::uint64_t> busiest_cover(double cover_fraction) const;

  /// All files ranked by heat descending (full ranking, for diagnostics).
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>> ranking() const;

 private:
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>>::iterator lower_bound(
      std::uint64_t file) {
    return std::lower_bound(counts_.begin(), counts_.end(), file,
                            [](const std::pair<std::uint64_t, std::uint64_t>& e,
                               std::uint64_t f) { return e.first < f; });
  }
  [[nodiscard]] std::vector<std::pair<std::uint64_t, std::uint64_t>>::const_iterator lower_bound(
      std::uint64_t file) const {
    return std::lower_bound(counts_.begin(), counts_.end(), file,
                            [](const std::pair<std::uint64_t, std::uint64_t>& e,
                               std::uint64_t f) { return e.first < f; });
  }

  /// (file, access count), sorted by file key. The per-RM file set is a few
  /// hundred entries, but record_access runs once per served request — a
  /// binary search over one flat array is cheaper there than a hash probe,
  /// and ranking() gets its input in a deterministic order for free.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace sqos::core
