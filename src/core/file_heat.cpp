#include "core/file_heat.hpp"

#include <cassert>

namespace sqos::core {

void FileHeat::record_access(std::uint64_t file) {
  const auto it = lower_bound(file);
  if (it != counts_.end() && it->first == file) {
    ++it->second;
  } else {
    counts_.insert(it, {file, 1});
  }
  ++total_;
}

void FileHeat::forget(std::uint64_t file) {
  const auto it = lower_bound(file);
  if (it == counts_.end() || it->first != file) return;
  total_ -= it->second;
  counts_.erase(it);
}

std::uint64_t FileHeat::accesses(std::uint64_t file) const {
  const auto it = lower_bound(file);
  return it == counts_.end() || it->first != file ? 0 : it->second;
}

namespace {

/// Ranking order: access count descending, then key ascending. Keys are
/// unique, so the order is total.
bool hotter(const std::pair<std::uint64_t, std::uint64_t>& a,
            const std::pair<std::uint64_t, std::uint64_t>& b) {
  if (a.second != b.second) return a.second > b.second;
  return a.first < b.first;
}

}  // namespace

std::vector<std::pair<std::uint64_t, std::uint64_t>> FileHeat::ranking() const {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ranked{counts_.begin(), counts_.end()};
  std::sort(ranked.begin(), ranked.end(), hotter);
  return ranked;
}

std::vector<std::uint64_t> FileHeat::busiest_cover(double cover_fraction) const {
  assert(cover_fraction >= 0.0 && cover_fraction <= 1.0);
  std::vector<std::uint64_t> out;
  if (total_ == 0) return out;
  // The cover is a short prefix of ranking(): heap-select it (O(n) to build,
  // O(log n) per file taken) rather than sort the whole table.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> heap{counts_.begin(), counts_.end()};
  const auto colder = [](const auto& a, const auto& b) { return hotter(b, a); };
  std::make_heap(heap.begin(), heap.end(), colder);
  const double target = cover_fraction * static_cast<double>(total_);
  double cum = 0.0;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), colder);
    const auto [file, count] = heap.back();
    heap.pop_back();
    out.push_back(file);
    cum += static_cast<double>(count);
    if (cum >= target) break;
  }
  return out;
}

}  // namespace sqos::core
