// Additional reference-model and golden checks for the utility layer.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "storage/disk_store.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"

namespace sqos {
namespace {

TEST(ReferenceModel, DiskStoreMatchesMapModel) {
  const std::int64_t capacity = 1'000'000;
  storage::DiskStore disk{Bytes::of(capacity)};
  std::map<std::uint64_t, std::int64_t> model;
  std::int64_t used = 0;
  Rng rng{314};

  for (int step = 0; step < 30'000; ++step) {
    const std::uint64_t file = rng.next_below(64);
    if (rng.next_double() < 0.6) {
      const std::int64_t size = static_cast<std::int64_t>(rng.next_below(100'000));
      const Status s = disk.add(file, Bytes::of(size));
      const bool should_succeed = !model.contains(file) && used + size <= capacity;
      ASSERT_EQ(s.is_ok(), should_succeed) << "step " << step;
      if (should_succeed) {
        model.emplace(file, size);
        used += size;
      }
    } else {
      const Status s = disk.remove(file);
      ASSERT_EQ(s.is_ok(), model.contains(file)) << "step " << step;
      if (model.contains(file)) {
        used -= model[file];
        model.erase(file);
      }
    }
    ASSERT_EQ(disk.used().count(), used);
    ASSERT_EQ(disk.file_count(), model.size());
  }
}

TEST(ReferenceModel, ZipfSamplingMatchesPmfChiSquared) {
  const ZipfDistribution zipf{100, 1.0};
  Rng rng{1618};
  const int n = 500'000;
  std::vector<int> counts(100, 0);
  for (int i = 0; i < n; ++i) ++counts[zipf.sample(rng)];
  // Pearson chi-squared against the pmf; 99 dof -> reject above ~149 at 0.1%.
  double chi2 = 0.0;
  for (std::size_t k = 0; k < 100; ++k) {
    const double expected = zipf.pmf(k) * n;
    const double diff = counts[k] - expected;
    chi2 += diff * diff / expected;
  }
  EXPECT_LT(chi2, 149.0);
}

TEST(ReferenceModel, RngUniformityChiSquared) {
  Rng rng{42};
  const int buckets = 64;
  const int n = 640'000;
  std::vector<int> counts(buckets, 0);
  for (int i = 0; i < n; ++i) {
    ++counts[static_cast<std::size_t>(rng.next_double() * buckets)];
  }
  const double expected = static_cast<double>(n) / buckets;
  double chi2 = 0.0;
  for (const int c : counts) {
    const double diff = c - expected;
    chi2 += diff * diff / expected;
  }
  // 63 dof -> 0.1% critical value ~ 103.
  EXPECT_LT(chi2, 103.0);
}

}  // namespace
}  // namespace sqos
