#include "core/file_heat.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace sqos::core {
namespace {

TEST(FileHeat, CountsAccesses) {
  FileHeat h;
  EXPECT_EQ(h.total_accesses(), 0u);
  h.record_access(1);
  h.record_access(1);
  h.record_access(2);
  EXPECT_EQ(h.total_accesses(), 3u);
  EXPECT_EQ(h.accesses(1), 2u);
  EXPECT_EQ(h.accesses(2), 1u);
  EXPECT_EQ(h.accesses(99), 0u);
}

TEST(FileHeat, ForgetDropsCountsAndTotal) {
  FileHeat h;
  h.record_access(1);
  h.record_access(1);
  h.record_access(2);
  h.forget(1);
  EXPECT_EQ(h.accesses(1), 0u);
  EXPECT_EQ(h.total_accesses(), 1u);
  h.forget(42);  // unknown: no-op
  EXPECT_EQ(h.total_accesses(), 1u);
}

TEST(FileHeat, RankingIsDescendingWithDeterministicTies) {
  FileHeat h;
  for (int i = 0; i < 5; ++i) h.record_access(10);
  for (int i = 0; i < 3; ++i) h.record_access(20);
  for (int i = 0; i < 3; ++i) h.record_access(5);
  const auto ranked = h.ranking();
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].first, 10u);
  EXPECT_EQ(ranked[1].first, 5u);   // tie broken by ascending key
  EXPECT_EQ(ranked[2].first, 20u);
}

TEST(FileHeat, BusiestCoverHalf) {
  // Paper §VI.C: N_BF covers 50 % of the total access count.
  FileHeat h;
  for (int i = 0; i < 50; ++i) h.record_access(1);
  for (int i = 0; i < 30; ++i) h.record_access(2);
  for (int i = 0; i < 20; ++i) h.record_access(3);
  const auto cover = h.busiest_cover(0.5);
  ASSERT_EQ(cover.size(), 1u);  // file 1 alone covers 50 %
  EXPECT_EQ(cover[0], 1u);
}

TEST(FileHeat, BusiestCoverNeedsMultipleFiles) {
  FileHeat h;
  for (int i = 0; i < 40; ++i) h.record_access(1);
  for (int i = 0; i < 35; ++i) h.record_access(2);
  for (int i = 0; i < 25; ++i) h.record_access(3);
  const auto cover = h.busiest_cover(0.7);
  ASSERT_EQ(cover.size(), 2u);
  EXPECT_EQ(cover[0], 1u);
  EXPECT_EQ(cover[1], 2u);
}

TEST(FileHeat, CoverOfEmptyHeatIsEmpty) {
  FileHeat h;
  EXPECT_TRUE(h.busiest_cover(0.5).empty());
}

TEST(FileHeat, FullCoverReturnsEverything) {
  FileHeat h;
  h.record_access(1);
  h.record_access(2);
  h.record_access(3);
  EXPECT_EQ(h.busiest_cover(1.0).size(), 3u);
}

TEST(FileHeat, ZeroCoverStillReturnsBusiestFile) {
  // The cover prefix is never empty when accesses exist: replication always
  // has at least one candidate.
  FileHeat h;
  h.record_access(7);
  const auto cover = h.busiest_cover(0.0);
  ASSERT_EQ(cover.size(), 1u);
  EXPECT_EQ(cover[0], 7u);
}

TEST(FileHeat, BusiestCoverIsTheCoveringPrefixOfRanking) {
  // busiest_cover heap-selects; ranking() sorts. On random tables with many
  // tied counts and forgotten files, the cover must be exactly the shortest
  // prefix of ranking() whose accesses reach the fraction.
  Rng rng{4242};
  for (int round = 0; round < 200; ++round) {
    FileHeat h;
    const std::uint64_t files = 1 + rng.next_below(300);
    const std::uint64_t accesses = 1 + rng.next_below(3000);
    for (std::uint64_t a = 0; a < accesses; ++a) {
      // Squaring skews the draw toward low keys: a few hot files, many ties
      // among the cold ones.
      const double u = rng.next_double();
      h.record_access(static_cast<std::uint64_t>(u * u * static_cast<double>(files)) * 7);
    }
    for (std::uint64_t f = 0; f < files / 10; ++f) h.forget(rng.next_below(files) * 7);
    const auto ranked = h.ranking();
    for (const double fraction : {0.0, 0.1, 0.25, 0.5, 0.7, 0.9, 1.0}) {
      std::vector<std::uint64_t> expected;
      const double target = fraction * static_cast<double>(h.total_accesses());
      double cum = 0.0;
      for (const auto& [file, count] : ranked) {
        if (h.total_accesses() == 0) break;
        expected.push_back(file);
        cum += static_cast<double>(count);
        if (cum >= target) break;
      }
      ASSERT_EQ(h.busiest_cover(fraction), expected) << "round " << round << " fraction "
                                                     << fraction;
    }
  }
}

}  // namespace
}  // namespace sqos::core
