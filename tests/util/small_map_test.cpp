#include "util/small_map.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <string>

#include "util/rng.hpp"

namespace sqos::util {
namespace {

TEST(SmallU64Map, EmplaceDoesNotOverwrite) {
  SmallU64Map<std::string> m;
  const auto [first, inserted] = m.emplace(7, "seven");
  EXPECT_TRUE(inserted);
  EXPECT_EQ(first->first, 7u);
  EXPECT_EQ(first->second, "seven");

  const auto [again, reinserted] = m.emplace(7, "other");
  EXPECT_FALSE(reinserted);
  EXPECT_EQ(again->second, "seven");  // the existing value is kept
  EXPECT_EQ(m.size(), 1u);
}

TEST(SmallU64Map, MissReturnsEnd) {
  SmallU64Map<int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(1), m.end());
  m.emplace(1, 10);
  EXPECT_EQ(m.find(2), m.end());
  const SmallU64Map<int>& cm = m;
  EXPECT_EQ(cm.find(2), cm.end());
  ASSERT_NE(cm.find(1), cm.end());
  EXPECT_EQ(cm.find(1)->second, 10);
}

TEST(SmallU64Map, EraseByKeyReturnsZeroOrOne) {
  SmallU64Map<int> m;
  m.emplace(1, 10);
  m.emplace(2, 20);
  EXPECT_EQ(m.erase(std::uint64_t{3}), 0u);
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.erase(std::uint64_t{1}), 1u);
  EXPECT_EQ(m.erase(std::uint64_t{1}), 0u);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_EQ(m.find(1), m.end());
  EXPECT_EQ(m.at(2), 20);
}

TEST(SmallU64Map, SwapWithBackEraseKeepsEveryOtherKeyFindable) {
  // Erase from the front, the middle and the back of the vector in a random
  // order against a std::map model; every surviving key must still be found
  // with its own value after each erase.
  SmallU64Map<std::uint64_t> m;
  std::map<std::uint64_t, std::uint64_t> model;
  Rng rng{17};
  for (std::uint64_t k = 0; k < 64; ++k) {
    const std::uint64_t key = k * 1'000'003;
    m.emplace(key, key + 1);
    model.emplace(key, key + 1);
  }
  while (!model.empty()) {
    auto victim = model.begin();
    std::advance(victim, static_cast<std::ptrdiff_t>(rng.next_below(model.size())));
    if (rng.next_double() < 0.5) {
      EXPECT_EQ(m.erase(victim->first), 1u);
    } else {
      m.erase(m.find(victim->first));
    }
    model.erase(victim);
    ASSERT_EQ(m.size(), model.size());
    for (const auto& [key, value] : model) {
      const auto it = m.find(key);
      ASSERT_NE(it, m.end()) << "key " << key;
      EXPECT_EQ(it->second, value);
    }
  }
  EXPECT_TRUE(m.empty());
}

TEST(SmallU64Map, AtReturnsAMutableReference) {
  SmallU64Map<int> m;
  m.emplace(5, 50);
  m.emplace(6, 60);
  m.at(5) += 1;
  EXPECT_EQ(m.at(5), 51);
  EXPECT_EQ(m.at(6), 60);
  EXPECT_EQ(m.find(5)->second, 51);
}

}  // namespace
}  // namespace sqos::util
