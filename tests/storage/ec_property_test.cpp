// Property battery for the erasure-coded layout (ROADMAP item 4).
//
// Codec ground truth: for every shape in {(2,1), (4,2), (8,3)} and every
// erasure subset of size <= m, encode -> erase -> decode reproduces the
// original bytes exactly; every subset of size m+1 fails loudly. The
// cluster-level half mirrors the same rule at flow granularity: an EC(4,2)
// stripe across 6 RMs survives *every* 2-RM crash pair (degraded through
// parity when a data shard dies) and fails loudly under any 3 crashes.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "storage/ec_codec.hpp"
#include "storage/stripe_layout.hpp"
#include "testing/test_cluster.hpp"

namespace sqos {
namespace {

/// Deterministic pseudo-random file content (splitmix-style LCG).
std::vector<std::uint8_t> make_file(std::size_t bytes, std::uint64_t seed) {
  std::vector<std::uint8_t> out(bytes);
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL + 1;
  for (std::size_t i = 0; i < bytes; ++i) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    out[i] = static_cast<std::uint8_t>(state >> 56);
  }
  return out;
}

struct Shape {
  std::size_t k;
  std::size_t m;
};

constexpr Shape kShapes[] = {{2, 1}, {4, 2}, {8, 3}};

TEST(EcCodecProperty, EveryErasureSubsetUpToMReconstructsExactBytes) {
  // Sizes exercise the padding path: 1 byte, a prime, and a multiple of k.
  for (const Shape shape : kShapes) {
    for (const std::size_t bytes : {std::size_t{1}, std::size_t{1009}, shape.k * 37}) {
      const storage::EcCodec codec{shape.k, shape.m};
      const std::vector<std::uint8_t> file = make_file(bytes, shape.k * 100 + shape.m);
      const auto shards = codec.encode(file);
      ASSERT_EQ(shards.size(), shape.k + shape.m);

      const auto n = static_cast<std::uint32_t>(shape.k + shape.m);
      for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
        const auto erased = static_cast<std::size_t>(std::popcount(mask));
        if (erased > shape.m) continue;
        auto surviving = shards;
        for (std::uint32_t s = 0; s < n; ++s) {
          if ((mask >> s) & 1u) surviving[s].clear();
        }
        const auto decoded = codec.decode(surviving, bytes);
        ASSERT_TRUE(decoded.is_ok())
            << "EC(" << shape.k << "," << shape.m << ") bytes=" << bytes << " mask=" << mask
            << ": " << decoded.status().to_string();
        EXPECT_EQ(decoded.value(), file)
            << "EC(" << shape.k << "," << shape.m << ") bytes=" << bytes << " mask=" << mask;
      }
    }
  }
}

TEST(EcCodecProperty, EverySubsetBeyondMFailsLoudly) {
  for (const Shape shape : kShapes) {
    const std::size_t bytes = 257;
    const storage::EcCodec codec{shape.k, shape.m};
    const auto shards = codec.encode(make_file(bytes, 42));

    const auto n = static_cast<std::uint32_t>(shape.k + shape.m);
    for (std::uint32_t mask = 0; mask < (1u << n); ++mask) {
      if (static_cast<std::size_t>(std::popcount(mask)) != shape.m + 1) continue;
      auto surviving = shards;
      for (std::uint32_t s = 0; s < n; ++s) {
        if ((mask >> s) & 1u) surviving[s].clear();
      }
      const auto decoded = codec.decode(surviving, bytes);
      EXPECT_FALSE(decoded.is_ok())
          << "EC(" << shape.k << "," << shape.m << ") mask=" << mask
          << " decoded from fewer than k shards";
    }
  }
}

TEST(EcShardKey, PackUnpackRoundTripsEveryField) {
  for (const Shape shape : kShapes) {
    for (std::size_t s = 0; s < shape.k + shape.m; ++s) {
      const std::uint64_t base = 0x123456789abULL;  // 44-bit id
      const std::uint64_t key = storage::shard_key::pack(
          base, s, static_cast<std::uint8_t>(shape.k), static_cast<std::uint8_t>(shape.m));
      EXPECT_TRUE(storage::shard_key::is_shard(key));
      EXPECT_FALSE(storage::shard_key::is_shard(base));
      EXPECT_EQ(storage::shard_key::base(key), base);
      EXPECT_EQ(storage::shard_key::index(key), s);
      EXPECT_EQ(storage::shard_key::k_of(key), shape.k);
      EXPECT_EQ(storage::shard_key::m_of(key), shape.m);
    }
  }
}

using testing::make_ec_cluster;

TEST(EcDegradedRead, SurvivesEveryTwoRmCrashPair) {
  // The acceptance criterion verbatim: an EC(4,2) degraded read must survive
  // any 2 simultaneous RM crashes. Shard s lives on RM s, so a crashed RM
  // with index < 4 kills a data shard (parity repair -> degraded read) and
  // index >= 4 kills parity only (clean read off the data shards).
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = i + 1; j < 6; ++j) {
      auto cluster = make_ec_cluster();
      cluster->fail_rm(i);
      cluster->fail_rm(j);
      cluster->client(0).stream_file(1);
      cluster->simulator().run();

      const dfs::DfsClient::Counters& c = cluster->client(0).counters();
      EXPECT_EQ(c.ec_reads, 1u) << "crash pair (" << i << "," << j << ")";
      EXPECT_EQ(c.ec_failed_reads, 0u) << "crash pair (" << i << "," << j << ")";
      EXPECT_EQ(c.streams_completed, 1u) << "crash pair (" << i << "," << j << ")";
      const bool data_shard_lost = i < 4 || j < 4;
      EXPECT_EQ(c.ec_degraded_reads, data_shard_lost ? 1u : 0u)
          << "crash pair (" << i << "," << j << ")";
    }
  }
}

TEST(EcDegradedRead, FailsLoudlyBeyondMCrashes) {
  // Three crashed holders leave 3 < k = 4 admissible shards: the read must
  // fail loudly (counted, open marked failed) instead of hanging or lying.
  auto cluster = make_ec_cluster();
  cluster->fail_rm(0);
  cluster->fail_rm(1);
  cluster->fail_rm(2);
  cluster->client(0).stream_file(1);
  cluster->simulator().run();

  const dfs::DfsClient::Counters& c = cluster->client(0).counters();
  EXPECT_EQ(c.ec_failed_reads, 1u);
  EXPECT_EQ(c.ec_reads, 0u);
  EXPECT_EQ(c.streams_completed, 0u);
  EXPECT_EQ(c.opens_failed, 1u);
}

TEST(EcDegradedRead, HealthyStripeReadsCleanly) {
  auto cluster = make_ec_cluster();
  cluster->client(0).stream_file(1);
  cluster->simulator().run();

  const dfs::DfsClient::Counters& c = cluster->client(0).counters();
  EXPECT_EQ(c.ec_reads, 1u);
  EXPECT_EQ(c.ec_degraded_reads, 0u);
  EXPECT_EQ(c.ec_failed_reads, 0u);
  EXPECT_EQ(c.streams_completed, 1u);
}

}  // namespace
}  // namespace sqos
