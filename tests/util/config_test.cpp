#include "util/config.hpp"

#include <gtest/gtest.h>

namespace sqos {
namespace {

Config make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  auto r = Config::from_args(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(r.is_ok()) << r.status().to_string();
  return std::move(r).take();
}

TEST(Config, ParsesKeyValuePairs) {
  const Config c = make({"users=256", "mode=soft"});
  EXPECT_TRUE(c.contains("users"));
  EXPECT_EQ(c.get_int("users", 0), 256);
  EXPECT_EQ(c.get_string("mode", ""), "soft");
}

TEST(Config, RejectsMalformedTokens) {
  const char* argv[] = {"prog", "novalue"};
  EXPECT_FALSE(Config::from_args(2, argv).is_ok());
  const char* argv2[] = {"prog", "=x"};
  EXPECT_FALSE(Config::from_args(2, argv2).is_ok());
}

TEST(Config, FallbacksWhenAbsent) {
  const Config c = make({});
  EXPECT_EQ(c.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(c.get_double("missing", 1.5), 1.5);
  EXPECT_EQ(c.get_string("missing", "dft"), "dft");
  EXPECT_TRUE(c.get_bool("missing", true));
  EXPECT_EQ(c.get_bandwidth("missing", Bandwidth::mbps(18.0)), Bandwidth::mbps(18.0));
}

TEST(Config, BoolSpellings) {
  const Config c = make({"a=1", "b=true", "c=off", "d=no"});
  EXPECT_TRUE(c.get_bool("a", false));
  EXPECT_TRUE(c.get_bool("b", false));
  EXPECT_FALSE(c.get_bool("c", true));
  EXPECT_FALSE(c.get_bool("d", true));
}

TEST(Config, BandwidthParsing) {
  const Config c = make({"bw=19Mbps"});
  EXPECT_DOUBLE_EQ(c.get_bandwidth("bw", Bandwidth::zero()).as_mbps(), 19.0);
}

TEST(ConfigDeathTest, NegativeCountDiesNamingTheKey) {
  EXPECT_EQ(make({"users=32"}).get_count("users", 0), 32u);
  EXPECT_EQ(make({}).get_count("users", 5), 5u);
  const Config c = make({"users=-1"});
  EXPECT_DEATH((void)c.get_count("users", 1), "users='-1' as count");
}

TEST(Config, LastValueWins) {
  const Config c = make({"k=1", "k=2"});
  EXPECT_EQ(c.get_int("k", 0), 2);
}

TEST(Config, ValueMayContainEquals) {
  const Config c = make({"expr=a=b"});
  EXPECT_EQ(c.get_string("expr", ""), "a=b");
}

TEST(Config, KeysAreSorted) {
  const Config c = make({"zeta=1", "alpha=2", "mid=3"});
  const auto keys = c.keys();
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys[0], "alpha");
  EXPECT_EQ(keys[1], "mid");
  EXPECT_EQ(keys[2], "zeta");
}

TEST(Config, SetOverrides) {
  Config c = make({"k=1"});
  c.set("k", "9");
  EXPECT_EQ(c.get_int("k", 0), 9);
}

TEST(Config, RequireKnownAcceptsKnownAndAbsentKeys) {
  EXPECT_TRUE(make({}).require_known({}).is_ok());
  EXPECT_TRUE(make({"users=64", "mode=soft"}).require_known({"mode", "seed", "users"}).is_ok());
}

TEST(Config, RequireKnownNamesTheFirstUnknownKey) {
  const Config c = make({"users=64", "zeta=1", "layuot=ec:4,2"});
  const Status s = c.require_known({"users", "layout"});
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  // Keys are checked in sorted order: "layuot" precedes "zeta".
  EXPECT_NE(s.message().find("'layuot'"), std::string::npos) << s.to_string();
  EXPECT_EQ(s.message().find("zeta"), std::string::npos) << s.to_string();
}

TEST(Config, RequireKnownIsCaseSensitive) {
  EXPECT_FALSE(make({"Users=64"}).require_known({"users"}).is_ok());
}

}  // namespace
}  // namespace sqos
