// DomainGuard — runtime shadow of the sqos_domain_check contract. The
// checker exists only when SQOS_DOMAIN_CHECKS is defined (Debug builds or
// -DSQOS_DOMAIN_CHECKS=ON); both halves of this file assert the matching
// contract so the suite is meaningful in either build flavor:
//   checked build:  cross-domain writes report (and abort by default),
//   release build:  the same API compiles to no-ops with zero behavior.
#include "util/domain_guard.hpp"

#include <gtest/gtest.h>

namespace {

using sqos::util::Domain;
using sqos::util::DomainTag;

TEST(DomainTag, FactoriesAndEquality) {
  EXPECT_EQ(DomainTag::rm(3).domain, Domain::kRm);
  EXPECT_EQ(DomainTag::rm(3).shard, 3u);
  EXPECT_EQ(DomainTag::rm(3), DomainTag::rm(3));
  EXPECT_NE(DomainTag::rm(3), DomainTag::rm(4));
  EXPECT_NE(DomainTag::rm(0), DomainTag::client(0));
  EXPECT_EQ(DomainTag::global(), DomainTag::global());
}

TEST(DomainTag, NamesCoverAllKinds) {
  EXPECT_STREQ(sqos::util::domain_name(Domain::kNone), "none");
  EXPECT_STREQ(sqos::util::domain_name(Domain::kGlobal), "global");
  EXPECT_STREQ(sqos::util::domain_name(Domain::kRm), "rm");
  EXPECT_STREQ(sqos::util::domain_name(Domain::kClient), "client");
}

#if defined(SQOS_DOMAIN_CHECKS)

int g_violations = 0;
sqos::util::DomainViolation g_last{};

void capture(const sqos::util::DomainViolation& v) {
  ++g_violations;
  g_last = v;
}

/// Installs the capturing handler for one test, restoring the previous
/// (aborting) handler on exit so later tests see the default contract.
struct HandlerScope {
  sqos::util::ViolationHandler prev;
  HandlerScope() : prev{sqos::util::set_domain_violation_handler(&capture)} { g_violations = 0; }
  ~HandlerScope() { sqos::util::set_domain_violation_handler(prev); }
};

TEST(DomainGuard, ChecksAreEnabledInThisBuild) {
  EXPECT_TRUE(sqos::util::domain_checks_enabled());
}

TEST(DomainGuard, NoScopeMeansSerialSetupAndAdmitsEverything) {
  HandlerScope h;
  EXPECT_EQ(sqos::util::domain_depth(), 0u);
  EXPECT_EQ(sqos::util::current_domain(), DomainTag{});
  SQOS_DOMAIN_ASSERT_WRITE(DomainTag::rm(7));
  EXPECT_EQ(g_violations, 0);
}

TEST(DomainGuard, SameShardWriteIsAdmissible) {
  HandlerScope h;
  SQOS_DOMAIN_SCOPE(DomainTag::rm(2));
  EXPECT_EQ(sqos::util::current_domain(), DomainTag::rm(2));
  EXPECT_FALSE(sqos::util::in_exchange());
  SQOS_DOMAIN_ASSERT_WRITE(DomainTag::rm(2));
  EXPECT_EQ(g_violations, 0);
}

TEST(DomainGuard, CrossDomainWriteReportsObjectAndActiveTags) {
  HandlerScope h;
  SQOS_DOMAIN_SCOPE(DomainTag::rm(1));
  SQOS_DOMAIN_ASSERT_WRITE(DomainTag::client(4));
  EXPECT_EQ(g_violations, 1);
  EXPECT_EQ(g_last.object, DomainTag::client(4));
  EXPECT_EQ(g_last.active, DomainTag::rm(1));
}

TEST(DomainGuard, SameDomainForeignShardIsAViolation) {
  // RM 1 writing RM 2's state is exactly the aliasing shard ownership
  // forbids — the static pass cannot see instance identity, the guard can.
  HandlerScope h;
  SQOS_DOMAIN_SCOPE(DomainTag::rm(1));
  SQOS_DOMAIN_ASSERT_WRITE(DomainTag::rm(2));
  EXPECT_EQ(g_violations, 1);
}

TEST(DomainGuard, ExchangeScopeAdmitsAnyWriteAndNestsFromAnyDomain) {
  HandlerScope h;
  SQOS_DOMAIN_SCOPE(DomainTag::client(0));
  {
    SQOS_EXCHANGE_SCOPE(DomainTag::rm(5));  // declared hop: never a violation
    EXPECT_TRUE(sqos::util::in_exchange());
    SQOS_DOMAIN_ASSERT_WRITE(DomainTag::rm(5));
    SQOS_DOMAIN_ASSERT_WRITE(DomainTag::global());
  }
  EXPECT_FALSE(sqos::util::in_exchange());
  EXPECT_EQ(g_violations, 0);
}

TEST(DomainGuard, PlainScopeNestedUnderExchangeIsAdmissible) {
  HandlerScope h;
  SQOS_EXCHANGE_SCOPE(DomainTag::global());
  {
    SQOS_DOMAIN_SCOPE(DomainTag::rm(3));  // handler entered via the channel
    SQOS_DOMAIN_ASSERT_WRITE(DomainTag::rm(3));
  }
  EXPECT_EQ(g_violations, 0);
}

TEST(DomainGuard, ForeignPlainScopeNestedInPlainScopeReports) {
  HandlerScope h;
  SQOS_DOMAIN_SCOPE(DomainTag::rm(1));
  {
    SQOS_DOMAIN_SCOPE(DomainTag::client(0));  // no exchange in between
  }
  EXPECT_EQ(g_violations, 1);
  EXPECT_EQ(g_last.object, DomainTag::client(0));
  EXPECT_EQ(g_last.active, DomainTag::rm(1));
}

TEST(DomainGuard, ScopesUnwindDepthOnExit) {
  HandlerScope h;
  EXPECT_EQ(sqos::util::domain_depth(), 0u);
  {
    SQOS_DOMAIN_SCOPE(DomainTag::global());
    EXPECT_EQ(sqos::util::domain_depth(), 1u);
    {
      SQOS_EXCHANGE_SCOPE(DomainTag::rm(0));
      EXPECT_EQ(sqos::util::domain_depth(), 2u);
    }
    EXPECT_EQ(sqos::util::domain_depth(), 1u);
  }
  EXPECT_EQ(sqos::util::domain_depth(), 0u);
}

#if GTEST_HAS_DEATH_TEST
TEST(DomainGuardDeathTest, DefaultHandlerAbortsLoudly) {
  EXPECT_DEATH(
      {
        sqos::util::DomainGuard guard{DomainTag::rm(1)};
        sqos::util::domain_assert_write(DomainTag::client(0), "death_test");
      },
      "ownership-domain violation");
}
#endif

#else  // !SQOS_DOMAIN_CHECKS — release flavor: everything is a no-op.

TEST(DomainGuard, CompiledOutInReleaseBuilds) {
  EXPECT_FALSE(sqos::util::domain_checks_enabled());
  SQOS_DOMAIN_SCOPE(DomainTag::rm(1));
  SQOS_DOMAIN_ASSERT_WRITE(DomainTag::client(0));  // must not abort
  EXPECT_EQ(sqos::util::domain_depth(), 0u);
  EXPECT_FALSE(sqos::util::in_exchange());
  const DomainTag none{};
  EXPECT_EQ(sqos::util::current_domain(), none);
  EXPECT_EQ(sqos::util::set_domain_violation_handler(nullptr), nullptr);
}

#endif  // SQOS_DOMAIN_CHECKS

}  // namespace
