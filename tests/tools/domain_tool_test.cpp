// sqos_domain_check fixture tests: one known-bad fixture per diagnostic,
// asserted down to exact rule ids and line numbers (the fixtures carry
// `// line N:` annotations that must stay in sync), plus the suppression
// lifecycle and the negative cases the analyzer must NOT flag. The pass is
// cross-TU, so each test adds the full fixture set it needs — annotations
// live in headers, violations in the paired .cpp files.
#include "lint/domain_analyzer.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

using sqos::lint::DomainAnalyzer;
using sqos::lint::Finding;

std::string read_fixture(const std::string& rel) {
  const std::string path = std::string{SQOS_LINT_FIXTURES} + "/" + rel;
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in.is_open()) << "missing fixture: " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

/// Run the analyzer over a fixture set, returning (rule, file:line) tuples in
/// the analyzer's deterministic (file, line, rule) order.
std::vector<std::pair<std::string, int>> analyze(const std::vector<std::string>& rels) {
  DomainAnalyzer analyzer;
  for (const std::string& rel : rels) analyzer.add_file(rel, read_fixture(rel));
  std::vector<std::pair<std::string, int>> out;
  for (const Finding& f : analyzer.run()) out.emplace_back(f.rule, f.line);
  return out;
}

using Expected = std::vector<std::pair<std::string, int>>;

TEST(DomainCheck, UnannotatedStatefulClassFlaggedAtClassLine) {
  EXPECT_EQ(analyze({"src/dfs/domain_unannotated.hpp"}),
            (Expected{{"domain-unannotated", 7}}));
}

TEST(DomainCheck, AnnotatedHeadersAloneAreClean) {
  EXPECT_EQ(analyze({"src/dfs/domain_shard.hpp", "src/dfs/domain_coordinator.hpp"}),
            Expected{});
}

TEST(DomainCheck, CrossWritesAndCapturesFlaggedExchangeAndReadsAllowed) {
  // line 9: non-const call on a foreign-domain member binding (merged from
  // the paired header); line 10: direct member write; line 16: `&shard_`
  // captured into a scheduled closure. The exchange call (line 11), the
  // const read (line 12), and the closure-local binding (line 22) must pass.
  EXPECT_EQ(analyze({"src/dfs/domain_shard.hpp", "src/dfs/domain_coordinator.hpp",
                     "src/dfs/domain_coordinator.cpp"}),
            (Expected{{"domain-cross-write", 9},
                      {"domain-cross-write", 10},
                      {"domain-capture", 16}}));
}

TEST(DomainCheck, SeriesClosureCaptureFlagged) {
  // line 8: `&shard_` captured into a schedule_series closure is the same
  // cross-shard alias as in schedule_at/schedule_after; line 9 captures only
  // `this` and must pass.
  EXPECT_EQ(analyze({"src/dfs/domain_shard.hpp", "src/dfs/domain_series.hpp",
                     "src/dfs/domain_series.cpp"}),
            (Expected{{"domain-capture", 8}}));
}

TEST(DomainCheck, SuppressionLifecycleJustifiedUmbrellaBadAndUnused) {
  // line 8: justified rule-specific suppression eats the finding; line 9:
  // the umbrella rule name `domain` does too; line 10: a suppression without
  // justification suppresses nothing and is itself a finding; line 11: a
  // justified suppression matching no finding is flagged as stale.
  EXPECT_EQ(analyze({"src/dfs/domain_shard.hpp", "src/dfs/domain_suppressed.hpp",
                     "src/dfs/domain_suppressed.cpp"}),
            (Expected{{"bad-suppression", 10},
                      {"domain-cross-write", 10},
                      {"unused-suppression", 11}}));
}

TEST(DomainCheck, RuleCatalogCoversTheThreeDomainRules) {
  std::set<std::string> names;
  for (const auto& rule : sqos::lint::domain_rule_catalog()) names.emplace(rule.id);
  EXPECT_TRUE(names.count("domain-unannotated") != 0);
  EXPECT_TRUE(names.count("domain-cross-write") != 0);
  EXPECT_TRUE(names.count("domain-capture") != 0);
}

}  // namespace
