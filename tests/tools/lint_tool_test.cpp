// sqos_lint fixture tests: one known-bad file per rule plus suppression and
// justification cases. Findings are asserted down to exact rule ids and line
// numbers — the fixtures carry `// line N:` annotations that must stay in
// sync. SQOS_LINT_FIXTURES points at tests/tools/fixtures (a mini src/ tree,
// so path-scoped rules see the directories they expect).
#include "lint/linter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

namespace {

using sqos::lint::Finding;
using sqos::lint::Linter;

std::string read_fixture(const std::string& rel) {
  const std::string path = std::string{SQOS_LINT_FIXTURES} + "/" + rel;
  std::ifstream in{path, std::ios::binary};
  EXPECT_TRUE(in.is_open()) << "missing fixture: " << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return std::move(buf).str();
}

/// Lint a single fixture under its virtual repo path, returning (rule, line)
/// pairs sorted by line.
std::vector<std::pair<std::string, int>> lint_one(const std::string& rel) {
  Linter linter;
  linter.add_file(rel, read_fixture(rel));
  std::vector<std::pair<std::string, int>> out;
  for (const Finding& f : linter.run()) {
    EXPECT_EQ(f.file, rel);
    out.emplace_back(f.rule, f.line);
  }
  return out;
}

using Expected = std::vector<std::pair<std::string, int>>;

TEST(SqosLint, NoWallclockFiresPerSourceAndSkipsCommentsAndStrings) {
  EXPECT_EQ(lint_one("src/sim/bad_wallclock.cpp"),
            (Expected{{"no-wallclock", 9},
                      {"no-wallclock", 10},
                      {"no-wallclock", 12},
                      {"no-wallclock", 13}}));
}

TEST(SqosLint, NoUnorderedIterationFlagsRangeForAndIteratorsNotVectors) {
  EXPECT_EQ(lint_one("src/storage/bad_unordered_iter.cpp"),
            (Expected{{"no-unordered-iteration", 16}, {"no-unordered-iteration", 17}}));
}

TEST(SqosLint, NoUnseededRngFlagsEnginesAndLibcCalls) {
  EXPECT_EQ(lint_one("src/dfs/bad_rng.cpp"),
            (Expected{{"no-unseeded-rng", 8},
                      {"no-unseeded-rng", 9},
                      {"no-unseeded-rng", 10},
                      {"no-unseeded-rng", 12},
                      {"no-unseeded-rng", 13}}));
}

TEST(SqosLint, NoStdFunctionFlagsHotpathDirsOnly) {
  EXPECT_EQ(lint_one("src/sim/bad_std_function.cpp"),
            (Expected{{"no-std-function-hotpath", 7}, {"no-std-function-hotpath", 8}}));
  // The same content outside src/sim and src/storage is allowed.
  Linter linter;
  linter.add_file("src/dfs/callbacks.cpp", read_fixture("src/sim/bad_std_function.cpp"));
  EXPECT_TRUE(linter.run().empty());
}

TEST(SqosLint, ObsTracingCodeIsScannedByWallclockAndHotpathRules) {
  // src/obs/ is in scope for both the repo-wide no-wallclock rule and the
  // hot-path std::function rule — tracing must stamp simulator time only.
  EXPECT_EQ(lint_one("src/obs/bad_trace_wallclock.cpp"),
            (Expected{{"no-wallclock", 11},
                      {"no-std-function-hotpath", 12},
                      {"no-wallclock", 14}}));
}

TEST(SqosLint, NoPointerKeyedOrderFlagsPointerKeysNotPointerValues) {
  EXPECT_EQ(lint_one("src/dfs/bad_pointer_key.cpp"),
            (Expected{{"no-pointer-keyed-order", 13}, {"no-pointer-keyed-order", 14}}));
}

TEST(SqosLint, NoMutableStaticFlagsDataDeclarationsNotConstOrFunctions) {
  EXPECT_EQ(lint_one("src/util/bad_static.cpp"),
            (Expected{{"no-mutable-static", 11},
                      {"no-mutable-static", 15},
                      {"no-mutable-static", 16},
                      {"no-mutable-static", 17},
                      {"no-mutable-static", 20}}));
}

TEST(SqosLint, NodiscardResultFlagsDefinitionsNotForwardDeclsOrEnums) {
  EXPECT_EQ(lint_one("src/core/bad_result.hpp"),
            (Expected{{"nodiscard-result", 6}, {"nodiscard-result", 10}}));
}

TEST(SqosLint, PragmaOnceFiresOnFirstCodeLine) {
  EXPECT_EQ(lint_one("src/net/bad_guard.hpp"), (Expected{{"pragma-once", 3}}));
}

TEST(SqosLint, JustifiedSuppressionsSilenceFindingsCompletely) {
  EXPECT_EQ(lint_one("src/dfs/suppressed_ok.cpp"), Expected{});
}

TEST(SqosLint, UnjustifiedSuppressionKeepsFindingAndReportsBadSuppression) {
  EXPECT_EQ(lint_one("src/dfs/bad_suppression.cpp"),
            (Expected{{"bad-suppression", 8}, {"no-unseeded-rng", 8}}));
}

TEST(SqosLint, UnusedJustifiedSuppressionIsReported) {
  // Line 10 names no rule of this linter, so it can never match a finding.
  EXPECT_EQ(lint_one("src/storage/unused_suppression.cpp"),
            (Expected{{"unused-suppression", 7}, {"unused-suppression", 10}}));
}

TEST(SqosLint, JsonDocumentCarriesExactRuleIdsAndLines) {
  Linter linter;
  const std::string rel = "src/sim/bad_wallclock.cpp";
  linter.add_file(rel, read_fixture(rel));
  const std::string json = sqos::lint::to_json(linter.run(), linter.files_scanned());

  EXPECT_NE(json.find("\"schema\": \"sqos-lint-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"files_scanned\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"finding_count\": 4"), std::string::npos);
  EXPECT_NE(json.find("{\"rule\": \"no-wallclock\", \"file\": "
                      "\"src/sim/bad_wallclock.cpp\", \"line\": 9,"),
            std::string::npos);
  EXPECT_NE(json.find("\"line\": 13,"), std::string::npos);
}

TEST(SqosLint, GithubAnnotationsRenderOnePerFinding) {
  Linter linter;
  linter.add_file("src/net/bad_guard.hpp", read_fixture("src/net/bad_guard.hpp"));
  const std::string gh = sqos::lint::to_github(linter.run());
  EXPECT_NE(gh.find("::error file=src/net/bad_guard.hpp,line=3,"
                    "title=sqos-lint pragma-once::"),
            std::string::npos);
}

TEST(SqosLint, WholeFixtureTreeFindingsAreDeterministicallySorted) {
  // All fixtures at once: files must not bleed symbols into each other
  // beyond the documented cpp<->hpp pairing, and output order is stable.
  const std::vector<std::string> rels = {
      "src/core/bad_result.hpp",       "src/dfs/bad_pointer_key.cpp",
      "src/dfs/bad_rng.cpp",           "src/dfs/bad_suppression.cpp",
      "src/dfs/suppressed_ok.cpp",     "src/net/bad_guard.hpp",
      "src/obs/bad_trace_wallclock.cpp",
      "src/sim/bad_std_function.cpp",  "src/sim/bad_wallclock.cpp",
      "src/storage/bad_unordered_iter.cpp",
      "src/storage/unused_suppression.cpp", "src/util/bad_static.cpp",
  };
  Linter linter;
  for (const std::string& rel : rels) linter.add_file(rel, read_fixture(rel));
  const std::vector<Finding> findings = linter.run();
  EXPECT_EQ(findings.size(), 30u);
  EXPECT_TRUE(std::is_sorted(findings.begin(), findings.end(),
                             [](const Finding& a, const Finding& b) {
                               return std::tie(a.file, a.line, a.rule) <
                                      std::tie(b.file, b.line, b.rule);
                             }));
  // Every core rule of the catalog fires somewhere in the fixture tree.
  std::set<std::string> rules;
  for (const Finding& f : findings) rules.insert(f.rule);
  for (const char* required :
       {"no-wallclock", "no-unordered-iteration", "no-unseeded-rng",
        "no-std-function-hotpath", "no-pointer-keyed-order", "no-mutable-static",
        "nodiscard-result", "pragma-once", "bad-suppression", "unused-suppression"}) {
    EXPECT_EQ(rules.count(required), 1u) << "rule never fired: " << required;
  }
}

TEST(SqosLint, RuleCatalogCoversContract) {
  EXPECT_GE(sqos::lint::rule_catalog().size(), 7u);
}

}  // namespace
