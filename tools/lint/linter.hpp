// sqos_lint — static enforcement of the simulator's determinism contract.
//
// The reproduction's headline tables are trustworthy only because the event
// kernel is bit-deterministic: the golden test and the invariant auditor
// verify that *dynamically*, but a single wall-clock read, an unordered_map
// iteration feeding event order, or an unseeded RNG breaks replayability in
// ways a passing unit test can hide. This linter is the static half of that
// contract: a token-level scanner (no libclang — it must build wherever CI
// does) over the source tree that enforces named, suppressible rules.
//
// Rules (see docs/STATIC_ANALYSIS.md for the full catalog + rationale):
//   no-wallclock             wall-clock time sources outside the allowlist
//   no-unordered-iteration   iterating unordered containers in kernel dirs
//   no-unseeded-rng          std:: random engines / rand() outside util/rng
//   no-std-function-hotpath  std::function in src/sim and src/storage
//   no-pointer-keyed-order   std::map/std::set keyed by a raw pointer
//   no-mutable-static        mutable static data in src/ (shared across runs
//                            and parallel-runner workers)
//   nodiscard-result         *Result/*Status/*Error types not [[nodiscard]]
//   pragma-once              headers missing #pragma once (or a guard)
//   bad-suppression          an allow(...) directive without a justification
//   unused-suppression       a justified suppression that matched nothing,
//                            including one naming a rule not listed here
//
// Suppression syntax: an inline comment (same line or the line above) with
// the `sqos-lint:` marker followed by
//   allow(<rule>): <justification, at least 8 chars>
//   allow-file(<rule>): <justification>   (whole file)
// An unjustified suppression does NOT suppress — the original finding is
// kept and bad-suppression is added, so the justification is never optional.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace sqos::lint {

/// One rule violation (or meta-diagnostic) at a specific source line.
struct Finding {
  std::string rule;
  std::string file;  // repo-relative path, forward slashes
  int line = 0;      // 1-based
  std::string message;
};

struct RuleInfo {
  std::string_view id;
  std::string_view summary;
};

/// Stable catalog of every rule the linter can emit, for --list-rules and docs.
[[nodiscard]] const std::vector<RuleInfo>& rule_catalog();

struct SourceFile;  // internal per-file scan state (linter.cpp)

/// Collects files, then runs every rule over them. Files must all be added
/// before run(): the no-unordered-iteration rule pairs each `foo.cpp` with
/// its `foo.hpp` to build a per-translation-unit container symbol table.
class Linter {
 public:
  Linter();
  ~Linter();
  Linter(const Linter&) = delete;
  Linter& operator=(const Linter&) = delete;

  /// `path` is the repo-relative path (used for rule scoping — e.g. hot-path
  /// rules only apply under src/sim and src/storage); `content` is the text.
  void add_file(std::string path, std::string content);

  /// Run all rules over all added files. Findings are sorted by
  /// (file, line, rule) so output is deterministic.
  [[nodiscard]] std::vector<Finding> run();

  [[nodiscard]] std::size_t files_scanned() const;

 private:
  std::vector<SourceFile> files_;  // incomplete element type: ctor/dtor in .cpp
};

/// Render findings as a JSON document under schema id `sqos-lint-v1`.
[[nodiscard]] std::string to_json(const std::vector<Finding>& findings,
                                  std::size_t files_scanned);

/// Render findings as GitHub workflow annotations (::error file=...).
[[nodiscard]] std::string to_github(const std::vector<Finding>& findings);

}  // namespace sqos::lint
