// sqos_domain_check — static enforcement of the shard-ownership contract.
//
// The simulation's state divides into ownership shards: per-RM state,
// per-client state, and the global services. The shard boundaries hold only
// if every cross-domain touch flows through a declared exchange channel
// (the network send path, the scheduler API, the marked
// replication/controller endpoints). This pass proves that property
// statically, the same way sqos_lint proves the determinism contract: a
// token-level scanner (no libclang — it must build wherever CI does) over
// the whole source tree, with per-TU symbol tables and named, suppressible
// rules.
//
// Vocabulary (src/util/domain.hpp):
//   SQOS_DOMAIN(rm|client|global)  class is shard state of that domain
//   SQOS_DOMAIN(owner)             passive component, inherits its embedder's
//                                  domain; transparent to this analysis
//   SQOS_EXCHANGE                  function is a declared cross-domain channel
//   SQOS_SETUP                     function runs only during serial bootstrap
//
// Rules (docs/STATIC_ANALYSIS.md has the catalog + known limitations):
//   domain-unannotated   mutable simulation-state class in the scoped dirs
//                        (src/{dfs,core,qos,sim,check}) without SQOS_DOMAIN
//   domain-cross-write   method of domain A mutates state of domain B != A
//                        (non-const call or member write) outside any
//                        constructor/SQOS_SETUP context, exchange function,
//                        or exchange-call argument span
//   domain-capture       schedule_at/schedule_after/schedule_series closure
//                        captures &state of a foreign domain — a cross-shard
//                        alias smuggled into a future event
//
// Suppression: the shared `sqos-lint:` marker with `allow(<rule>): <why>`
// (tools/lint/source_view.hpp); the umbrella rule name `domain` matches all
// three. This pass owns the domain-* rule namespace: it audits domain-family
// suppressions (bad/unused), and sqos_lint ignores them.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "lint/linter.hpp"  // Finding, RuleInfo, to_json, to_github

namespace sqos::lint {

/// Stable catalog of every rule this pass can emit (--list-rules, docs).
[[nodiscard]] const std::vector<RuleInfo>& domain_rule_catalog();

struct DomainFile;  // internal per-file scan state (domain_analyzer.cpp)

/// Cross-TU analyzer: add every file first, then run(). The class/exchange/
/// setup symbol tables are global across all added files (annotations live
/// in headers; uses live in their .cpp files), while variable bindings are
/// scoped to a TU (a file plus its paired header).
class DomainAnalyzer {
 public:
  DomainAnalyzer();
  ~DomainAnalyzer();
  DomainAnalyzer(const DomainAnalyzer&) = delete;
  DomainAnalyzer& operator=(const DomainAnalyzer&) = delete;

  /// `path` is the repo-relative path (used for rule scoping); `content` is
  /// the raw file text.
  void add_file(std::string path, std::string content);

  /// Run all rules over all added files. Findings are sorted by
  /// (file, line, rule) so output is deterministic.
  [[nodiscard]] std::vector<Finding> run();

  [[nodiscard]] std::size_t files_scanned() const;

 private:
  std::vector<DomainFile> files_;  // incomplete element type: ctor/dtor in .cpp
};

}  // namespace sqos::lint
