// Resource selection policies — client-side bid scoring (§IV).
//
//   Bid = α·B_rem + β·trend − γ·(occupation_bias · B_req)
//
// with environment parameters α ≥ β ≥ γ. Policy (0,0,0) selects uniformly at
// random (the paper's no-policy baseline).
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/bid.hpp"
#include "core/selection_tree.hpp"
#include "util/rng.hpp"

namespace sqos::core {

struct PolicyWeights {
  double alpha = 1.0;
  double beta = 0.0;
  double gamma = 0.0;

  [[nodiscard]] bool is_random() const { return alpha == 0.0 && beta == 0.0 && gamma == 0.0; }
  [[nodiscard]] std::string to_string() const;

  /// The paper's five experimental collocations.
  [[nodiscard]] static PolicyWeights random() { return {0, 0, 0}; }
  [[nodiscard]] static PolicyWeights p100() { return {1, 0, 0}; }
  [[nodiscard]] static PolicyWeights p101() { return {1, 0, 1}; }
  [[nodiscard]] static PolicyWeights p110() { return {1, 1, 0}; }
  [[nodiscard]] static PolicyWeights p111() { return {1, 1, 1}; }
  [[nodiscard]] static std::vector<PolicyWeights> paper_set() {
    return {random(), p100(), p101(), p110(), p111()};
  }
};

class SelectionPolicy {
 public:
  explicit SelectionPolicy(PolicyWeights weights) : w_{weights} {}

  [[nodiscard]] const PolicyWeights& weights() const { return w_; }

  /// The bid score; higher score = higher selection priority.
  [[nodiscard]] double score(const BidInfo& bid) const;

  /// Choose among candidate bids. Random policy picks uniformly; otherwise
  /// the maximum score wins with random tie-breaking. Returns nullopt when
  /// `bids` is empty.
  ///
  /// This is the linear-scan reference the tree-backed path below is proven
  /// against (tests/core/selection_diff_test.cpp); production call sites use
  /// choose_scored.
  [[nodiscard]] std::optional<std::size_t> choose(const std::vector<BidInfo>& bids,
                                                  Rng& rng) const;

  /// Tree-backed winner selection over `n` candidates whose scores were
  /// precomputed with score(). Bit-identical to choose(): same winner index
  /// and the same RNG consumption — one next_below(n) under the random
  /// policy (scores may then be empty), one next_below(ties) only when the
  /// maximum is tied. `scratch` is rebuilt each call; pass a reusable
  /// instance so the hot path does not allocate.
  [[nodiscard]] std::optional<std::size_t> choose_scored(std::size_t n,
                                                         std::span<const double> scores, Rng& rng,
                                                         SelectionTree& scratch) const;

 private:
  PolicyWeights w_;
};

}  // namespace sqos::core
