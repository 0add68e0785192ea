// Key-value configuration with typed accessors.
//
// Bench binaries and examples accept `key=value` overrides on the command
// line so experiment sweeps can be driven without recompilation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"
#include "util/units.hpp"

namespace sqos {

class Config {
 public:
  Config() = default;

  /// Parse argv entries of the form "key=value"; unknown entries are kept
  /// (callers validate with require_known). Returns an error on malformed
  /// tokens (no '=').
  [[nodiscard]] static Result<Config> from_args(int argc, const char* const* argv);

  void set(std::string key, std::string value);

  [[nodiscard]] bool contains(std::string_view key) const;

  /// Typed getters; return `fallback` when the key is absent and abort with a
  /// clear message on unparseable values (a mistyped experiment parameter
  /// must never silently become a default).
  [[nodiscard]] std::string get_string(std::string_view key, std::string_view fallback) const;
  [[nodiscard]] std::int64_t get_int(std::string_view key, std::int64_t fallback) const;
  /// A non-negative count (users, seeds, jobs, ...); a negative value aborts.
  [[nodiscard]] std::size_t get_count(std::string_view key, std::size_t fallback) const;
  [[nodiscard]] double get_double(std::string_view key, double fallback) const;
  [[nodiscard]] bool get_bool(std::string_view key, bool fallback) const;
  [[nodiscard]] Bandwidth get_bandwidth(std::string_view key, Bandwidth fallback) const;

  /// All keys, sorted (for echoing the effective configuration).
  [[nodiscard]] std::vector<std::string> keys() const;

  /// invalid_argument naming the first key (in sorted order) that is not in
  /// `known`, so a mistyped key fails instead of running the default.
  [[nodiscard]] Status require_known(const std::vector<std::string_view>& known) const;

 private:
  std::map<std::string, std::string, std::less<>> values_;
};

}  // namespace sqos
