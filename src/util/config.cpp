#include "util/config.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace sqos {
namespace {

[[noreturn]] void die(std::string_view key, std::string_view value, std::string_view type) {
  std::fprintf(stderr, "config: cannot parse %.*s='%.*s' as %.*s\n",
               static_cast<int>(key.size()), key.data(),
               static_cast<int>(value.size()), value.data(),
               static_cast<int>(type.size()), type.data());
  std::abort();
}

/// from_chars over the whole value; anything else (including a sign an
/// unsigned T cannot take) dies naming the key.
template <typename T>
T parse_or_die(std::string_view key, const std::string& s, std::string_view type) {
  T v{};
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) die(key, s, type);
  return v;
}

}  // namespace

Result<Config> Config::from_args(int argc, const char* const* argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg{argv[i]};
    const auto eq = arg.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return Status::invalid_argument("expected key=value, got '" + std::string{arg} + "'");
    }
    cfg.set(std::string{arg.substr(0, eq)}, std::string{arg.substr(eq + 1)});
  }
  return cfg;
}

void Config::set(std::string key, std::string value) {
  values_.insert_or_assign(std::move(key), std::move(value));
}

bool Config::contains(std::string_view key) const { return values_.find(key) != values_.end(); }

std::string Config::get_string(std::string_view key, std::string_view fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? std::string{fallback} : it->second;
}

std::int64_t Config::get_int(std::string_view key, std::int64_t fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : parse_or_die<std::int64_t>(key, it->second, "int");
}

std::size_t Config::get_count(std::string_view key, std::size_t fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : parse_or_die<std::size_t>(key, it->second, "count");
}

double Config::get_double(std::string_view key, double fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : parse_or_die<double>(key, it->second, "double");
}

bool Config::get_bool(std::string_view key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const auto& s = it->second;
  if (s == "1" || s == "true" || s == "yes" || s == "on") return true;
  if (s == "0" || s == "false" || s == "no" || s == "off") return false;
  die(key, s, "bool");
}

Bandwidth Config::get_bandwidth(std::string_view key, Bandwidth fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  auto parsed = Bandwidth::parse(it->second);
  if (!parsed.is_ok()) die(key, it->second, "bandwidth");
  return parsed.value();
}

Status Config::require_known(const std::vector<std::string_view>& known) const {
  for (const auto& [key, _] : values_) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      return Status::invalid_argument("unknown key '" + key + "'");
    }
  }
  return Status::ok();
}

std::vector<std::string> Config::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, _] : values_) out.push_back(k);
  return out;
}

}  // namespace sqos
