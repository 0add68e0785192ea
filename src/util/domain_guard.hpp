// DomainGuard — the dynamic half of the ownership-domain contract.
//
// tools/sqos_domain_check verifies *statically* that no event handler
// touches state owned by another shard domain except through a declared
// SQOS_EXCHANGE function (util/domain.hpp). This header is the runtime
// shadow of that rule: handlers open a DomainGuard scope naming the domain
// they execute in, exchange functions open an exchange scope, and tagged
// objects assert at their mutation choke points that the active scope may
// write them. Static and dynamic views cross-validate: a cross-domain write
// the token scanner cannot see (hidden behind an accessor chain, a stored
// pointer, a virtual call) still aborts under the fuzzer and the tier-1
// suite in a checked build.
//
// The checker is compiled out unless SQOS_DOMAIN_CHECKS is defined (CMake:
// -DSQOS_DOMAIN_CHECKS=ON, and automatically in Debug builds). In release
// builds every macro expands to ((void)0) and DomainGuard is an empty type,
// so the event hot path carries zero cost.
//
// The scope stack is thread_local: the parallel experiment runner executes
// one simulation per worker thread, and each worker's guard scopes must not
// observe another worker's.
#pragma once

#include <cstddef>
#include <cstdint>

namespace sqos::util {

/// Shard-domain kinds, mirroring the SQOS_DOMAIN annotation vocabulary.
enum class Domain : std::uint8_t { kNone = 0, kGlobal, kRm, kClient };

[[nodiscard]] const char* domain_name(Domain d);

/// A concrete shard: domain kind + instance index (RM slot, client slot;
/// zero for the global services).
struct DomainTag {
  Domain domain = Domain::kNone;
  std::uint32_t shard = 0;

  [[nodiscard]] static constexpr DomainTag global() { return {Domain::kGlobal, 0}; }
  [[nodiscard]] static constexpr DomainTag rm(std::uint32_t shard) {
    return {Domain::kRm, shard};
  }
  [[nodiscard]] static constexpr DomainTag client(std::uint32_t shard) {
    return {Domain::kClient, shard};
  }

  [[nodiscard]] constexpr bool operator==(const DomainTag&) const = default;
};

/// One detected cross-domain access, handed to the violation handler.
struct DomainViolation {
  DomainTag object;   // the domain owning the touched state
  DomainTag active;   // the domain of the executing scope
  const char* where;  // __func__ of the assertion site
};

/// True when this build carries the checker (SQOS_DOMAIN_CHECKS).
[[nodiscard]] constexpr bool domain_checks_enabled() {
#if defined(SQOS_DOMAIN_CHECKS)
  return true;
#else
  return false;
#endif
}

#if defined(SQOS_DOMAIN_CHECKS)

/// RAII scope: "the code below executes on behalf of shard `tag`". A plain
/// scope opened while a *different* non-exchange scope is active is itself a
/// violation (a handler ran nested inside a foreign handler without passing
/// a declared exchange). An exchange scope is always admissible — it is the
/// declared cross-domain hop.
class DomainGuard {
 public:
  explicit DomainGuard(DomainTag tag, bool exchange = false);
  ~DomainGuard();

  DomainGuard(const DomainGuard&) = delete;
  DomainGuard& operator=(const DomainGuard&) = delete;
};

/// Assertion for a mutation choke point of an object owned by `object_tag`:
/// admissible when no scope is active (serial setup, unit tests poking the
/// object directly), when the innermost scope is an exchange, or when it
/// names exactly this shard. Anything else reports a violation.
void domain_assert_write(DomainTag object_tag, const char* where);

/// The innermost active scope's tag ({kNone, 0} when no scope is open).
[[nodiscard]] DomainTag current_domain();

/// True when the innermost active scope is an exchange scope.
[[nodiscard]] bool in_exchange();

/// Open scope count on this thread (diagnostics/tests).
[[nodiscard]] std::size_t domain_depth();

/// Violation sink. The default handler prints the violation and aborts —
/// a checked fuzz or tier-1 run must die loudly on the first cross-domain
/// write. Returns the previous handler so tests can restore it. The handler
/// is thread_local, like the scope stack.
using ViolationHandler = void (*)(const DomainViolation&);
ViolationHandler set_domain_violation_handler(ViolationHandler handler);

#define SQOS_DOMAIN_CAT2(a, b) a##b
#define SQOS_DOMAIN_CAT(a, b) SQOS_DOMAIN_CAT2(a, b)

/// Open a plain domain scope for the rest of the enclosing block.
#define SQOS_DOMAIN_SCOPE(tag) \
  const ::sqos::util::DomainGuard SQOS_DOMAIN_CAT(sqos_domain_guard_, __LINE__){(tag), false}

/// Open an exchange scope: this function is a declared SQOS_EXCHANGE channel
/// and may be entered from any domain.
#define SQOS_EXCHANGE_SCOPE(tag) \
  const ::sqos::util::DomainGuard SQOS_DOMAIN_CAT(sqos_domain_guard_, __LINE__){(tag), true}

/// Assert that the active scope may mutate state owned by `tag`.
#define SQOS_DOMAIN_ASSERT_WRITE(tag) ::sqos::util::domain_assert_write((tag), __func__)

#else  // !SQOS_DOMAIN_CHECKS — the whole checker compiles away.

class DomainGuard {
 public:
  explicit DomainGuard(DomainTag, bool = false) {}
};

inline void domain_assert_write(DomainTag, const char*) {}
[[nodiscard]] inline DomainTag current_domain() { return {}; }
[[nodiscard]] inline bool in_exchange() { return false; }
[[nodiscard]] inline std::size_t domain_depth() { return 0; }

/// Present in both build flavors so tests compile unconditionally; a no-op
/// here (there is nothing to report without the checker).
using ViolationHandler = void (*)(const DomainViolation&);
inline ViolationHandler set_domain_violation_handler(ViolationHandler) { return nullptr; }

#define SQOS_DOMAIN_SCOPE(tag) ((void)0)
#define SQOS_EXCHANGE_SCOPE(tag) ((void)0)
#define SQOS_DOMAIN_ASSERT_WRITE(tag) ((void)0)

#endif  // SQOS_DOMAIN_CHECKS

}  // namespace sqos::util
