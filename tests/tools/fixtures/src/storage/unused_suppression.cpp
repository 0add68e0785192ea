// Fixture: a justified suppression that matches no finding must be reported
// as unused-suppression so stale allowances don't accumulate.
#include <cstdint>

namespace fixture {

// sqos-lint: allow(no-wallclock): stale allowance left after a refactor
inline std::uint64_t plain(std::uint64_t x) { return x + 1; }

// sqos-lint: allow(domain-cross-write): names a rule this linter does not have
inline std::uint64_t twice(std::uint64_t x) { return x * 2; }

}  // namespace fixture
