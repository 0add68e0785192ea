#include "util/domain_guard.hpp"

#include <cstdio>
#include <cstdlib>

namespace sqos::util {

const char* domain_name(Domain d) {
  switch (d) {
    case Domain::kNone: return "none";
    case Domain::kGlobal: return "global";
    case Domain::kRm: return "rm";
    case Domain::kClient: return "client";
  }
  return "?";
}

#if defined(SQOS_DOMAIN_CHECKS)

namespace {

struct Scope {
  DomainTag tag;
  bool exchange = false;
};

// Deep enough for handler -> exchange -> handler chains with headroom; the
// guard aborts loudly on overflow rather than silently dropping scopes.
constexpr std::size_t kMaxDepth = 32;

// thread_local, not static: the parallel experiment runner drives one
// simulation per worker thread and their scope stacks must stay disjoint —
// the same isolation argument that keeps run_experiment replayable.
struct ScopeStack {
  Scope scopes[kMaxDepth];
  std::size_t depth = 0;
};
thread_local ScopeStack g_stack;

void default_handler(const DomainViolation& v) {
  std::fprintf(stderr,
               "sqos: ownership-domain violation in %s: state owned by %s/%u "
               "written from scope %s/%u (see docs/STATIC_ANALYSIS.md)\n",
               v.where, domain_name(v.object.domain), v.object.shard,
               domain_name(v.active.domain), v.active.shard);
  std::abort();
}

thread_local ViolationHandler g_handler = &default_handler;

void report(DomainTag object, DomainTag active, const char* where) {
  g_handler(DomainViolation{object, active, where});
}

}  // namespace

DomainGuard::DomainGuard(DomainTag tag, bool exchange) {
  if (g_stack.depth >= kMaxDepth) {
    std::fprintf(stderr, "sqos: DomainGuard scope stack overflow (depth %zu)\n", g_stack.depth);
    std::abort();
  }
  if (!exchange && g_stack.depth > 0) {
    const Scope& top = g_stack.scopes[g_stack.depth - 1];
    if (!top.exchange && !(top.tag == tag)) report(tag, top.tag, "DomainGuard");
  }
  g_stack.scopes[g_stack.depth++] = Scope{tag, exchange};
}

DomainGuard::~DomainGuard() {
  if (g_stack.depth > 0) --g_stack.depth;
}

void domain_assert_write(DomainTag object_tag, const char* where) {
  if (g_stack.depth == 0) return;  // serial setup or a unit test poking directly
  const Scope& top = g_stack.scopes[g_stack.depth - 1];
  if (top.exchange || top.tag == object_tag) return;
  report(object_tag, top.tag, where);
}

DomainTag current_domain() {
  return g_stack.depth == 0 ? DomainTag{} : g_stack.scopes[g_stack.depth - 1].tag;
}

bool in_exchange() {
  return g_stack.depth > 0 && g_stack.scopes[g_stack.depth - 1].exchange;
}

std::size_t domain_depth() { return g_stack.depth; }

ViolationHandler set_domain_violation_handler(ViolationHandler handler) {
  ViolationHandler previous = g_handler;
  g_handler = handler != nullptr ? handler : &default_handler;
  return previous;
}

#endif  // SQOS_DOMAIN_CHECKS

}  // namespace sqos::util
