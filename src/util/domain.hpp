// Ownership-domain annotation vocabulary (docs/STATIC_ANALYSIS.md §domains).
//
// The simulation's state divides into ownership shards: per-RM state,
// per-client state, and global services (MM, replication agent, QoS
// controller, the kernel itself). The risk these macros guard against is an
// event handler silently touching state owned by another shard; they make
// shard ownership a *declared, machine-checked* property:
//
//   SQOS_DOMAIN(rm)      class is per-RM shard state
//   SQOS_DOMAIN(client)  class is per-client shard state
//   SQOS_DOMAIN(global)  class is global-service state (one instance, only
//                        reachable across a barrier or an exchange)
//   SQOS_DOMAIN(owner)   class is a passive component that inherits the
//                        domain of whatever object embeds it (ledgers,
//                        trees, histories); it is never a shard boundary
//   SQOS_EXCHANGE        function is a declared cross-domain channel: the
//                        ECNP message/send path, replication endpoints,
//                        controller barriers, fault injection
//   SQOS_SETUP           function runs only in the serial construction /
//                        bootstrap phase, before the event loop starts
//
// The macros are deliberately greppable tokens: tools/sqos_domain_check is a
// std-only token scanner (like sqos_lint) that reads the *invocation*, so
// the vocabulary works under any compiler. Under clang the annotation is
// additionally materialized as [[clang::annotate]] so future libclang/IR
// tooling can consume it from the AST.
//
// Placement:
//   class SQOS_DOMAIN(rm) ResourceManager { ... };
//   SQOS_EXCHANGE void maybe_trigger(ResourceManager& source);
//
// The runtime half of the contract lives in util/domain_guard.hpp: the
// DomainGuard shadow checker asserts the same ownership property on the
// executing event path in debug builds.
#pragma once

#if defined(__clang__)
#define SQOS_DOMAIN(d) [[clang::annotate("sqos::domain::" #d)]]
#define SQOS_EXCHANGE [[clang::annotate("sqos::exchange")]]
#define SQOS_SETUP [[clang::annotate("sqos::setup")]]
#else
#define SQOS_DOMAIN(d)
#define SQOS_EXCHANGE
#define SQOS_SETUP
#endif
