// Small-buffer-optimized callable for the event kernel's hot path.
//
// Every simulated message delivery, transfer completion and periodic tick is
// one scheduled closure; with std::function each of those closures whose
// captures exceed the implementation's tiny internal buffer costs a heap
// allocation and a pointer-chasing indirect destroy. InlineFn stores any
// nothrow-movable callable of up to kInlineSize bytes directly inside the
// event record, so scheduling and running it never touch the allocator.
// Larger or throwing-move callables transparently fall back to the heap —
// correctness never depends on the capture size. About half of the
// protocol's closures are larger (docs/PERFORMANCE.md, hot-path item 1).
//
// Differences from std::function<void()>:
//   * move-only (so closures may own move-only state, e.g. unique_ptr);
//   * no copy, no target_type/target introspection;
//   * invoking an empty InlineFn is undefined (assert in debug builds).
#pragma once

#include <cassert>
#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace sqos::sim {

class InlineFn {
 public:
  /// Captures up to this many bytes (with alignment <= kInlineAlign and a
  /// nothrow move constructor) are stored inline in the event record.
  static constexpr std::size_t kInlineSize = 48;
  static constexpr std::size_t kInlineAlign = alignof(std::max_align_t);

  InlineFn() noexcept = default;
  InlineFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineFn> &&
                                        std::is_invocable_r_v<void, D&>>>
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor)
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  InlineFn(InlineFn&& other) noexcept { steal(other); }

  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this == &other) return *this;
    reset();
    steal(other);
    return *this;
  }

  InlineFn& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { reset(); }

  void operator()() {
    assert(ops_ != nullptr && "invoking an empty InlineFn");
    ops_->invoke(buf_);
  }

  [[nodiscard]] explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Destroy the stored callable (and release its captures) immediately.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  /// Whether a callable of type D would be stored inline (no allocation).
  template <typename D>
  [[nodiscard]] static constexpr bool fits_inline() {
    return sizeof(D) <= kInlineSize && alignof(D) <= kInlineAlign &&
           std::is_nothrow_move_constructible_v<D>;
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void* src, void* dst);  // move-construct dst, destroy src
    void (*destroy)(void*);
  };

  template <typename D>
  static constexpr Ops kInlineOps{
      [](void* p) { (*std::launder(static_cast<D*>(p)))(); },
      [](void* src, void* dst) {
        D* s = std::launder(static_cast<D*>(src));
        ::new (dst) D(std::move(*s));
        s->~D();
      },
      [](void* p) { std::launder(static_cast<D*>(p))->~D(); },
  };

  template <typename D>
  static constexpr Ops kHeapOps{
      [](void* p) { (**std::launder(static_cast<D**>(p)))(); },
      [](void* src, void* dst) {
        // Transfer ownership of the heap object by relocating the pointer.
        ::new (dst) D*(*std::launder(static_cast<D**>(src)));
      },
      [](void* p) { delete *std::launder(static_cast<D**>(p)); },
  };

  void steal(InlineFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(other.buf_, buf_);
      other.ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(kInlineAlign) unsigned char buf_[kInlineSize];
};

}  // namespace sqos::sim
