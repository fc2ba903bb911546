#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace vdm::sim {

/// Move-only `void()` callable with small-buffer optimization.
///
/// The event engine stores one of these per slab slot. Typical simulator
/// callbacks capture a pointer or two (`[this]`, `[this, h]`,
/// `[this, &event]`), which fit the inline buffer, so steady-state
/// schedule/fire cycles never touch the heap. Oversized captures fall back
/// to a heap allocation transparently — correctness is never capped by the
/// buffer, only the zero-allocation guarantee.
class InlineFn {
 public:
  /// Sized to hold the largest callback the repo schedules (a few pointers
  /// and ids) with room to spare.
  static constexpr std::size_t kInlineBytes = 48;

  InlineFn() = default;
  InlineFn(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFn> &&
                !std::is_same_v<std::decay_t<F>, std::nullptr_t> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (kFitsInline<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      heap_ = new Fn(std::forward<F>(f));
      ops_ = &kHeapOps<Fn>;
    }
  }

  InlineFn(InlineFn&& other) noexcept { move_from(other); }
  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;
  ~InlineFn() { reset(); }

  void operator()() { ops_->invoke(target()); }

  explicit operator bool() const { return ops_ != nullptr; }
  friend bool operator==(const InlineFn& f, std::nullptr_t) { return f.ops_ == nullptr; }
  friend bool operator!=(const InlineFn& f, std::nullptr_t) { return f.ops_ != nullptr; }

  /// True if this callable's target lives in the inline buffer (tests).
  bool is_inline() const { return ops_ != nullptr && !ops_->heap; }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-constructs the target from `from` into raw storage `to`, then
    /// destroys the original (inline targets only; heap targets relocate by
    /// pointer steal).
    void (*relocate)(void* from, void* to);
    void (*destroy)(void*);
    bool heap;
  };

  template <typename Fn>
  static constexpr bool kFitsInline =
      sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<Fn>;

  template <typename Fn>
  static constexpr Ops kInlineOps{
      [](void* p) { (*static_cast<Fn*>(p))(); },
      [](void* from, void* to) {
        ::new (to) Fn(std::move(*static_cast<Fn*>(from)));
        static_cast<Fn*>(from)->~Fn();
      },
      [](void* p) { static_cast<Fn*>(p)->~Fn(); },
      /*heap=*/false,
  };

  template <typename Fn>
  static constexpr Ops kHeapOps{
      [](void* p) { (*static_cast<Fn*>(p))(); },
      nullptr,
      [](void* p) { delete static_cast<Fn*>(p); },
      /*heap=*/true,
  };

  void* target() { return ops_->heap ? heap_ : static_cast<void*>(buf_); }

  void reset() {
    if (ops_ != nullptr) ops_->destroy(target());
    ops_ = nullptr;
    heap_ = nullptr;
  }

  void move_from(InlineFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      if (ops_->heap) {
        heap_ = other.heap_;
      } else {
        ops_->relocate(other.buf_, buf_);
      }
    }
    other.ops_ = nullptr;
    other.heap_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  void* heap_ = nullptr;
  const Ops* ops_ = nullptr;
};

}  // namespace vdm::sim
