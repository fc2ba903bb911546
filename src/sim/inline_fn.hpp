#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace vdm::sim {

/// Move-only `void()` callable with small-buffer optimization.
///
/// The event engine stores one of these per slab slot, one-shot or
/// periodic. Typical simulator callbacks capture a pointer or two
/// (`[this]`, `[this, h]`, `[this, &event]`), which fit the inline buffer,
/// so steady-state schedule/fire cycles never touch the heap.
/// Oversized captures fall back to a heap allocation transparently (the
/// buffer then holds the pointer) — correctness is never capped by the
/// buffer, only the zero-allocation guarantee.
class InlineFn {
 public:
  /// Three words, the largest capture the repo schedules, so the whole
  /// callable is 32 bytes and a slab slot 48. A larger capture still works,
  /// at one heap allocation per callable.
  static constexpr std::size_t kInlineBytes = 24;

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
      Fn* const target = new Fn(std::forward<F>(f));
      std::memcpy(buf_, &target, sizeof target);
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

  void operator()() { ops_->invoke(buf_); }

  explicit operator bool() const { return ops_ != nullptr; }
  friend bool operator==(const InlineFn& f, std::nullptr_t) {
    return f.ops_ == nullptr;
  }
  friend bool operator!=(const InlineFn& f, std::nullptr_t) {
    return f.ops_ != nullptr;
  }

 private:
  /// Every operation takes the buffer: an inline target lives in it, a heap
  /// target's pointer does.
  struct Ops {
    void (*invoke)(void* buf);
    /// Moves what `from` holds into the raw buffer `to`, leaving `from`
    /// with nothing to destroy.
    void (*relocate)(void* from, void* to);
    void (*destroy)(void* buf);
  };

  template <typename Fn>
  static constexpr bool kFitsInline =
      sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<Fn>;

  template <typename Fn>
  static Fn* heap_target(void* buf) {
    Fn* target;
    std::memcpy(&target, buf, sizeof target);
    return target;
  }

  template <typename Fn>
  static constexpr Ops kInlineOps{
      [](void* buf) { (*static_cast<Fn*>(buf))(); },
      [](void* from, void* to) {
        ::new (to) Fn(std::move(*static_cast<Fn*>(from)));
        static_cast<Fn*>(from)->~Fn();
      },
      [](void* buf) { static_cast<Fn*>(buf)->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops kHeapOps{
      [](void* buf) { (*heap_target<Fn>(buf))(); },
      [](void* from, void* to) { std::memcpy(to, from, sizeof(Fn*)); },
      [](void* buf) { delete heap_target<Fn>(buf); },
  };

  void reset() {
    if (ops_ != nullptr) ops_->destroy(buf_);
    ops_ = nullptr;
  }

  void move_from(InlineFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) ops_->relocate(other.buf_, buf_);
    other.ops_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace vdm::sim
