#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace vdm::sim {

/// Move-only `void(Args...)` callable with small-buffer optimization.
///
/// The event engine stores one of these per slab slot (InlineFn) and one
/// per periodic timer group (TickFn). Typical simulator callbacks capture a
/// pointer or two (`[this]`, `[this, h]`, `[this, &event]`), which fit the
/// inline buffer, so steady-state schedule/fire cycles never touch the heap.
/// Oversized captures fall back to a heap allocation transparently (the
/// buffer then holds the pointer) — correctness is never capped by the
/// buffer, only the zero-allocation guarantee.
template <typename... Args>
class BasicInlineFn {
 public:
  /// Three words, the largest capture the repo schedules, so the whole
  /// callable is 32 bytes and a slab slot 64. A larger capture still works,
  /// at one heap allocation per callable.
  static constexpr std::size_t kInlineBytes = 24;

  BasicInlineFn() = default;
  BasicInlineFn(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, BasicInlineFn> &&
                !std::is_same_v<std::decay_t<F>, std::nullptr_t> &&
                std::is_invocable_r_v<void, std::decay_t<F>&, Args...>>>
  BasicInlineFn(F&& f) {  // NOLINT(google-explicit-constructor)
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

  BasicInlineFn(BasicInlineFn&& other) noexcept { move_from(other); }
  BasicInlineFn& operator=(BasicInlineFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  BasicInlineFn(const BasicInlineFn&) = delete;
  BasicInlineFn& operator=(const BasicInlineFn&) = delete;
  ~BasicInlineFn() { reset(); }

  void operator()(Args... args) { ops_->invoke(buf_, args...); }

  explicit operator bool() const { return ops_ != nullptr; }
  friend bool operator==(const BasicInlineFn& f, std::nullptr_t) {
    return f.ops_ == nullptr;
  }
  friend bool operator!=(const BasicInlineFn& f, std::nullptr_t) {
    return f.ops_ != nullptr;
  }

 private:
  /// Every operation takes the buffer: an inline target lives in it, a heap
  /// target's pointer does.
  struct Ops {
    void (*invoke)(void* buf, Args...);
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
      [](void* buf, Args... args) { (*static_cast<Fn*>(buf))(args...); },
      [](void* from, void* to) {
        ::new (to) Fn(std::move(*static_cast<Fn*>(from)));
        static_cast<Fn*>(from)->~Fn();
      },
      [](void* buf) { static_cast<Fn*>(buf)->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops kHeapOps{
      [](void* buf, Args... args) { (*heap_target<Fn>(buf))(args...); },
      [](void* from, void* to) { std::memcpy(to, from, sizeof(Fn*)); },
      [](void* buf) { delete heap_target<Fn>(buf); },
  };

  void reset() {
    if (ops_ != nullptr) ops_->destroy(buf_);
    ops_ = nullptr;
  }

  void move_from(BasicInlineFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) ops_->relocate(other.buf_, buf_);
    other.ops_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// A one-shot or re-armed event's callback (one per slab slot).
using InlineFn = BasicInlineFn<>;

/// A periodic timer group's tick, called with the payload the firing member
/// was armed with (see Reactor::add_periodic_group).
using TickFn = BasicInlineFn<std::uint32_t>;

}  // namespace vdm::sim
