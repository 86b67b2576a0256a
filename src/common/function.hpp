// UniqueFunction: a minimal move-only std::function<void(Args...)> with a
// small-buffer optimisation. FunctionRef (end of file): a non-owning
// callable reference for callbacks that run only inside the call taking them.
//
// Simulator events must own their payloads (a message Buffer moves through
// the event queue exactly once); std::function requires copyable targets and
// std::move_only_function is C++23. This is the small subset we need.
//
// The small-buffer path matters for host performance: the engine's event
// pool stores callbacks by value, and the cluster's delivery closures
// (a few pointers + ids + a moved Buffer) fit comfortably inline, so the
// steady-state event path performs zero heap allocations per message hop
// (see docs/PERFORMANCE.md). Only nothrow-move-constructible callables are
// stored inline, keeping moves noexcept for container use.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "common/assert.hpp"

namespace hyp {

template <typename Signature>
class UniqueFunction;

template <typename R, typename... Args>
class UniqueFunction<R(Args...)> {
 public:
  // Sized so the whole object is two cache lines; large enough for the
  // cluster's message-delivery closures (pointers, ids, one Buffer).
  static constexpr std::size_t kInlineBytes = 120;

  UniqueFunction() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, UniqueFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  UniqueFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    using D = std::decay_t<F>;
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  UniqueFunction(UniqueFunction&& other) noexcept { move_from(other); }

  UniqueFunction& operator=(UniqueFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  UniqueFunction(const UniqueFunction&) = delete;
  UniqueFunction& operator=(const UniqueFunction&) = delete;

  ~UniqueFunction() { reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  R operator()(Args... args) {
    HYP_CHECK_MSG(ops_ != nullptr, "calling empty UniqueFunction");
    return ops_->invoke(storage_, std::forward<Args>(args)...);
  }

  // True when the currently held callable lives in the inline buffer
  // (diagnostic; used by the event-pool tests).
  bool is_inline() const { return ops_ != nullptr && ops_->inline_storage; }

 private:
  struct Ops {
    R (*invoke)(void* storage, Args&&... args);
    // Move-constructs the callable into `dst` and destroys the `src` copy.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
    bool inline_storage;
  };

  template <typename D>
  static constexpr bool fits_inline() {
    return sizeof(D) <= kInlineBytes && alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename D>
  static D* inline_ptr(void* s) {
    return std::launder(reinterpret_cast<D*>(s));
  }
  template <typename D>
  static D* heap_ptr(void* s) {
    return *std::launder(reinterpret_cast<D**>(s));
  }

  template <typename D>
  static constexpr Ops kInlineOps = {
      /*invoke=*/[](void* s, Args&&... args) -> R {
        return (*inline_ptr<D>(s))(std::forward<Args>(args)...);
      },
      /*relocate=*/
      [](void* dst, void* src) noexcept {
        ::new (dst) D(std::move(*inline_ptr<D>(src)));
        inline_ptr<D>(src)->~D();
      },
      /*destroy=*/[](void* s) noexcept { inline_ptr<D>(s)->~D(); },
      /*inline_storage=*/true,
  };

  template <typename D>
  static constexpr Ops kHeapOps = {
      /*invoke=*/[](void* s, Args&&... args) -> R {
        return (*heap_ptr<D>(s))(std::forward<Args>(args)...);
      },
      /*relocate=*/
      [](void* dst, void* src) noexcept {
        ::new (dst) D*(heap_ptr<D>(src));
      },
      /*destroy=*/[](void* s) noexcept { delete heap_ptr<D>(s); },
      /*inline_storage=*/false,
  };

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  void move_from(UniqueFunction& other) noexcept {
    if (other.ops_ != nullptr) {
      ops_ = other.ops_;
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

// Non-owning reference to a callable, invoked only while the call that
// received it runs (the referenced callable, often a temporary lambda, must
// outlive that call). Two words, never allocates: std::function may, which
// the allocation-free flush path cannot afford.
template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, FunctionRef> &&
                                        std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& f)  // NOLINT(google-explicit-constructor)
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        invoke_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const { return invoke_(obj_, std::forward<Args>(args)...); }

 private:
  void* obj_;
  R (*invoke_)(void* obj, Args... args);
};

}  // namespace hyp
