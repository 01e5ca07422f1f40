#pragma once
// Small-buffer-optimized move-only callable for simulator events.
//
// Every scheduled event used to carry a std::function whose captures — a
// TcpSegment copy on the wired link / client ACK turnaround, the medium's
// winner lists — overflow the libstdc++ small-object buffer and heap-
// allocate per packet. SmallFn keeps captures up to kInlineBytes inline, so
// the slab-allocated event record owns them directly and steady-state
// scheduling never touches the heap. Oversized callables still work: they
// fall back to a single heap cell, they are just not free.

#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace w11::sim {

class SmallFn {
 public:
  // Sized so the datapath's fattest captures stay inline: [this, TcpSegment]
  // lambdas are ~136 bytes with inline SACK blocks.
  static constexpr std::size_t kInlineBytes = 152;

  SmallFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, SmallFn> &&
                std::is_invocable_r_v<void, std::remove_cvref_t<F>&>>>
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for std::function
    construct(std::forward<F>(f));
  }

  // Destroy the current callable (if any) and construct `f` directly in the
  // inline buffer — the slab path uses this to build callbacks in place in
  // recycled event slots, fully inlined at the call site.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, SmallFn> &&
                std::is_invocable_r_v<void, std::remove_cvref_t<F>&>>>
  void emplace(F&& f) {
    reset();
    construct(std::forward<F>(f));
  }

  SmallFn(SmallFn&& other) noexcept { move_from(other); }

  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { reset(); }

  void operator()() { invoke_(buf_); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return invoke_ != nullptr;
  }

  // Destroy the held callable (if any) and return to the empty state.
  void reset() noexcept {
    if (destroy_ != nullptr) destroy_(buf_);
    invoke_ = nullptr;
    relocate_ = nullptr;
    destroy_ = nullptr;
  }

 private:
  template <typename F>
  void construct(F&& f) {
    using Fn = std::remove_cvref_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      invoke_ = [](void* p) { (*std::launder(reinterpret_cast<Fn*>(p)))(); };
      if constexpr (std::is_trivially_copyable_v<Fn>) {
        // No destructor to run and no move ctor worth calling: relocation
        // is a memcpy and destruction is free. Leaving these null lets the
        // event slab recycle trivially-captured callbacks (the common
        // per-packet lambdas) without an indirect call.
        relocate_ = nullptr;
        destroy_ = nullptr;
      } else {
        relocate_ = [](void* dst, void* src) noexcept {
          Fn* s = std::launder(reinterpret_cast<Fn*>(src));
          ::new (dst) Fn(std::move(*s));
          s->~Fn();
        };
        destroy_ = [](void* p) noexcept {
          std::launder(reinterpret_cast<Fn*>(p))->~Fn();
        };
      }
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      invoke_ = [](void* p) { (**std::launder(reinterpret_cast<Fn**>(p)))(); };
      relocate_ = [](void* dst, void* src) noexcept {
        ::new (dst) Fn*(*std::launder(reinterpret_cast<Fn**>(src)));
      };
      destroy_ = [](void* p) noexcept {
        delete *std::launder(reinterpret_cast<Fn**>(p));
      };
    }
  }

  void move_from(SmallFn& other) noexcept {
    if (other.invoke_ == nullptr) return;
    if (other.relocate_ != nullptr) {
      other.relocate_(buf_, other.buf_);
    } else {
      // Trivially-copyable inline callable: relocation is a byte copy of the
      // whole buffer, including bytes the callable never wrote (all of them
      // for a capture-less lambda). Copying indeterminate unsigned chars is
      // well defined, but GCC's -Wmaybe-uninitialized flags it once inlined.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
      std::memcpy(buf_, other.buf_, kInlineBytes);
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
    }
    invoke_ = other.invoke_;
    relocate_ = other.relocate_;
    destroy_ = other.destroy_;
    other.invoke_ = nullptr;
    other.relocate_ = nullptr;
    other.destroy_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  void (*invoke_)(void*) = nullptr;
  // Relocate = move-construct into dst and end src's lifetime (trivially a
  // pointer copy for the heap fallback).
  void (*relocate_)(void* dst, void* src) noexcept = nullptr;
  void (*destroy_)(void*) noexcept = nullptr;
};

}  // namespace w11::sim
