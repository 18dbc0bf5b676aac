#ifndef TRANSFW_SIM_EVENT_FN_HPP
#define TRANSFW_SIM_EVENT_FN_HPP

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace transfw::sim {

/**
 * Small-buffer-optimised, move-only callable for event callbacks.
 *
 * The event kernel fires millions of closures per simulated second;
 * std::function's 16-byte inline buffer forces a heap allocation for
 * the typical simulator closure (this-pointer + a couple of scalars +
 * a captured continuation), which dominated the kernel's profile.
 * EventFn stores any callable up to kInlineBytes inline and only falls
 * back to the heap beyond that. Unlike std::function it accepts
 * move-only callables (e.g. lambdas capturing a unique_ptr or another
 * EventFn), so continuation-passing code never needs shared_ptr
 * wrappers just to satisfy copyability.
 */
class EventFn
{
  public:
    /**
     * Sized so the common simulator closure — this, a pooled request
     * handle, a VPN and a few scalars — stays inline. A closure that
     * carries another EventFn or a std::function (a routed message's
     * continuation) spills to the heap.
     */
    static constexpr std::size_t kInlineBytes = 64;

    EventFn() noexcept = default;
    EventFn(std::nullptr_t) noexcept {}

    template <typename F, typename D = std::decay_t<F>,
              typename = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                          std::is_invocable_r_v<void, D &>>>
    EventFn(F &&fn)
    {
        if constexpr (fitsInline<D>()) {
            ::new (static_cast<void *>(buf_)) D(std::forward<F>(fn));
            ops_ = &InlineImpl<D>::ops;
        } else {
            ::new (static_cast<void *>(buf_))
                D *(new D(std::forward<F>(fn)));
            ops_ = &HeapImpl<D>::ops;
        }
    }

    EventFn(EventFn &&other) noexcept : ops_(other.ops_)
    {
        if (ops_) {
            ops_->relocate(buf_, other.buf_);
            other.ops_ = nullptr;
        }
    }

    EventFn &
    operator=(EventFn &&other) noexcept
    {
        if (this != &other) {
            reset();
            ops_ = other.ops_;
            if (ops_) {
                ops_->relocate(buf_, other.buf_);
                other.ops_ = nullptr;
            }
        }
        return *this;
    }

    EventFn(const EventFn &) = delete;
    EventFn &operator=(const EventFn &) = delete;

    ~EventFn() { reset(); }

    /** Invoke. Undefined on an empty EventFn (like std::function). */
    void operator()() { ops_->invoke(buf_); }

    explicit operator bool() const noexcept { return ops_ != nullptr; }

    /** True when the callable lives in the inline buffer (no heap). */
    bool
    isInline() const noexcept
    {
        return ops_ != nullptr && ops_->inlineStored;
    }

  private:
    struct Ops
    {
        void (*invoke)(void *);
        void (*relocate)(void *dst, void *src);
        void (*destroy)(void *);
        bool inlineStored;
    };

    template <typename D>
    static constexpr bool
    fitsInline()
    {
        return sizeof(D) <= kInlineBytes &&
               alignof(D) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<D>;
    }

    template <typename D>
    struct InlineImpl
    {
        static D *
        at(void *p)
        {
            return std::launder(reinterpret_cast<D *>(p));
        }
        static void invoke(void *p) { (*at(p))(); }
        static void
        relocate(void *dst, void *src)
        {
            ::new (dst) D(std::move(*at(src)));
            at(src)->~D();
        }
        static void destroy(void *p) { at(p)->~D(); }
        static constexpr Ops ops{&invoke, &relocate, &destroy, true};
    };

    template <typename D>
    struct HeapImpl
    {
        static D **
        at(void *p)
        {
            return std::launder(reinterpret_cast<D **>(p));
        }
        static void invoke(void *p) { (**at(p))(); }
        static void
        relocate(void *dst, void *src)
        {
            ::new (dst) D *(*at(src));
        }
        static void destroy(void *p) { delete *at(p); }
        static constexpr Ops ops{&invoke, &relocate, &destroy, false};
    };

    void
    reset() noexcept
    {
        if (ops_) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    const Ops *ops_ = nullptr;
    alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
};

} // namespace transfw::sim

#endif // TRANSFW_SIM_EVENT_FN_HPP
