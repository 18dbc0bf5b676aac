#ifndef TRANSFW_SIM_POOL_HPP
#define TRANSFW_SIM_POOL_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/logging.hpp"

namespace transfw::sim {

template <typename Derived>
class Pooled;

/**
 * Slab allocator for fixed-type simulation objects (translation
 * requests, remote lookups, event-queue nodes). Objects are
 * placement-constructed in slab-backed slots and recycled through an
 * intrusive freelist, so the request path stops paying a malloc/free
 * (plus a shared_ptr control block) per translation: after warmup,
 * acquire/release never touch the system allocator. A T deriving from
 * Pooled<T> also learns its home pool, so PoolRef can release it; any
 * other T is released explicitly by its owner.
 *
 * Threading contract: a pool is used by one thread at a time. Each
 * thread gets its own pool via local(), and every object is acquired
 * and released on the thread that owns its pool; an EventQueue owns
 * the pool of its nodes. A simulation runs start to finish on one
 * thread (SweepRunner runs whole simulations in parallel, never parts
 * of one), so nothing here is synchronized.
 */
template <typename T>
class ObjectPool
{
  public:
    static constexpr std::size_t kSlabObjects = 256;

    ObjectPool() = default;
    ObjectPool(const ObjectPool &) = delete;
    ObjectPool &operator=(const ObjectPool &) = delete;

    ~ObjectPool()
    {
        // Slabs go away with the pool; anything still live would
        // dangle. The simulator tears every system down before its
        // thread exits, so this indicates a leaked reference.
        if (live_ != 0)
            warn(strfmt("ObjectPool destroyed with %zu live objects",
                        live_));
    }

    /** Construct a T in a recycled (or fresh) slot. */
    template <typename... Args>
    T *
    acquire(Args &&...args)
    {
        if (!free_)
            grow();
        Slot *slot = free_;
        free_ = slot->next;
        T *obj;
        try {
            obj = ::new (static_cast<void *>(slot->storage))
                T(std::forward<Args>(args)...);
        } catch (...) {
            slot->next = free_;
            free_ = slot;
            throw;
        }
        if constexpr (std::is_base_of_v<Pooled<T>, T>)
            static_cast<Pooled<T> &>(*obj).homePool_ = this;
        ++live_;
        return obj;
    }

    /** Destroy @p obj and return its slot to the freelist. */
    void
    release(T *obj) noexcept
    {
        obj->~T();
        Slot *slot = reinterpret_cast<Slot *>(obj);
        --live_;
        slot->next = free_;
        free_ = slot;
    }

    std::size_t liveObjects() const { return live_; }
    std::size_t capacity() const { return slabs_.size() * kSlabObjects; }

    /** This thread's pool for T. */
    static ObjectPool &
    local()
    {
        static thread_local ObjectPool pool;
        return pool;
    }

  private:
    union Slot
    {
        Slot *next;
        alignas(T) unsigned char storage[sizeof(T)];
    };

    void
    grow()
    {
        slabs_.push_back(std::make_unique<Slot[]>(kSlabObjects));
        Slot *slab = slabs_.back().get();
        for (std::size_t i = kSlabObjects; i-- > 0;) {
            slab[i].next = free_;
            free_ = &slab[i];
        }
    }

    Slot *free_ = nullptr;
    std::vector<std::unique_ptr<Slot[]>> slabs_;
    std::size_t live_ = 0;
};

template <typename T>
class PoolRef;

/**
 * CRTP base giving @p Derived an intrusive reference count so PoolRef
 * can manage it without a separate shared_ptr control block. The
 * object remembers its home pool, so the release path routes the slot
 * back to the pool that allocated it.
 */
template <typename Derived>
class Pooled
{
  protected:
    Pooled() = default;
    ~Pooled() = default;

  private:
    friend class PoolRef<Derived>;
    friend class ObjectPool<Derived>;
    std::uint32_t poolRefs_ = 0;
    void *homePool_ = nullptr;
};

/**
 * shared_ptr-shaped handle to a pool-allocated object. Copies bump the
 * intrusive count; the last reference returns the object to the pool
 * that allocated it.
 */
template <typename T>
class PoolRef
{
  public:
    PoolRef() noexcept = default;
    PoolRef(std::nullptr_t) noexcept {}

    PoolRef(const PoolRef &other) noexcept : p_(other.p_)
    {
        if (p_)
            ++base()->poolRefs_;
    }

    PoolRef(PoolRef &&other) noexcept : p_(other.p_) { other.p_ = nullptr; }

    PoolRef &
    operator=(const PoolRef &other) noexcept
    {
        PoolRef(other).swap(*this);
        return *this;
    }

    PoolRef &
    operator=(PoolRef &&other) noexcept
    {
        PoolRef(std::move(other)).swap(*this);
        return *this;
    }

    ~PoolRef() { unref(); }

    void reset() noexcept { unref(); }

    void
    swap(PoolRef &other) noexcept
    {
        std::swap(p_, other.p_);
    }

    T *get() const noexcept { return p_; }
    T &operator*() const noexcept { return *p_; }
    T *operator->() const noexcept { return p_; }
    explicit operator bool() const noexcept { return p_ != nullptr; }

    std::uint32_t
    useCount() const noexcept
    {
        return p_ ? base()->poolRefs_ : 0;
    }

    friend bool
    operator==(const PoolRef &a, const PoolRef &b) noexcept
    {
        return a.p_ == b.p_;
    }
    friend bool
    operator!=(const PoolRef &a, const PoolRef &b) noexcept
    {
        return a.p_ != b.p_;
    }
    friend bool
    operator==(const PoolRef &a, std::nullptr_t) noexcept
    {
        return a.p_ == nullptr;
    }
    friend bool
    operator!=(const PoolRef &a, std::nullptr_t) noexcept
    {
        return a.p_ != nullptr;
    }

    /** Take ownership of a freshly acquired object (refcount 0 → 1). */
    static PoolRef
    adopt(T *obj) noexcept
    {
        PoolRef ref;
        ref.p_ = obj;
        if (obj)
            ++ref.base()->poolRefs_;
        return ref;
    }

  private:
    Pooled<T> *base() const noexcept { return p_; }

    void
    unref() noexcept
    {
        if (p_ && --base()->poolRefs_ == 0)
            static_cast<ObjectPool<T> *>(base()->homePool_)->release(p_);
        p_ = nullptr;
    }

    T *p_ = nullptr;
};

/** Pool-backed make_shared analogue. */
template <typename T, typename... Args>
PoolRef<T>
makePooled(Args &&...args)
{
    return PoolRef<T>::adopt(
        ObjectPool<T>::local().acquire(std::forward<Args>(args)...));
}

} // namespace transfw::sim

#endif // TRANSFW_SIM_POOL_HPP
