/**
 * @file
 * Lazily-started coroutine task type used for simulated threads.
 *
 * Simulated worker threads, Galois operators, and Minnow threadlets
 * are all C++20 coroutines returning CoTask. A CoTask is:
 *
 *  - lazy: the body does not run until the task is co_awaited (or
 *    explicitly start()ed as a root task);
 *  - composable: co_await'ing a child task uses symmetric transfer
 *    and resumes the parent when the child finishes;
 *  - owning: the handle is destroyed with the CoTask object;
 *  - recycled: every frame comes from the calling host thread's
 *    FramePool, so steady-state spawning does not touch the heap.
 *
 * A Machine runs on one host thread, so no synchronization is needed
 * anywhere in this machinery; the frame cache is per host thread.
 */

#ifndef MINNOW_RUNTIME_TASK_HH
#define MINNOW_RUNTIME_TASK_HH

#include <sanitizer/asan_interface.h>

#include <coroutine>
#include <cstddef>
#include <exception>
#include <new>
#include <utility>

namespace minnow::runtime
{

template <typename T>
class CoTask;

namespace detail
{

/**
 * Per-host-thread cache of coroutine frames (DESIGN.md 5e,
 * "Coroutine frame cache"). Frames up to kMaxBytes are rounded up to
 * a 64-byte size class; a freed frame goes onto its class's free
 * list and the next frame of that class on the same thread reuses
 * it. Larger frames go straight to the heap.
 *
 * Every cached frame is a plain ::operator new block of its class
 * size with no header, so a frame may be freed on any thread: the
 * cache only delays returning a block to the heap. The free-list
 * heads are a trivially destructible thread_local; an ExitGuard,
 * armed by the thread's first free, empties them when the thread
 * exits and marks the cache dead, after which frees go straight to
 * the heap. Machine teardown empties them too (trim()). Under ASan a
 * cached frame's bytes are poisoned, so a use after free still
 * reports.
 */
class FramePool
{
  public:
    static constexpr std::size_t kClassBytes = 64;
    static constexpr std::size_t kClasses = 16;
    static constexpr std::size_t kMaxBytes = kClassBytes * kClasses;

    static void *
    allocate(std::size_t bytes)
    {
        if (bytes > kMaxBytes)
            return ::operator new(bytes);
        std::size_t c = classOf(bytes);
        FreeLists &fl = lists_;
        if (Node *n = fl.head[c]) {
            ASAN_UNPOISON_MEMORY_REGION(n, bytes);
            fl.head[c] = n->next;
            --fl.cached;
            return n;
        }
        return ::operator new(classBytes(c));
    }

    static void
    deallocate(void *p, std::size_t bytes) noexcept
    {
        if (bytes > kMaxBytes) {
            ::operator delete(p, bytes);
            return;
        }
        std::size_t c = classOf(bytes);
        FreeLists &fl = lists_;
        if (fl.state != State::Live && !arm()) {
            ::operator delete(p, classBytes(c));
            return;
        }
        fl.head[c] = ::new (p) Node{fl.head[c]};
        ++fl.cached;
        ASAN_POISON_MEMORY_REGION(p, classBytes(c));
    }

    /**
     * Return the calling thread's cached frames to the heap. Machine
     * teardown calls it, so frames cached by one simulation point do
     * not pin heap memory through the next point on the same thread.
     */
    static void
    trim() noexcept
    {
        FreeLists &fl = lists_;
        for (std::size_t c = 0; c < kClasses; ++c) {
            while (Node *n = fl.head[c]) {
                ASAN_UNPOISON_MEMORY_REGION(n, classBytes(c));
                fl.head[c] = n->next;
                ::operator delete(n, classBytes(c));
            }
        }
        fl.cached = 0;
    }

    /** Frames held by the calling thread's cache. */
    static std::size_t cachedFrames() { return lists_.cached; }

  private:
    struct Node
    {
        Node *next;
    };

    enum class State : unsigned char { Cold, Live, Dead };

    struct FreeLists
    {
        Node *head[kClasses];
        std::size_t cached;
        State state;
    };

    /** Returns the thread's cached frames to the heap at exit. */
    struct ExitGuard
    {
        ~ExitGuard()
        {
            trim();
            lists_.state = State::Dead;
        }
    };

    /** Frames are never empty, so class c holds (64c, 64(c+1)]. */
    static std::size_t
    classOf(std::size_t bytes)
    {
        return (bytes - 1) / kClassBytes;
    }

    static std::size_t
    classBytes(std::size_t c)
    {
        return (c + 1) * kClassBytes;
    }

    /**
     * First free on a thread: construct its ExitGuard (registering
     * the drain at thread exit) and go live. False once the guard
     * has run.
     */
    [[gnu::noinline]] static bool
    arm() noexcept
    {
        FreeLists &fl = lists_;
        if (fl.state == State::Dead)
            return false;
        static thread_local ExitGuard guard;
        (void)guard;
        fl.state = State::Live;
        return true;
    }

    static inline thread_local FreeLists lists_{};
};

/** On completion, transfer control back to the awaiting parent. */
template <typename Promise>
struct FinalAwaiter
{
    bool await_ready() const noexcept { return false; }

    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<Promise> h) const noexcept
    {
        auto &p = h.promise();
        if (p.continuation)
            return p.continuation;
        return std::noop_coroutine();
    }

    void await_resume() const noexcept {}
};

struct PromiseBase
{
    std::coroutine_handle<> continuation;

    std::suspend_always initial_suspend() noexcept { return {}; }

    void unhandled_exception() { std::terminate(); }

    static void *
    operator new(std::size_t bytes)
    {
        return FramePool::allocate(bytes);
    }

    static void
    operator delete(void *p, std::size_t bytes) noexcept
    {
        FramePool::deallocate(p, bytes);
    }
};

} // namespace detail

/** Coroutine task yielding a value of type T (or void). */
template <typename T = void>
class [[nodiscard]] CoTask
{
  public:
    struct promise_type : detail::PromiseBase
    {
        T value{};

        CoTask
        get_return_object()
        {
            return CoTask{
                std::coroutine_handle<promise_type>::from_promise(
                    *this)};
        }

        detail::FinalAwaiter<promise_type>
        final_suspend() noexcept
        {
            return {};
        }

        void return_value(T v) { value = std::move(v); }
    };

    using Handle = std::coroutine_handle<promise_type>;

    CoTask() = default;
    explicit CoTask(Handle h) : handle_(h) {}
    CoTask(CoTask &&o) noexcept
        : handle_(std::exchange(o.handle_, nullptr))
    {
    }

    CoTask &
    operator=(CoTask &&o) noexcept
    {
        if (this != &o) {
            destroy();
            handle_ = std::exchange(o.handle_, nullptr);
        }
        return *this;
    }

    CoTask(const CoTask &) = delete;
    CoTask &operator=(const CoTask &) = delete;

    ~CoTask() { destroy(); }

    /** Start as a root task (no awaiting parent). */
    void
    start()
    {
        handle_.resume();
    }

    /** True once the body has run to completion. */
    bool done() const { return !handle_ || handle_.done(); }

    bool valid() const { return bool(handle_); }

    /** Result after completion (root tasks). */
    T &result() { return handle_.promise().value; }

    // Awaiter protocol so a parent coroutine can co_await the task.
    bool await_ready() const noexcept { return false; }

    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<> parent) noexcept
    {
        handle_.promise().continuation = parent;
        return handle_;
    }

    T
    await_resume()
    {
        return std::move(handle_.promise().value);
    }

  private:
    void
    destroy()
    {
        if (handle_) {
            handle_.destroy();
            handle_ = nullptr;
        }
    }

    Handle handle_ = nullptr;
};

/** Void specialization. */
template <>
class [[nodiscard]] CoTask<void>
{
  public:
    struct promise_type : detail::PromiseBase
    {
        CoTask
        get_return_object()
        {
            return CoTask{
                std::coroutine_handle<promise_type>::from_promise(
                    *this)};
        }

        detail::FinalAwaiter<promise_type>
        final_suspend() noexcept
        {
            return {};
        }

        void return_void() {}
    };

    using Handle = std::coroutine_handle<promise_type>;

    CoTask() = default;
    explicit CoTask(Handle h) : handle_(h) {}
    CoTask(CoTask &&o) noexcept
        : handle_(std::exchange(o.handle_, nullptr))
    {
    }

    CoTask &
    operator=(CoTask &&o) noexcept
    {
        if (this != &o) {
            destroy();
            handle_ = std::exchange(o.handle_, nullptr);
        }
        return *this;
    }

    CoTask(const CoTask &) = delete;
    CoTask &operator=(const CoTask &) = delete;

    ~CoTask() { destroy(); }

    void start() { handle_.resume(); }
    bool done() const { return !handle_ || handle_.done(); }
    bool valid() const { return bool(handle_); }

    bool await_ready() const noexcept { return false; }

    std::coroutine_handle<>
    await_suspend(std::coroutine_handle<> parent) noexcept
    {
        handle_.promise().continuation = parent;
        return handle_;
    }

    void await_resume() {}

  private:
    void
    destroy()
    {
        if (handle_) {
            handle_.destroy();
            handle_ = nullptr;
        }
    }

    Handle handle_ = nullptr;
};

} // namespace minnow::runtime

#endif // MINNOW_RUNTIME_TASK_HH
