/**
 * @file
 * Deterministic discrete-event queue.
 *
 * Events scheduled at the same tick fire in insertion order (FIFO), which
 * together with the seeded RNG makes every simulation run bit-reproducible.
 *
 * Storage is one binary min-heap of small trivially copyable keys,
 * ordered by (when, handle); handles are issued in insertion order, so
 * the handle is the FIFO tie-break. Callbacks live beside the heap in a
 * slab of reusable slots. The queue is serial by design: the
 * single-address-space machine couples every core to every other with
 * zero lookahead, so host parallelism lives across runs (par/), never
 * inside one.
 */

#ifndef JORD_SIM_EVENT_QUEUE_HH
#define JORD_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "sim/types.hh"

namespace jord::sim {

/** Callback type invoked when an event fires. */
using EventFn = std::function<void()>;

/**
 * A time-ordered queue of callbacks with deterministic tie-breaking.
 *
 * The queue owns the notion of "now": curTick() advances only as events are
 * dispatched. Clients schedule callbacks at absolute ticks or relative
 * delays and drive the simulation with run() / runUntil() / step().
 */
class EventQueue
{
  public:
    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time in ticks. */
    Tick curTick() const { return curTick_; }

    /** Number of queued entries, cancelled ones not yet popped included. */
    std::size_t size() const { return heap_.size(); }

    /** True when nothing is queued. */
    bool empty() const { return heap_.empty(); }

    /** Total number of events dispatched so far. */
    std::uint64_t numDispatched() const { return numDispatched_; }

    /**
     * Schedule a callback at an absolute tick.
     *
     * @param when Absolute tick; must not be in the past.
     * @param fn Callback to invoke.
     * @return A handle that can be passed to cancel().
     */
    std::uint64_t
    schedule(Tick when, EventFn fn)
    {
        return push(when, std::move(fn), false);
    }

    /** Schedule a callback @p delay ticks after the current time. */
    std::uint64_t
    scheduleAfter(Cycles delay, EventFn fn)
    {
        return schedule(curTick_ + delay, std::move(fn));
    }

    /**
     * Schedule a *daemon* callback: observer events (the sampling
     * profiler) that must not count as simulated work. Daemon events
     * fire like regular events but do not advance lastWorkTick(), so
     * a trailing daemon event cannot stretch a run's measured window.
     */
    std::uint64_t
    scheduleDaemon(Tick when, EventFn fn)
    {
        return push(when, std::move(fn), true);
    }

    std::uint64_t
    scheduleDaemonAfter(Cycles delay, EventFn fn)
    {
        return scheduleDaemon(curTick_ + delay, std::move(fn));
    }

    /** Tick of the most recently dispatched non-daemon event. */
    Tick lastWorkTick() const { return lastWorkTick_; }

    /**
     * Cancel a previously scheduled event.
     *
     * @retval true if the event was pending and is now cancelled.
     * @retval false if it already fired, was already cancelled, or
     *     never existed. Stale handles are detected exactly (a dense
     *     liveness window tracks every in-flight handle), whatever
     *     callback slot their event used.
     */
    bool cancel(std::uint64_t handle);

    /**
     * Cancelled entries still in the heap (lazy-deletion tombstones).
     * Bounded by the queued-entry count: each is dropped when it
     * reaches the top of the heap.
     */
    std::size_t numTombstones() const { return numTombstones_; }

    /**
     * Dispatch the single next event.
     *
     * @retval true an event was dispatched.
     * @retval false the queue was empty.
     */
    bool step();

    /** Run until the queue drains. @return final tick. */
    Tick run();

    /**
     * Run until the queue drains or simulated time would exceed @p limit.
     * Events scheduled exactly at @p limit still fire.
     */
    Tick runUntil(Tick limit);

    /** Drop all pending events and reset time to zero. */
    void reset();

  private:
    /** Liveness-window slot states (indexed by handle - aliveBase_). */
    static constexpr unsigned char kPending = 1;
    static constexpr unsigned char kDone = 0;

    /** One heap entry; the callback sits in fns_[slot]. */
    struct Key {
        Tick when;
        std::uint64_t handle;
        std::uint32_t slot;
        bool daemon;
    };

    /** Heap order: std heaps are max-heaps, so "less" means later. */
    static bool
    later(const Key &a, const Key &b)
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.handle > b.handle;
    }

    std::uint64_t push(Tick when, EventFn fn, bool daemon);
    /** Pop the top key and release its callback slot. */
    Key popTop();
    /** Drop cancelled keys off the top. @return false when empty. */
    bool dropCancelled();
    /** Mark a handle fired/cancelled and trim the liveness window. */
    void retire(std::uint64_t handle);

    std::vector<Key> heap_;
    /** Callback slab, indexed by Key::slot; freeSlots_ lists reusable slots. */
    std::vector<EventFn> fns_;
    std::vector<std::uint32_t> freeSlots_;
    Tick curTick_ = 0;
    Tick lastWorkTick_ = 0;
    std::uint64_t nextHandle_ = 1;
    std::uint64_t numDispatched_ = 0;
    std::size_t numTombstones_ = 0;
    /**
     * Sliding liveness window: slot (h - aliveBase_) says whether
     * handle h is still pending. Handles are issued sequentially, so a
     * deque indexed by handle is O(1) and compacts itself as the
     * oldest handles retire. A handle below aliveBase_ has retired.
     */
    std::deque<unsigned char> alive_;
    std::uint64_t aliveBase_ = 1;

    bool
    isPending(std::uint64_t handle) const
    {
        return handle >= aliveBase_ && alive_[handle - aliveBase_] == kPending;
    }
};

} // namespace jord::sim

#endif // JORD_SIM_EVENT_QUEUE_HH
