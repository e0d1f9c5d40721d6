#include "sim/event_queue.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace jord::sim {

std::uint64_t
EventQueue::push(Tick when, EventFn fn, bool daemon)
{
    if (when < curTick_)
        panic("scheduling event in the past (when=%llu now=%llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(curTick_));
    std::uint32_t slot;
    if (freeSlots_.empty()) {
        slot = static_cast<std::uint32_t>(fns_.size());
        fns_.push_back(std::move(fn));
    } else {
        slot = freeSlots_.back();
        freeSlots_.pop_back();
        fns_[slot] = std::move(fn);
    }
    std::uint64_t handle = nextHandle_++;
    alive_.push_back(kPending);
    heap_.push_back(Key{when, handle, slot, daemon});
    std::push_heap(heap_.begin(), heap_.end(), later);
    return handle;
}

EventQueue::Key
EventQueue::popTop()
{
    std::pop_heap(heap_.begin(), heap_.end(), later);
    Key top = heap_.back();
    heap_.pop_back();
    freeSlots_.push_back(top.slot);
    return top;
}

bool
EventQueue::dropCancelled()
{
    while (!heap_.empty() && !isPending(heap_.front().handle)) {
        fns_[popTop().slot] = nullptr;
        --numTombstones_;
    }
    return !heap_.empty();
}

void
EventQueue::retire(std::uint64_t handle)
{
    alive_[handle - aliveBase_] = kDone;
    while (!alive_.empty() && alive_.front() == kDone) {
        alive_.pop_front();
        ++aliveBase_;
    }
}

bool
EventQueue::cancel(std::uint64_t handle)
{
    if (handle >= nextHandle_ || !isPending(handle))
        return false; // never issued, already fired or already cancelled
    retire(handle);
    // The key itself stays queued (lazy deletion); it is dropped when
    // it reaches the top of the heap.
    ++numTombstones_;
    return true;
}

bool
EventQueue::step()
{
    if (!dropCancelled())
        return false;
    Key top = popTop();
    // Move the callback out first: it may schedule, which can grow fns_
    // and hand this slot to a new event.
    EventFn fn = std::move(fns_[top.slot]);
    retire(top.handle);
    curTick_ = top.when;
    if (!top.daemon)
        lastWorkTick_ = top.when;
    ++numDispatched_;
    fn();
    return true;
}

Tick
EventQueue::run()
{
    while (step()) {
    }
    return curTick_;
}

Tick
EventQueue::runUntil(Tick limit)
{
    // Drop cancelled keys before looking at the top, so a cancelled
    // entry inside the limit cannot let a later live event through.
    while (dropCancelled() && heap_.front().when <= limit)
        step();
    if (curTick_ < limit)
        curTick_ = limit;
    return curTick_;
}

void
EventQueue::reset()
{
    heap_.clear();
    fns_.clear();
    freeSlots_.clear();
    curTick_ = 0;
    lastWorkTick_ = 0;
    numDispatched_ = 0;
    numTombstones_ = 0;
    alive_.clear();
    aliveBase_ = nextHandle_;
}

} // namespace jord::sim
