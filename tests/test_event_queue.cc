/**
 * @file
 * Unit tests for the deterministic event queue.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"

namespace {

using jord::sim::EventQueue;
using jord::sim::Tick;

TEST(EventQueue, StartsEmptyAtTickZero)
{
    EventQueue q;
    EXPECT_EQ(q.curTick(), 0u);
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(q.step());
}

TEST(EventQueue, DispatchesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.curTick(), 30u);
}

TEST(EventQueue, SameTickEventsFireInInsertionOrder)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(5, [&order, i] { order.push_back(i); });
    q.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime)
{
    EventQueue q;
    Tick seen = 0;
    q.schedule(100, [&] {
        q.scheduleAfter(50, [&] { seen = q.curTick(); });
    });
    q.run();
    EXPECT_EQ(seen, 150u);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue q;
    int count = 0;
    std::function<void()> chain = [&] {
        if (++count < 100)
            q.scheduleAfter(1, chain);
    };
    q.schedule(0, chain);
    q.run();
    EXPECT_EQ(count, 100);
    EXPECT_EQ(q.curTick(), 99u);
}

TEST(EventQueue, CancelPreventsDispatch)
{
    EventQueue q;
    bool fired = false;
    auto handle = q.schedule(10, [&] { fired = true; });
    EXPECT_TRUE(q.cancel(handle));
    q.run();
    EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelIsIdempotentAndRejectsBogusHandles)
{
    EventQueue q;
    auto handle = q.schedule(10, [] {});
    EXPECT_TRUE(q.cancel(handle));
    EXPECT_FALSE(q.cancel(handle));
    EXPECT_FALSE(q.cancel(0));
    EXPECT_FALSE(q.cancel(9999));
    q.run();
}

TEST(EventQueue, CancelOneOfManyAtSameTick)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&] { order.push_back(0); });
    auto mid = q.schedule(5, [&] { order.push_back(1); });
    q.schedule(5, [&] { order.push_back(2); });
    q.cancel(mid);
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 2}));
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue q;
    std::vector<Tick> fired;
    q.schedule(10, [&] { fired.push_back(10); });
    q.schedule(20, [&] { fired.push_back(20); });
    q.schedule(30, [&] { fired.push_back(30); });
    q.runUntil(20);
    EXPECT_EQ(fired, (std::vector<Tick>{10, 20}));
    EXPECT_EQ(q.curTick(), 20u);
    EXPECT_EQ(q.size(), 1u);
    q.run();
    EXPECT_EQ(fired.back(), 30u);
}

TEST(EventQueue, RunUntilAdvancesTimeWhenIdle)
{
    EventQueue q;
    q.runUntil(500);
    EXPECT_EQ(q.curTick(), 500u);
}

TEST(EventQueue, ResetClearsEverything)
{
    EventQueue q;
    q.schedule(10, [] {});
    q.schedule(20, [] {});
    q.step();
    q.reset();
    EXPECT_EQ(q.curTick(), 0u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CountsDispatchedEvents)
{
    EventQueue q;
    for (int i = 0; i < 7; ++i)
        q.schedule(static_cast<Tick>(i), [] {});
    q.run();
    EXPECT_EQ(q.numDispatched(), 7u);
}

TEST(EventQueueDeathTest, SchedulingInThePastPanics)
{
    EventQueue q;
    q.schedule(100, [] {});
    q.step();
    EXPECT_DEATH(q.schedule(50, [] {}), "past");
}

TEST(EventQueue, CancelOfFiredHandleIsRejected)
{
    // Cancelling an already-fired handle used to return true and plant
    // a tombstone that was never purged.
    EventQueue q;
    auto handle = q.schedule(10, [] {});
    q.run();
    EXPECT_FALSE(q.cancel(handle));
    EXPECT_EQ(q.numTombstones(), 0u);
    // A new event now holds the fired event's callback slot; the stale
    // handle must still be rejected and must not cancel the new event.
    bool fired = false;
    q.schedule(20, [&] { fired = true; });
    EXPECT_FALSE(q.cancel(handle));
    EXPECT_EQ(q.numTombstones(), 0u);
    q.run();
    EXPECT_TRUE(fired);
}

TEST(EventQueue, TombstonesArePurgedWhenTheirTickPasses)
{
    EventQueue q;
    std::vector<std::uint64_t> handles;
    for (int i = 0; i < 100; ++i)
        handles.push_back(q.schedule(static_cast<Tick>(10 + i), [] {}));
    for (std::uint64_t h : handles)
        EXPECT_TRUE(q.cancel(h));
    EXPECT_EQ(q.numTombstones(), 100u);
    q.run();
    EXPECT_EQ(q.numTombstones(), 0u);
    EXPECT_EQ(q.numDispatched(), 0u);
}

TEST(EventQueue, TombstoneSetStaysBoundedUnderChurn)
{
    // Hedged cluster runs schedule-then-cancel constantly; the set must
    // track only in-flight cancellations, not the whole run's history.
    EventQueue q;
    for (int round = 0; round < 1000; ++round) {
        auto keep = q.schedule(q.curTick() + 1, [] {});
        auto drop = q.schedule(q.curTick() + 2, [] {});
        EXPECT_TRUE(q.cancel(drop));
        // Stale re-cancel of a long-gone handle must stay rejected.
        if (keep > 10) {
            EXPECT_FALSE(q.cancel(keep - 10));
        }
        while (!q.empty())
            q.step();
        EXPECT_LE(q.numTombstones(), 1u);
    }
    EXPECT_EQ(q.numTombstones(), 0u);
}

TEST(EventQueue, HeapStorageMatchesReferenceOrder)
{
    // Deterministic pseudo-random schedule with wide tick spans, dense
    // same-tick ties, daemon events, cancels and in-callback
    // reschedules: the heap must reproduce exact (when, insertion)
    // dispatch order. The reference is a stable sort of every
    // non-cancelled event by tick, in the order it was scheduled.
    EventQueue q;
    std::uint64_t lcg = 12345;
    auto next = [&lcg](std::uint64_t mod) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return (lcg >> 33) % mod;
    };
    struct Ev {
        Tick when;
        int tag;
        bool daemon;
        bool cancelled;
    };
    std::vector<Ev> scheduled; // indexed by tag
    std::vector<std::uint64_t> handles;
    std::vector<std::pair<Tick, int>> fired;
    auto cancelOne = [&] {
        std::size_t victim = next(scheduled.size());
        if (q.cancel(handles[victim]))
            scheduled[victim].cancelled = true;
    };
    std::function<void(Tick, bool)> add = [&](Tick when, bool daemon) {
        int tag = static_cast<int>(scheduled.size());
        scheduled.push_back(Ev{when, tag, daemon, false});
        auto fn = [&, when, tag] {
            EXPECT_EQ(q.curTick(), when);
            // Some callbacks schedule more events: a same-tick one
            // (which must fire after everything already at this tick),
            // a near one, and now and then cancel a pending event.
            // The record is made afterwards, so the callback's own
            // captures must outlive a new event taking its slot.
            switch (next(6)) {
            case 0:
                add(q.curTick(), false);
                break;
            case 1:
                add(q.curTick() + next(200), next(4) == 0);
                break;
            case 2:
                cancelOne();
                break;
            default:
                break;
            }
            fired.emplace_back(when, tag);
        };
        handles.push_back(daemon ? q.scheduleDaemon(when, fn)
                                 : q.schedule(when, fn));
    };
    for (int i = 0; i < 500; ++i) {
        // Mix near ticks, far ticks, and exact ties.
        Tick when = (i % 3 == 0) ? next(50)
                    : (i % 3 == 1) ? next(100000)
                                   : 42;
        add(when, i % 7 == 0);
        if (i % 11 == 0)
            cancelOne();
    }
    q.run();

    std::vector<Ev> expected;
    for (const Ev &ev : scheduled)
        if (!ev.cancelled)
            expected.push_back(ev);
    std::stable_sort(expected.begin(), expected.end(),
                     [](const Ev &a, const Ev &b) {
                         return a.when < b.when;
                     });
    std::vector<std::pair<Tick, int>> want;
    Tick last_work = 0;
    for (const Ev &ev : expected) {
        want.emplace_back(ev.when, ev.tag);
        if (!ev.daemon)
            last_work = ev.when;
    }
    EXPECT_EQ(fired, want);
    EXPECT_GT(scheduled.size(), 500u);
    EXPECT_LT(expected.size(), scheduled.size());
    EXPECT_EQ(q.numDispatched(), expected.size());
    EXPECT_EQ(q.lastWorkTick(), last_work);
    EXPECT_EQ(q.numTombstones(), 0u);
}

TEST(EventQueue, PushBehindAFarFutureEventAfterRunUntil)
{
    // runUntil() stops short of the only (far-future) event; a push
    // that then lands between the current tick and that event must
    // still fire first.
    EventQueue q;
    std::vector<Tick> fired;
    q.schedule(1000000, [&] { fired.push_back(q.curTick()); });
    q.runUntil(50);
    q.schedule(100, [&] { fired.push_back(q.curTick()); });
    q.run();
    EXPECT_EQ(fired, (std::vector<Tick>{100, 1000000}));
}

TEST(EventQueue, RunUntilSkipsCancelledEventsWithoutOvershooting)
{
    // A cancelled entry inside the limit must not let runUntil() fire
    // the next live event beyond the limit.
    EventQueue q;
    std::vector<Tick> fired;
    auto early = q.schedule(10, [&] { fired.push_back(q.curTick()); });
    q.schedule(100, [&] { fired.push_back(q.curTick()); });
    EXPECT_TRUE(q.cancel(early));
    EXPECT_EQ(q.runUntil(50), 50u);
    EXPECT_TRUE(fired.empty());
    EXPECT_EQ(q.curTick(), 50u);
    EXPECT_EQ(q.numTombstones(), 0u);
    q.run();
    EXPECT_EQ(fired, (std::vector<Tick>{100}));
}

TEST(EventQueue, ResetMakesOutstandingHandlesStale)
{
    EventQueue q;
    auto stale = q.schedule(10, [] {});
    q.reset();
    EXPECT_TRUE(q.empty());
    // Handles from before the reset are stale, not cancellable.
    EXPECT_FALSE(q.cancel(stale));
    bool fired = false;
    q.schedule(5, [&] { fired = true; });
    // The new event reuses the stale event's callback slot.
    EXPECT_FALSE(q.cancel(stale));
    q.run();
    EXPECT_TRUE(fired);
}

TEST(EventQueue, TrailingDaemonFiresInOrderOutsideTheWorkWindow)
{
    EventQueue q;
    std::vector<int> order;
    q.scheduleDaemon(30, [&] { order.push_back(99); });
    q.schedule(10, [&] { order.push_back(0); });
    q.schedule(20, [&] { order.push_back(1); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 99}));
    // The trailing daemon must not stretch the measured work window.
    EXPECT_EQ(q.lastWorkTick(), 20u);
    EXPECT_EQ(q.curTick(), 30u);
}

} // namespace
