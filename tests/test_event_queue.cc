/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace persim
{

TEST(EventQueue, StartsAtTickZeroAndEmpty)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_FALSE(eq.runNext());
}

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 5)
            eq.scheduleIn(7, chain);
    };
    eq.scheduleIn(1, chain);
    eq.run();
    EXPECT_EQ(depth, 5);
    EXPECT_EQ(eq.now(), 1u + 4 * 7);
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(100, [] {});
    eq.run();
    EXPECT_THROW(eq.schedule(50, [] {}), SimPanic);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue eq;
    int count = 0;
    for (Tick t = 10; t <= 100; t += 10)
        eq.schedule(t, [&] { ++count; });
    eq.runUntil(50);
    EXPECT_EQ(count, 5);
    EXPECT_EQ(eq.now(), 50u);
    EXPECT_EQ(eq.pending(), 5u);
    eq.run();
    EXPECT_EQ(count, 10);
}

TEST(EventQueue, RunUntilAdvancesTimeWhenDrained)
{
    EventQueue eq;
    eq.runUntil(1000);
    EXPECT_EQ(eq.now(), 1000u);
}

TEST(EventQueue, MaxEventsBound)
{
    EventQueue eq;
    int count = 0;
    std::function<void()> loop = [&] {
        ++count;
        eq.scheduleIn(1, loop);
    };
    eq.scheduleIn(1, loop);
    EXPECT_EQ(eq.run(100), 100u);
    EXPECT_EQ(count, 100);
}

TEST(EventQueue, ScheduleInOverflowPanics)
{
    EventQueue eq;
    eq.runUntil(100); // now() == 100
    EXPECT_THROW(eq.scheduleIn(kTickNever - 50, [] {}), SimPanic);
    // The boundary case still fits: now + delay == kTickNever.
    EXPECT_NO_THROW(eq.scheduleIn(kTickNever - 100, [] {}));
    EXPECT_EQ(eq.pending(), 1u);
}

TEST(EventQueue, ExecutedCounterCounts)
{
    EventQueue eq;
    for (int i = 0; i < 7; ++i)
        eq.schedule(i + 1, [] {});
    eq.run();
    EXPECT_EQ(eq.executed(), 7u);
}

// ---------------------------------------------------------------------
// Wheel horizon, in-place dispatch and capture lifetime
// ---------------------------------------------------------------------

TEST(EventQueue, BeyondHorizonEventKeepsScheduleOrder)
{
    // 5000 ticks is past the 4096-tick wheel, so the first event waits
    // in the overflow heap; the second is scheduled for the same tick
    // later, from inside the window, and must still run after it.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5000, [&] { order.push_back(1); });
    eq.schedule(4990, [&] {
        eq.schedule(5000, [&] { order.push_back(2); });
    });
    eq.schedule(5000 + 4096, [&] { order.push_back(3); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 5000u + 4096);
}

TEST(EventQueue, ScheduleAtNowRunsAfterQueuedSameTickEvents)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] {
        order.push_back(0);
        eq.schedule(eq.now(), [&] { order.push_back(3); });
    });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(10, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(eq.now(), 10u);
}

TEST(EventQueue, ThrowingCallbackReleasesItsCapture)
{
    EventQueue eq;
    auto token = std::make_shared<int>(42);
    std::weak_ptr<int> watch = token;
    eq.schedule(10, [token = std::move(token)] {
        panic("callback fails with ", *token);
    });
    int later = 0;
    eq.schedule(10, [&] { ++later; });
    eq.schedule(20, [&] { ++later; });
    EXPECT_THROW(eq.run(), SimPanic);
    EXPECT_TRUE(watch.expired());
    EXPECT_EQ(eq.pending(), 2u);
    EXPECT_EQ(eq.run(), 2u);
    EXPECT_EQ(later, 2);
    EXPECT_EQ(eq.now(), 20u);
}

TEST(EventQueue, DestroyingAQueueReleasesPendingCaptures)
{
    auto wheel = std::make_shared<int>(1);
    auto overflow = std::make_shared<int>(2);
    std::weak_ptr<int> watchWheel = wheel;
    std::weak_ptr<int> watchOverflow = overflow;
    {
        EventQueue eq;
        eq.schedule(10, [p = std::move(wheel)] { (void)*p; });
        eq.schedule(100000, [p = std::move(overflow)] { (void)*p; });
        EXPECT_FALSE(watchWheel.expired());
        EXPECT_FALSE(watchOverflow.expired());
    }
    EXPECT_TRUE(watchWheel.expired());
    EXPECT_TRUE(watchOverflow.expired());
}

} // namespace persim
