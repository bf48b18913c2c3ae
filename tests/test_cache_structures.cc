/**
 * @file
 * Unit tests for the cache tag array, MSHRs, and the write buffer.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "cache/cache_array.hh"
#include "cache/mshr.hh"
#include "cpu/write_buffer.hh"
#include "sim/logging.hh"

namespace persim
{

using cache::CacheArray;
using cache::CacheGeometry;
using cache::CacheLine;
using cache::CoherenceState;

TEST(CacheArray, GeometryMath)
{
    CacheArray arr("a", CacheGeometry{32 * 1024, 4});
    EXPECT_EQ(arr.sets(), 128u);
    EXPECT_EQ(arr.ways(), 4u);
}

TEST(CacheArray, RejectsNonPowerOfTwoSets)
{
    EXPECT_THROW(CacheArray("bad", CacheGeometry{3 * 1024, 4}), SimPanic);
}

TEST(CacheArray, FillAndFind)
{
    CacheArray arr("a", CacheGeometry{4 * 1024, 4});
    EXPECT_EQ(arr.find(0x1000), nullptr);
    CacheLine *victim = arr.victimFor(0x1000, false);
    ASSERT_NE(victim, nullptr);
    EXPECT_FALSE(victim->valid());
    CacheLine &line = arr.fill(*victim, 0x1000, CoherenceState::Shared);
    EXPECT_EQ(arr.find(0x1000), &line);
    EXPECT_EQ(arr.find(0x1020), &line); // same line, different offset
    EXPECT_EQ(line.state(), CoherenceState::Shared);
}

TEST(CacheArray, LruVictimSelection)
{
    // 16 sets, 2 ways: addresses 64*16 apart collide.
    CacheArray arr("a", CacheGeometry{2 * 1024, 2});
    const Addr a = 0x0, b = a + 16 * 64, c = b + 16 * 64;
    arr.fill(*arr.victimFor(a, false), a, CoherenceState::Shared);
    arr.fill(*arr.victimFor(b, false), b, CoherenceState::Shared);
    // Touch a so b becomes LRU.
    arr.touch(*arr.find(a));
    CacheLine *v = arr.victimFor(c, false);
    ASSERT_TRUE(v->valid());
    EXPECT_EQ(v->addr(), b);
}

TEST(CacheArray, VictimAvoidsTaggedLines)
{
    CacheArray arr("a", CacheGeometry{2 * 1024, 2});
    const Addr a = 0x0, b = a + 16 * 64, c = b + 16 * 64;
    CacheLine &la = arr.fill(*arr.victimFor(a, false), a,
                             CoherenceState::Shared);
    arr.fill(*arr.victimFor(b, false), b, CoherenceState::Shared);
    la.setTag(0, 5); // LRU but tagged
    CacheLine *v = arr.victimFor(c, true);
    EXPECT_EQ(v->addr(), b);
    // Without avoidance, plain LRU picks the tagged line.
    EXPECT_EQ(arr.victimFor(c, false)->addr(), a);
}

TEST(CacheArray, VictimPrefersLinesWithoutL1Copies)
{
    CacheArray arr("a", CacheGeometry{2 * 1024, 2});
    const Addr a = 0x0, b = a + 16 * 64, c = b + 16 * 64;
    CacheLine &la = arr.fill(*arr.victimFor(a, false), a,
                             CoherenceState::Shared);
    arr.fill(*arr.victimFor(b, false), b, CoherenceState::Shared);
    la.setOwner(3); // LRU but held by an L1
    EXPECT_EQ(arr.victimFor(c, true)->addr(), b);
}

TEST(CacheArray, PinnedLinesAreNeverVictims)
{
    CacheArray arr("a", CacheGeometry{2 * 1024, 2});
    const Addr a = 0x0, b = a + 16 * 64, c = b + 16 * 64;
    CacheLine &la = arr.fill(*arr.victimFor(a, false), a,
                             CoherenceState::Shared);
    CacheLine &lb = arr.fill(*arr.victimFor(b, false), b,
                             CoherenceState::Shared);
    la.setPinned(true);
    EXPECT_EQ(arr.victimFor(c, false), &lb);
    lb.setPinned(true);
    EXPECT_EQ(arr.victimFor(c, false), nullptr);
}

TEST(CacheArray, RandomPolicyPicksValidCandidates)
{
    CacheGeometry geom{2 * 1024, 2};
    geom.policy = cache::ReplacementPolicy::Random;
    CacheArray arr("a", geom);
    const Addr a = 0x0, b = a + 16 * 64, c = b + 16 * 64;
    arr.fill(*arr.victimFor(a, false), a, CoherenceState::Shared);
    arr.fill(*arr.victimFor(b, false), b, CoherenceState::Shared);
    // Over many draws both ways must be picked, never anything else.
    bool sawA = false, sawB = false;
    for (int i = 0; i < 64; ++i) {
        CacheLine *v = arr.victimFor(c, false);
        ASSERT_NE(v, nullptr);
        ASSERT_TRUE(v->addr() == a || v->addr() == b);
        sawA |= v->addr() == a;
        sawB |= v->addr() == b;
    }
    EXPECT_TRUE(sawA);
    EXPECT_TRUE(sawB);
}

TEST(CacheArray, RandomPolicyStillAvoidsTaggedLines)
{
    CacheGeometry geom{2 * 1024, 2};
    geom.policy = cache::ReplacementPolicy::Random;
    CacheArray arr("a", geom);
    const Addr a = 0x0, b = a + 16 * 64, c = b + 16 * 64;
    CacheLine &la = arr.fill(*arr.victimFor(a, false), a,
                             CoherenceState::Shared);
    arr.fill(*arr.victimFor(b, false), b, CoherenceState::Shared);
    la.setTag(0, 3);
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(arr.victimFor(c, true)->addr(), b);
}

TEST(CacheArray, InvalidateClearsEverything)
{
    CacheLine l;
    l.setAddr(0x40);
    l.setState(CoherenceState::Modified);
    l.setDirty(true);
    l.setTag(2, 9);
    l.setOwner(2);
    l.setSharers(0xFF);
    l.setPinned(true);
    l.invalidate();
    EXPECT_FALSE(l.valid());
    EXPECT_FALSE(l.dirty());
    EXPECT_FALSE(l.tagged());
    EXPECT_EQ(l.owner(), kNoCore);
    EXPECT_EQ(l.sharers(), 0u);
    EXPECT_FALSE(l.pinned());
}

TEST(CacheArray, SetShiftStripsBankBits)
{
    // Two banks of a 32-set cache: with setShift=1, addresses that
    // differ only in the bank-select bit map to the same set.
    CacheArray arr("bank", CacheGeometry{4 * 1024, 4}, 1);
    const Addr a = 0x0;
    const Addr sameSet = a + 2 * 64; // line+2 with shift 1 -> set +1
    EXPECT_EQ(arr.setIndex(a), 0u);
    EXPECT_EQ(arr.setIndex(a + 128), 1u);
    (void)sameSet;
}

TEST(CacheArray, NeverFilledSetFindsNothing)
{
    // 16 sets x 4 ways; nothing has been filled, so no set's lines
    // exist yet and every probe misses.
    CacheArray arr("a", CacheGeometry{4 * 1024, 4});
    for (unsigned set = 0; set < arr.sets(); ++set)
        EXPECT_EQ(arr.find(static_cast<Addr>(set) * 64), nullptr);
    // Filling one set leaves its neighbours unbuilt and still missing.
    arr.fill(*arr.victimFor(0x0, false), 0x0, CoherenceState::Shared);
    EXPECT_NE(arr.find(0x0), nullptr);
    EXPECT_EQ(arr.find(0x40), nullptr);
    EXPECT_EQ(arr.find(0x0 + 16 * 64), nullptr); // same set, other tag
}

TEST(CacheArray, FirstVictimIsWayZeroOfFreshLines)
{
    CacheArray arr("a", CacheGeometry{4 * 1024, 4});
    const Addr a = 3 * 64; // set 3
    CacheLine *v = arr.victimFor(a, true);
    ASSERT_NE(v, nullptr);
    // A freshly built line: invalid, unpinned, untagged, no L1 copies.
    EXPECT_FALSE(v->valid());
    EXPECT_FALSE(v->pinned());
    EXPECT_FALSE(v->dirty());
    EXPECT_FALSE(v->tagged());
    EXPECT_EQ(v->owner(), kNoCore);
    EXPECT_EQ(v->sharers(), 0u);
    EXPECT_EQ(v->lruStamp(), 0u);
    // Way 0: the next way of the same set is the next victim.
    CacheLine &line = arr.fill(*v, a, CoherenceState::Shared);
    CacheLine *next = arr.victimFor(a + 16 * 64, true);
    ASSERT_NE(next, nullptr);
    EXPECT_EQ(next, &line + 1);
    EXPECT_FALSE(next->valid());
    // The Random policy builds the same fresh set and also starts at
    // way 0 (the first invalid way).
    CacheGeometry geom{4 * 1024, 4};
    geom.policy = cache::ReplacementPolicy::Random;
    CacheArray rnd("r", geom);
    CacheLine *rv = rnd.victimFor(a, false);
    ASSERT_NE(rv, nullptr);
    EXPECT_FALSE(rv->valid());
    CacheLine &rline = rnd.fill(*rv, a, CoherenceState::Shared);
    EXPECT_EQ(rnd.victimFor(a + 16 * 64, false), &rline + 1);
}

TEST(CacheArray, ForEachValidVisitsOnlyFilledLines)
{
    CacheArray arr("a", CacheGeometry{4 * 1024, 4});
    unsigned visits = 0;
    arr.forEachValid([&](CacheLine &) { ++visits; });
    EXPECT_EQ(visits, 0u);

    // Two sets built, three lines filled; a victim pick alone (set 5)
    // builds a set but fills nothing.
    const std::vector<Addr> filled = {0x0, 0x0 + 16 * 64, 2 * 64};
    for (Addr a : filled)
        arr.fill(*arr.victimFor(a, false), a, CoherenceState::Shared);
    ASSERT_NE(arr.victimFor(5 * 64, false), nullptr);
    std::vector<Addr> seen;
    arr.forEachValid([&](CacheLine &line) { seen.push_back(line.addr()); });
    std::sort(seen.begin(), seen.end());
    std::vector<Addr> want = filled;
    std::sort(want.begin(), want.end());
    EXPECT_EQ(seen, want);

    // An invalidated line drops out.
    arr.invalidate(*arr.find(2 * 64));
    visits = 0;
    arr.forEachValid([&](CacheLine &) { ++visits; });
    EXPECT_EQ(visits, 2u);
}

TEST(Mshr, AllocateMergeRelease)
{
    cache::MshrFile mshrs(2);
    EXPECT_FALSE(mshrs.has(0x100));
    int completions = 0;
    mshrs.allocate(0x100, false,
                   cache::PendingAccess{false, 0, [&] { ++completions; }});
    EXPECT_TRUE(mshrs.has(0x100));
    EXPECT_TRUE(mshrs.has(0x13F)); // same line
    EXPECT_FALSE(mshrs.forWrite(0x100));
    mshrs.merge(0x100,
                cache::PendingAccess{true, 0, [&] { ++completions; }});
    auto q = mshrs.release(0x100);
    EXPECT_FALSE(mshrs.has(0x100));
    ASSERT_EQ(q.size(), 2u);
    EXPECT_FALSE(q[0].isWrite);
    EXPECT_TRUE(q[1].isWrite);
}

TEST(Mshr, CapacityEnforced)
{
    cache::MshrFile mshrs(1);
    mshrs.allocate(0x100, false, cache::PendingAccess{});
    EXPECT_TRUE(mshrs.full());
    EXPECT_THROW(mshrs.allocate(0x200, false, cache::PendingAccess{}),
                 SimPanic);
}

TEST(Mshr, DoubleAllocatePanics)
{
    cache::MshrFile mshrs(4);
    mshrs.allocate(0x100, false, cache::PendingAccess{});
    EXPECT_THROW(mshrs.allocate(0x100, true, cache::PendingAccess{}),
                 SimPanic);
}

TEST(WriteBuffer, FifoOrderAndCapacity)
{
    cpu::WriteBuffer wb(3);
    EXPECT_TRUE(wb.empty());
    wb.push(0x100);
    wb.push(0x200);
    wb.push(0x300);
    EXPECT_TRUE(wb.full());
    EXPECT_EQ(wb.front().addr, 0x100u);
    wb.pop();
    EXPECT_EQ(wb.front().addr, 0x200u);
    EXPECT_FALSE(wb.full());
}

TEST(WriteBuffer, LineContainment)
{
    cpu::WriteBuffer wb(8);
    wb.push(0x100);
    wb.push(0x100); // two stores, same line
    EXPECT_TRUE(wb.containsLine(0x100));
    EXPECT_TRUE(wb.containsLine(0x13C));
    EXPECT_FALSE(wb.containsLine(0x140));
    wb.pop();
    EXPECT_TRUE(wb.containsLine(0x100));
    wb.pop();
    EXPECT_FALSE(wb.containsLine(0x100));
}

TEST(WriteBuffer, OverflowAndUnderflowPanic)
{
    cpu::WriteBuffer wb(1);
    wb.push(0x40);
    EXPECT_THROW(wb.push(0x80), SimPanic);
    wb.pop();
    EXPECT_THROW(wb.pop(), SimPanic);
}

} // namespace persim
