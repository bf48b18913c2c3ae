/**
 * @file
 * Unit tests for InlineFunction: the trivial (buffer-copy) relocation
 * path, the managed inline path and the CallbackArena fallback.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

#include "sim/inline_callback.hh"

namespace persim
{

TEST(InlineCallback, TrivialClosureSurvivesMoves)
{
    int hits = 0;
    const std::uint64_t a = 7, b = 11, c = 13;
    auto fn = [&hits, a, b, c] { hits += static_cast<int>(a + b + c); };
    static_assert(InlineCallback::isTrivial<decltype(fn)>);

    InlineCallback first(fn);
    InlineCallback moved(std::move(first));
    EXPECT_FALSE(static_cast<bool>(first));
    InlineCallback again(std::move(moved));
    InlineCallback assigned;
    assigned = std::move(again);
    EXPECT_FALSE(static_cast<bool>(again));
    ASSERT_TRUE(static_cast<bool>(assigned));
    assigned();
    assigned();
    EXPECT_EQ(hits, 2 * (7 + 11 + 13));

    // Move-assigning over a live trivial closure replaces it.
    int other = 0;
    InlineCallback replacement([&other] { ++other; });
    assigned = std::move(replacement);
    assigned();
    EXPECT_EQ(other, 1);
    EXPECT_EQ(hits, 2 * (7 + 11 + 13));
}

TEST(InlineCallback, SharedCaptureIsDestroyedExactlyOnce)
{
    auto token = std::make_shared<int>(5);
    std::weak_ptr<int> watch = token;
    int sum = 0;
    auto fn = [token, &sum] { sum += *token; };
    static_assert(InlineCallback::fitsInline<decltype(fn)>);
    static_assert(!InlineCallback::isTrivial<decltype(fn)>);

    InlineCallback cb(std::move(fn));
    EXPECT_EQ(token.use_count(), 2); // our handle + the stored capture
    InlineCallback moved(std::move(cb));
    EXPECT_EQ(token.use_count(), 2);
    InlineCallback assigned;
    assigned = std::move(moved);
    EXPECT_EQ(token.use_count(), 2);
    assigned();
    EXPECT_EQ(sum, 5);

    // Move-assigning over a live managed closure destroys its capture.
    assigned = InlineCallback([] {});
    EXPECT_EQ(token.use_count(), 1);

    InlineCallback again([token, &sum] { sum += *token; });
    EXPECT_EQ(token.use_count(), 2);
    again = nullptr; // reset
    EXPECT_EQ(token.use_count(), 1);
    token.reset();
    EXPECT_TRUE(watch.expired());
}

TEST(InlineCallback, OversizedClosureUsesOneArenaBlock)
{
    using detail::CallbackArena;
    struct Huge
    {
        std::uint64_t pad[9];
        std::uint64_t *sink;
    };
    std::uint64_t sink = 0;
    Huge h{{3}, &sink};
    auto fn = [h] { *h.sink += h.pad[0]; };
    static_assert(!InlineCallback::fitsInline<decltype(fn)>);
    static_assert(sizeof(fn) <= CallbackArena::kBlockBytes);

    // Blocks in use = blocks ever allocated - blocks parked on the
    // free list; a fresh block or a cached one both count once.
    auto inUse = [] {
        return CallbackArena::blocksAllocated() -
               CallbackArena::blocksCached();
    };
    const std::uint64_t before = inUse();
    {
        InlineCallback cb(fn);
        EXPECT_EQ(inUse(), before + 1);
        InlineCallback moved(std::move(cb)); // moves the pointer only
        EXPECT_EQ(inUse(), before + 1);
        moved();
        EXPECT_EQ(sink, 3u);
    }
    EXPECT_EQ(inUse(), before);
}

} // namespace persim
