/**
 * @file
 * The discrete-event simulation kernel.
 *
 * A single EventQueue drives the whole simulated machine. Events are
 * (tick, callback) pairs; events scheduled for the same tick execute in
 * FIFO scheduling order, which makes every simulation fully deterministic
 * for a given configuration and seed.
 */

#ifndef PERSIM_SIM_EVENT_QUEUE_HH
#define PERSIM_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/inline_callback.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace persim
{

/**
 * Deterministic timing-wheel event queue over stable pooled nodes.
 *
 * Events within the wheel horizon (kWheelSlots ticks — which covers
 * nearly every event the simulator schedules, since component delays
 * are at most a few hundred cycles) go to a per-tick FIFO slot:
 * schedule and pop are O(1) list appends/unlinks with no sifting at
 * all. Events beyond the horizon go to a small 4-ary min-heap of POD
 * entries (tick, sequence, pool index) and drain into the wheel as the
 * cursor advances. Ordering is exactly (tick, schedule order): wheel
 * slots are FIFO and the overflow drains into a slot strictly before
 * any same-tick direct insert can reach it (drains happen on every
 * cursor advance, and a direct insert requires the tick to be inside
 * the window, which implies earlier overflow entries for that tick
 * have already drained).
 *
 * Each callback is constructed directly in a pool node, runs there and
 * is destroyed there: nodes live in fixed-size chunks that never move,
 * so a callback may schedule (and grow the pool) while it runs. A
 * wheel slot is an intrusive singly linked FIFO threaded through the
 * nodes' next index; freed nodes go on a LIFO free list through the
 * same field.
 */
class EventQueue
{
  public:
    using Callback = InlineCallback;

    EventQueue() { _head.fill(kNoIndex); }
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Schedule @p f to run at absolute tick @p when.
     *
     * The Callback is constructed in place in its event node from
     * @p f (a closure, or a Callback to move from).
     *
     * @param when Absolute tick; must be >= now().
     * @param f Callable executed when the event fires.
     */
    template <typename F>
    void
    schedule(Tick when, F &&f)
    {
        simAssert(when >= _now, "event scheduled in the past: when=", when,
                  " now=", _now);
        if constexpr (std::is_same_v<std::decay_t<F>, Callback>)
            simAssert(static_cast<bool>(f), "null event callback");
        const std::uint32_t idx = allocNode();
        try {
            ::new (static_cast<void *>(&node(idx).cb))
                Callback(std::forward<F>(f));
        } catch (...) {
            freeNode(idx);
            throw;
        }
        enqueue(when, idx);
    }

    /**
     * Schedule @p f to run @p delay ticks from now.
     *
     * Asserts that now() + delay does not overflow Tick — a wrapped sum
     * would otherwise surface as a confusing "scheduled in the past"
     * panic (or, worse, a silently early event).
     */
    template <typename F>
    void
    scheduleIn(Tick delay, F &&f)
    {
        simAssert(delay <= kTickNever - _now,
                  "scheduleIn overflow: now=", _now, " delay=", delay,
                  " wraps Tick");
        schedule(_now + delay, std::forward<F>(f));
    }

    /**
     * Pop and execute the next event.
     *
     * @return false if the queue was empty (time does not advance).
     */
    bool runNext();

    /**
     * Run events until the queue drains or @p maxEvents have executed.
     *
     * @return The number of events executed.
     */
    std::uint64_t run(std::uint64_t maxEvents = UINT64_MAX);

    /**
     * Run all events with tick <= @p limit; afterwards now() == limit
     * unless the queue drained earlier.
     *
     * @return The number of events executed.
     */
    std::uint64_t runUntil(Tick limit);

    /** True when no events remain. */
    bool empty() const { return _numLive == 0; }

    /** Number of events pending. */
    std::size_t pending() const { return _numLive; }

    /** Total events executed since construction. */
    std::uint64_t executed() const { return _executed; }

  private:
    static constexpr std::uint32_t kNoIndex = UINT32_MAX;
    /** Overflow-heap fan-out; see the determinism note at siftDown(). */
    static constexpr std::size_t kHeapArity = 4;
    /** Wheel horizon in ticks (power of two). */
    static constexpr std::size_t kWheelSlots = 4096;
    static constexpr std::size_t kWheelMask = kWheelSlots - 1;
    static constexpr std::size_t kWheelWords = kWheelSlots / 64;
    /** Nodes per pool chunk (power of two). */
    static constexpr std::uint32_t kChunkShift = 8;
    static constexpr std::uint32_t kChunkNodes = 1u << kChunkShift;

    /** Pool node. cb is constructed only while the node holds a
     * scheduled or running event; next links the node into a wheel
     * slot's FIFO or the free list. */
    struct Node
    {
        union
        {
            Callback cb;
        };
        std::uint32_t next = kNoIndex;

        Node() {}
        ~Node() {}
    };

    /** POD heap entry; seq is the monotonic FIFO tie-breaker. */
    struct HeapEntry
    {
        Tick when;
        std::uint64_t seq;
        std::uint32_t idx;
    };

    /** True if a orders strictly before b. */
    static bool
    before(const HeapEntry &a, const HeapEntry &b)
    {
        return a.when < b.when || (a.when == b.when && a.seq < b.seq);
    }

    /** Wheel slot of tick @p t. */
    static std::size_t
    wheelPos(Tick t)
    {
        return static_cast<std::size_t>(t) & kWheelMask;
    }

    Node &
    node(std::uint32_t idx)
    {
        return _chunks[idx >> kChunkShift][idx & (kChunkNodes - 1)];
    }

    std::uint32_t
    allocNode()
    {
        if (_freeHead == kNoIndex)
            growPool();
        const std::uint32_t idx = _freeHead;
        _freeHead = node(idx).next;
        return idx;
    }

    void
    freeNode(std::uint32_t idx)
    {
        node(idx).next = _freeHead;
        _freeHead = idx;
    }

    /** Add one chunk of nodes to the free list. */
    void growPool();

    /** Link the constructed node @p idx in for tick @p when. */
    void enqueue(Tick when, std::uint32_t idx);

    void siftUp(std::size_t i);
    void siftDown(std::size_t i);

    /** Append @p idx to the wheel slot for tick @p when (in-window). */
    void pushWheel(Tick when, std::uint32_t idx);

    /** Move overflow entries that entered the window onto the wheel. */
    void drainOverflow();

    /** Tick of the nearest occupied wheel slot after the cursor;
     * requires _wheelCount > 0. */
    Tick nextOccupiedTick() const;

    /**
     * Advance the cursor (never past @p limit) until its slot holds an
     * event. Returns false if none exists at tick <= limit; the cursor
     * is then left at @p limit (or back at now() for an unbounded
     * search) so later schedules stay ahead of it.
     */
    bool findNext(Tick limit);

    /** Unlink the head of the cursor's slot and run it in place. */
    void dispatchHead();

    void
    setOccupied(std::size_t pos)
    {
        _occupied[pos >> 6] |= std::uint64_t{1} << (pos & 63);
    }

    void
    clearOccupied(std::size_t pos)
    {
        _occupied[pos >> 6] &= ~(std::uint64_t{1} << (pos & 63));
    }

    /** Per-tick FIFO slots as head/tail node indices; a slot holds
     * entries for exactly one tick of the window [cursor, cursor+W).
     * A tail is meaningful only while its head is set. */
    std::array<std::uint32_t, kWheelSlots> _head;
    std::array<std::uint32_t, kWheelSlots> _tail;
    std::array<std::uint64_t, kWheelWords> _occupied{};
    /** Tick the wheel cursor rests on; == now() whenever user code can
     * run (callbacks or between run calls). */
    Tick _cursor = 0;
    /** Events resident in wheel slots. */
    std::size_t _wheelCount = 0;

    std::vector<HeapEntry> _heap; // overflow: when - cursor >= kWheelSlots
    std::vector<std::unique_ptr<Node[]>> _chunks;
    std::uint32_t _freeHead = kNoIndex;
    std::uint64_t _nextSeq = 1;
    std::size_t _numLive = 0;
    Tick _now = 0;
    std::uint64_t _executed = 0;
};

} // namespace persim

#endif // PERSIM_SIM_EVENT_QUEUE_HH
