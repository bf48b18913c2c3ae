#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "sim/logging.hh"

namespace persim
{

EventQueue::~EventQueue()
{
    // Release the captures of every event still pending: wheel FIFOs
    // first, then the overflow heap. Free nodes hold no callback.
    for (std::size_t pos = 0; pos < kWheelSlots; ++pos) {
        for (std::uint32_t i = _head[pos]; i != kNoIndex;) {
            Node &n = node(i);
            i = n.next;
            n.cb.~Callback();
        }
    }
    for (const HeapEntry &e : _heap)
        node(e.idx).cb.~Callback();
}

void
EventQueue::growPool()
{
    const std::size_t base = _chunks.size() * kChunkNodes;
    simAssert(base + kChunkNodes <= kNoIndex, "event pool exhausted");
    _chunks.push_back(std::make_unique<Node[]>(kChunkNodes));
    // Thread the new chunk onto the free list in index order.
    for (std::uint32_t i = kChunkNodes; i-- > 0;)
        freeNode(static_cast<std::uint32_t>(base + i));
}

void
EventQueue::pushWheel(Tick when, std::uint32_t idx)
{
    const std::size_t pos = wheelPos(when);
    node(idx).next = kNoIndex;
    if (_head[pos] == kNoIndex) {
        _head[pos] = idx;
        setOccupied(pos);
    } else {
        node(_tail[pos]).next = idx;
    }
    _tail[pos] = idx;
    ++_wheelCount;
}

void
EventQueue::enqueue(Tick when, std::uint32_t idx)
{
    // _cursor == _now whenever user code runs, so when >= _cursor and
    // the window test below is a plain subtraction.
    if (when - _cursor < kWheelSlots) {
        pushWheel(when, idx);
    } else {
        _heap.push_back(HeapEntry{when, _nextSeq++, idx});
        siftUp(_heap.size() - 1);
    }
    ++_numLive;
}

// The overflow heap is 4-ary: a wider node halves the tree depth while
// keeping all four children of a node inside one or two host cache
// lines (HeapEntry is 24 bytes). Heap shape never affects simulation
// order — (when, seq) is a total order, so the pop sequence is
// identical for any valid heap arrangement.

void
EventQueue::siftUp(std::size_t i)
{
    const HeapEntry e = _heap[i];
    while (i > 0) {
        const std::size_t parent = (i - 1) / kHeapArity;
        if (!before(e, _heap[parent]))
            break;
        _heap[i] = _heap[parent];
        i = parent;
    }
    _heap[i] = e;
}

void
EventQueue::siftDown(std::size_t i)
{
    const std::size_t n = _heap.size();
    const HeapEntry e = _heap[i];
    while (true) {
        const std::size_t first = kHeapArity * i + 1;
        if (first >= n)
            break;
        const std::size_t last = std::min(first + kHeapArity, n);
        std::size_t smallest = first;
        for (std::size_t c = first + 1; c < last; ++c) {
            if (before(_heap[c], _heap[smallest]))
                smallest = c;
        }
        if (!before(_heap[smallest], e))
            break;
        _heap[i] = _heap[smallest];
        i = smallest;
    }
    _heap[i] = e;
}

void
EventQueue::drainOverflow()
{
    while (!_heap.empty() && _heap.front().when - _cursor < kWheelSlots) {
        pushWheel(_heap.front().when, _heap.front().idx);
        _heap.front() = _heap.back();
        _heap.pop_back();
        if (!_heap.empty())
            siftDown(0);
    }
}

Tick
EventQueue::nextOccupiedTick() const
{
    const std::size_t p0 = wheelPos(_cursor);
    // First (partial) word: positions strictly after the cursor's.
    const std::size_t start = (p0 + 1) & kWheelMask;
    std::size_t word = start >> 6;
    const std::uint64_t head = _occupied[word] >> (start & 63);
    if (head) {
        const std::size_t pos =
            (start + static_cast<std::size_t>(std::countr_zero(head))) &
            kWheelMask;
        return _cursor + ((pos - p0) & kWheelMask);
    }
    for (std::size_t i = 1; i <= kWheelWords; ++i) {
        const std::size_t w = (word + i) & (kWheelWords - 1);
        const std::uint64_t bits = _occupied[w];
        if (bits) {
            const std::size_t pos =
                (w << 6) + static_cast<std::size_t>(std::countr_zero(bits));
            const std::size_t d = (pos - p0) & kWheelMask;
            simAssert(d != 0, "wheel occupancy out of sync");
            return _cursor + d;
        }
    }
    panic("nextOccupiedTick on an empty wheel");
    return kTickNever; // unreachable; panic() throws
}

bool
EventQueue::findNext(Tick limit)
{
    drainOverflow();
    while (_head[wheelPos(_cursor)] == kNoIndex) {
        if (_wheelCount > 0) {
            const Tick next = nextOccupiedTick();
            if (next > limit)
                break;
            _cursor = next;
        } else if (!_heap.empty() && _heap.front().when <= limit) {
            _cursor = _heap.front().when;
        } else {
            break;
        }
        drainOverflow();
    }
    if (_head[wheelPos(_cursor)] != kNoIndex)
        return true;
    // Nothing at tick <= limit. Park the cursor where later schedules
    // (which satisfy when >= now()) cannot land behind it: at the
    // limit runUntil() will advance now() to, or back at now() for an
    // unbounded search over a drained queue.
    _cursor = limit == kTickNever ? _now : limit;
    drainOverflow();
    return false;
}

void
EventQueue::dispatchHead()
{
    const std::size_t pos = wheelPos(_cursor);
    const std::uint32_t idx = _head[pos];
    Node &n = node(idx);
    _head[pos] = n.next;
    if (n.next == kNoIndex)
        clearOccupied(pos);
    --_wheelCount;
    --_numLive;
    simAssert(_cursor >= _now, "time went backwards");
    _now = _cursor;
    ++_executed;

    // The node is off every list while its callback runs, so the
    // callback may schedule freely (chunks never move). The guard
    // destroys the capture and frees the node on return or on a
    // throw (SimPanic) alike.
    struct Release
    {
        EventQueue &q;
        std::uint32_t idx;
        Node &n;

        ~Release()
        {
            n.cb.~Callback();
            q.freeNode(idx);
        }
    } release{*this, idx, n};
    n.cb();
}

bool
EventQueue::runNext()
{
    if (!findNext(kTickNever))
        return false;
    dispatchHead();
    return true;
}

std::uint64_t
EventQueue::run(std::uint64_t maxEvents)
{
    std::uint64_t count = 0;
    while (count < maxEvents && runNext())
        ++count;
    return count;
}

std::uint64_t
EventQueue::runUntil(Tick limit)
{
    std::uint64_t count = 0;
    while (findNext(limit)) {
        dispatchHead();
        ++count;
    }
    if (_now < limit)
        _now = limit;
    return count;
}

} // namespace persim
