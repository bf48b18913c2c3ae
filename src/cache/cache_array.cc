#include "cache/cache_array.hh"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <new>

#include "sim/logging.hh"

namespace persim::cache
{

namespace
{
bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}
} // namespace

/**
 * One host thread's storage blocks, by byte size. A block is mapped
 * only when no free one of its size is left, so a pool holds at most
 * as many blocks of a size as its thread had live at once. Free
 * blocks stay mapped (and their pages resident) until the thread
 * exits: unmapping per machine would fault every page back in on the
 * next one.
 */
class CacheArray::Pool
{
  public:
    Pool() { tlPool = this; }

    ~Pool()
    {
        tlPool = nullptr;
        for (Shelf &s : _shelves)
            for (void *p : s.free)
                ::munmap(p, s.bytes);
    }

    Pool(const Pool &) = delete;
    Pool &operator=(const Pool &) = delete;

    /** This thread's pool. */
    static Pool &
    local()
    {
        thread_local Pool pool;
        return pool;
    }

    void *
    acquire(std::size_t bytes)
    {
        Shelf &s = shelf(bytes);
        if (!s.free.empty()) {
            void *p = s.free.back();
            s.free.pop_back();
            return p;
        }
        // Room to park every block of this size, so release() never
        // allocates.
        s.free.reserve(s.mapped + 1);
        void *p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        ++s.mapped;
        ++_mapped;
        return p;
    }

    /**
     * Hand back @p p, a block that @p owner handed out. A block freed
     * on another thread, or after its pool's thread-exit teardown, is
     * unmapped instead.
     */
    static void
    release(Pool *owner, void *p, std::size_t bytes) noexcept
    {
        if (owner == tlPool)
            owner->shelf(bytes).free.push_back(p);
        else
            ::munmap(p, bytes);
    }

    std::size_t mapped() const { return _mapped; }

  private:
    struct Shelf
    {
        std::size_t bytes;
        std::size_t mapped;
        std::vector<void *> free;
    };

    Shelf &
    shelf(std::size_t bytes)
    {
        for (Shelf &s : _shelves) {
            if (s.bytes == bytes)
                return s;
        }
        return _shelves.emplace_back(Shelf{bytes, 0, {}});
    }

    /** Set while this thread's pool is alive. */
    static constinit thread_local Pool *tlPool;

    /** A machine has two or three array sizes; a linear scan wins. */
    std::vector<Shelf> _shelves;
    std::size_t _mapped = 0;
};

constinit thread_local CacheArray::Pool *CacheArray::Pool::tlPool = nullptr;

std::size_t
CacheArray::regionsMapped()
{
    return Pool::local().mapped();
}

CacheArray::CacheArray(std::string name, const CacheGeometry &geom,
                       unsigned setShift)
    : _name(std::move(name)), _geom(geom), _setShift(setShift)
{
    simAssert(geom.ways > 0, _name, ": zero ways");
    simAssert(geom.sizeBytes % (geom.ways * kLineBytes) == 0, _name,
              ": size not a multiple of way size");
    _sets = geom.sets();
    simAssert(isPowerOfTwo(_sets), _name, ": sets (", _sets,
              ") not a power of two");
    const std::size_t numLines = static_cast<std::size_t>(_sets) * geom.ways;
    _built.assign((_sets + 63) / 64, 0);
    static_assert(alignof(CacheLine) <= alignof(Addr));
    _blockBytes = numLines * (sizeof(Addr) + sizeof(CacheLine));
    _pool = &Pool::local();
    void *block = _pool->acquire(_blockBytes);
    _tags = static_cast<Addr *>(block);
    _lines = reinterpret_cast<CacheLine *>(_tags + numLines);
}

CacheArray::~CacheArray()
{
    // Only a built set can hold a nonzero tag; zeroing those leaves
    // the block as clean as a fresh mapping for its next owner.
    for (std::size_t word = 0; word < _built.size(); ++word) {
        for (std::uint64_t bits = _built[word]; bits; bits &= bits - 1) {
            const std::size_t set =
                word * 64 + static_cast<unsigned>(std::countr_zero(bits));
            std::fill_n(_tags + set * _geom.ways, _geom.ways, Addr{0});
        }
    }
    Pool::release(_pool, _tags, _blockBytes);
}

void
CacheArray::buildSet(unsigned set)
{
    CacheLine *base = setBase(set);
    for (unsigned w = 0; w < _geom.ways; ++w)
        ::new (static_cast<void *>(base + w)) CacheLine();
    _built[set >> 6] |= std::uint64_t{1} << (set & 63);
}

void
CacheArray::touch(CacheLine &line)
{
    line.setLruStamp(++_lruClock);
}

namespace
{
/** True when stamp @p a is older than @p b under the wrapping clock. */
bool
lruOlder(std::uint32_t a, std::uint32_t b)
{
    return static_cast<std::int32_t>(a - b) < 0;
}
} // namespace

CacheLine *
CacheArray::victimFor(Addr addr, bool avoidTagged)
{
    const unsigned set = setIndex(lineAlign(addr));
    if (!built(set)) [[unlikely]]
        buildSet(set);
    const std::size_t first = static_cast<std::size_t>(set) * _geom.ways;
    CacheLine *base = setBase(set);
    const unsigned ways = _geom.ways;

    if (_geom.policy == ReplacementPolicy::Random) {
        // Reservoir-sample one candidate per tier. Kept as one generic
        // in-order pass: the sequence of RNG draws is part of the
        // deterministic-replay contract, so this path must consume
        // exactly one draw per already-seen tier member.
        CacheLine *any = nullptr;
        CacheLine *untagged = nullptr;
        CacheLine *quiet = nullptr; // untagged and no L1 copies
        unsigned nAny = 0, nUntagged = 0, nQuiet = 0;

        auto better = [&](CacheLine *&slot, CacheLine &cand,
                          unsigned &n) {
            ++n;
            if (!slot || _rng.below(n) == 0)
                slot = &cand;
        };

        for (unsigned w = 0; w < ways; ++w) {
            CacheLine &cand = base[w];
            if (cand.pinned())
                continue;
            if (!cand.valid())
                return &cand;
            better(any, cand, nAny);
            if (!cand.tagged()) {
                better(untagged, cand, nUntagged);
                if (cand.owner() == kNoCore && cand.sharers() == 0)
                    better(quiet, cand, nQuiet);
            }
        }
        if (avoidTagged && quiet)
            return quiet;
        if (avoidTagged && untagged)
            return untagged;
        return any;
    }

    // LRU, the hot path: one victim scan per miss at both cache levels.
    // Invalid ways first, via the compact tag array — it is already in
    // host cache from the find() that preceded every victim scan, so
    // the common steady-state case (no invalid way) costs one or two
    // cached line reads before the metadata sweep. An invalid way can
    // still be pinned (a miss claims its fill way before the memory
    // read returns), so the flag byte is checked before returning one.
    const Addr *tags = _tags + first;
    for (unsigned w = 0; w < ways; ++w) {
        if (tags[w] == 0 && !base[w].pinned())
            return &base[w];
    }

    if (!avoidTagged) {
        // Single-tier scan (every L1 fill takes this shape).
        CacheLine *any = nullptr;
        std::uint32_t anyStamp = 0;
        for (unsigned w = 0; w < ways; ++w) {
            CacheLine &cand = base[w];
            if (cand.pinned())
                continue;
            if (!any || lruOlder(cand.lruStamp(), anyStamp)) {
                any = &cand;
                anyStamp = cand.lruStamp();
            }
        }
        return any;
    }

    CacheLine *any = nullptr;
    CacheLine *untagged = nullptr;
    CacheLine *quiet = nullptr;
    for (unsigned w = 0; w < ways; ++w) {
        CacheLine &cand = base[w];
        if (cand.pinned())
            continue;
        if (!any || lruOlder(cand.lruStamp(), any->lruStamp()))
            any = &cand;
        if (!cand.tagged()) {
            if (!untagged ||
                lruOlder(cand.lruStamp(), untagged->lruStamp())) {
                untagged = &cand;
            }
            if (cand.owner() == kNoCore && cand.sharers() == 0 &&
                (!quiet ||
                 lruOlder(cand.lruStamp(), quiet->lruStamp()))) {
                quiet = &cand;
            }
        }
    }
    if (quiet)
        return quiet;
    if (untagged)
        return untagged;
    return any;
}

CacheLine &
CacheArray::fill(CacheLine &line, Addr addr, CoherenceState state)
{
    simAssert(!line.valid(), _name, ": fill into a valid line");
    addr = lineAlign(addr);
    simAssert(setIndex(addr) ==
                  static_cast<unsigned>((&line - _lines) / _geom.ways),
              _name, ": fill into the wrong set");
    _tags[&line - _lines] = ~addr;
    line.setAddr(addr);
    line.setState(state);
    line.setDirty(false);
    line.clearTag();
    line.setOwner(kNoCore);
    line.setSharers(0);
    touch(line);
    return line;
}

} // namespace persim::cache
