/**
 * @file
 * Set-associative tag array with pluggable victim selection.
 */

#ifndef PERSIM_CACHE_CACHE_ARRAY_HH
#define PERSIM_CACHE_CACHE_ARRAY_HH

#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <vector>

#include "cache/cache_line.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace persim::cache
{

/** Victim-selection policy. */
enum class ReplacementPolicy
{
    Lru,
    Random,
};

/** Geometry of one cache (sizes in bytes; Table 1 defaults are set by
 * SystemConfig). */
struct CacheGeometry
{
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned ways = 4;
    ReplacementPolicy policy = ReplacementPolicy::Lru;

    unsigned sets() const
    {
        return static_cast<unsigned>(sizeBytes / (ways * kLineBytes));
    }
};

/**
 * A set-associative array of CacheLine metadata with LRU replacement.
 *
 * The array indexes by line address. Victim selection is LRU, optionally
 * preferring lines without a persist tag (so demand misses avoid
 * triggering epoch flushes when an untagged victim exists; see DESIGN.md
 * §2.2, replacement conflicts).
 *
 * The tag array is built eagerly, but the CacheLine records are raw
 * memory until their set takes its first fill: victimFor() constructs
 * a set's ways the first time it picks from that set. A simulated run
 * touches only the sets it fills, so building a 32-core machine no
 * longer writes its 16 MB of LLC line records up front. No other
 * access needs a check: find() matches only tags that fill() wrote,
 * and forEachValid() skips unbuilt sets.
 */
class CacheArray
{
  public:
    /**
     * @param name Instance name for diagnostics.
     * @param geom Size and associativity; sizeBytes must be a multiple of
     *             ways * 64 and sets a power of two.
     * @param setShift Right-shift applied to the line number before set
     *                 indexing; LLC banks use this to strip the bank-select
     *                 bits so each bank indexes its own address slice.
     */
    CacheArray(std::string name, const CacheGeometry &geom,
               unsigned setShift = 0);

    /** Find the line holding @p addr, or nullptr. Does not touch LRU.
     *
     * Hot path: the scan runs over the compact per-set tag array (8
     * bytes per way, one or two host cache lines per set) rather than
     * striding through the full CacheLine records. */
    CacheLine *
    find(Addr addr)
    {
        addr = lineAlign(addr);
        const std::size_t base =
            static_cast<std::size_t>(setIndex(addr)) * _geom.ways;
        const Addr *tags = &_tags[base];
        for (unsigned w = 0; w < _geom.ways; ++w) {
            if (tags[w] == addr)
                return _lines.get() + base + w;
        }
        return nullptr;
    }

    const CacheLine *
    find(Addr addr) const
    {
        return const_cast<CacheArray *>(this)->find(addr);
    }

    /**
     * Host-side hint: pull @p addr's set (tags and first metadata
     * records) toward the host caches ahead of a find()/victimFor()
     * that runs a few events later. Purely a performance hint — no
     * simulated effect whatsoever.
     */
    void
    prefetchSet(Addr addr)
    {
        const std::size_t base =
            static_cast<std::size_t>(setIndex(lineAlign(addr))) *
            _geom.ways;
        __builtin_prefetch(&_tags[base]);
        __builtin_prefetch(_lines.get() + base);
    }

    /** Mark @p line most recently used. */
    void touch(CacheLine &line);

    /**
     * Invalidate @p line (which must belong to this array), keeping the
     * tag array in sync. All valid→invalid transitions of array-resident
     * lines must go through here, not CacheLine::invalidate().
     */
    void
    invalidate(CacheLine &line)
    {
        _tags[static_cast<std::size_t>(&line - _lines.get())] = kNoLine;
        line.invalidate();
    }

    /**
     * Pick a victim way for filling @p addr.
     *
     * Pinned lines are never candidates. Preference order: an invalid
     * way; then (when @p avoidTagged) the least-eligible line among
     * untagged lines with no L1 copies; then among untagged lines; then
     * any line. "Least eligible" is LRU under the Lru policy and a
     * uniformly random candidate under Random. The returned line is NOT
     * modified; the caller evicts and refills. The first call for a set
     * constructs that set's (invalid) lines.
     *
     * @return nullptr when every way is pinned.
     */
    CacheLine *victimFor(Addr addr, bool avoidTagged);

    /**
     * Install @p addr into @p line (which the caller already evicted).
     * Resets metadata, sets the address and state, and touches LRU.
     */
    CacheLine &fill(CacheLine &line, Addr addr, CoherenceState state);

    unsigned sets() const { return _sets; }
    unsigned ways() const { return _geom.ways; }

    /** Iterate over every valid line (diagnostics and invariant checks). */
    template <typename Fn>
    void
    forEachValid(Fn &&fn)
    {
        for (unsigned set = 0; set < _sets; ++set) {
            if (!built(set))
                continue;
            CacheLine *base = setBase(set);
            for (unsigned w = 0; w < _geom.ways; ++w) {
                if (base[w].valid())
                    fn(base[w]);
            }
        }
    }

    /** Index of the set @p addr maps to (exposed for tests). */
    unsigned setIndex(Addr addr) const
    {
        return static_cast<unsigned>((lineNum(addr) >> _setShift) &
                                     (_sets - 1));
    }

  private:
    /** Tag-array sentinel for an invalid way (never a line-aligned addr). */
    static constexpr Addr kNoLine = ~static_cast<Addr>(0);

    /** Frees the raw record storage; the records themselves are
     * trivially destructible, so nothing else runs. */
    struct RawFree
    {
        void operator()(CacheLine *p) const noexcept
        {
            ::operator delete(static_cast<void *>(p));
        }
    };
    static_assert(std::is_trivially_destructible_v<CacheLine>,
                  "CacheArray never destroys its lines");

    CacheLine *
    setBase(unsigned set)
    {
        return _lines.get() + static_cast<std::size_t>(set) * _geom.ways;
    }

    /** True once @p set's lines are constructed. */
    bool
    built(unsigned set) const
    {
        return (_built[set >> 6] >> (set & 63)) & 1;
    }

    /** Construct @p set's lines (all invalid) on its first fill. */
    void buildSet(unsigned set);

    std::string _name;
    CacheGeometry _geom;
    unsigned _setShift;
    unsigned _sets;
    /** sets x ways records, constructed one set at a time (buildSet). */
    std::unique_ptr<CacheLine, RawFree> _lines;
    /** One bit per set: its lines are constructed. */
    std::vector<std::uint64_t> _built;
    /** Parallel to _lines: the line address of each valid way, kNoLine
     * otherwise. find() scans this instead of the metadata records. */
    std::vector<Addr> _tags;
    /** Wrapping 32-bit LRU clock; victimFor compares stamps with a
     * wrap-aware signed difference, so wraparound (once per ~4G touches)
     * never inverts the recency order within a set. */
    std::uint32_t _lruClock = 0;
    Rng _rng{0xC0FFEE};
};

} // namespace persim::cache

#endif // PERSIM_CACHE_CACHE_ARRAY_HH
