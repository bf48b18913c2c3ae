/**
 * @file
 * One bank of the shared, inclusive, multi-banked last-level cache.
 */

#ifndef PERSIM_CACHE_LLC_BANK_HH
#define PERSIM_CACHE_LLC_BANK_HH

#include <string>
#include <vector>

#include "cache/cache_array.hh"
#include "cache/flat_table.hh"
#include "noc/network_interface.hh"
#include "sim/inline_callback.hh"
#include "persist/flush_engine.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace persim::persist
{
class PersistController;
} // namespace persim::persist

namespace persim::cache
{

enum class WritebackKind; // see l1_cache.hh

/** LLC bank parameters (Table 1: 1MB x 32 tiles, 16-way). */
struct LlcBankConfig
{
    CacheGeometry geometry{1024 * 1024, 16};
    Tick accessLatency = 30;
    /** Bits to strip before set indexing (log2 of the bank count). */
    unsigned setShift = 5;
    /**
     * Backoff before re-scanning for a victim when every way of the
     * target set is pinned by in-flight transactions. The default (8
     * cycles) matches the historical hardcoded value, so figure sweeps
     * are unchanged unless a spec overrides it.
     */
    Tick pinnedRetryInterval = 8;
};

/**
 * One LLC bank: directory home for its address slice, with the epoch-tag
 * extension and a flush engine (§4.1).
 *
 * Requests are serialized per line; each active transaction pins the
 * lines it operates on, so evictions from other transactions cannot
 * interfere. State carried by writebacks updates synchronously (the
 * mesh charges bandwidth), so the directory is always exact and the
 * transaction code only needs to re-validate, never to reconcile races.
 *
 * Per-line request-path state (the transaction queue and the list of
 * requests blocked on a pinned line) lives in one open-addressed
 * FlatAddrMap whose slots hold intrusive list heads into per-bank node
 * pools — no per-request allocation in steady state, and no pointer
 * chasing on the busy-table lookups that dominate the bank's runtime.
 */
class LlcBank : public SimObject
{
  public:
    /** One queued request; front of a line's queue is the active txn. */
    struct Txn
    {
        Addr addr = 0;
        bool isWrite = false;
        CoreId core = kNoCore;
    };

    LlcBank(const std::string &name, EventQueue &eq, noc::Mesh &mesh,
            unsigned nodeId, unsigned x, unsigned y, unsigned bankIdx,
            const LlcBankConfig &cfg, persist::PersistController &pc);

    unsigned nodeId() const { return _ni.nodeId(); }
    unsigned bankIdx() const { return _bankIdx; }

    // ------------------------------------------------------------------
    // Request path (invoked at mesh delivery from an L1)
    // ------------------------------------------------------------------

    /** A load/store request from @p core for @p addr. */
    void handleRequest(Addr addr, bool isWrite, CoreId core);

    /**
     * The active (front-of-queue) transaction for @p addr. Panics with
     * the bank name and address when no transaction is queued — every
     * deferred stage resolves its transaction through here, so a
     * protocol bug surfaces as a diagnosable panic instead of an opaque
     * out-of-range error from a container.
     */
    Txn activeTxnFor(Addr addr) const;

    // ------------------------------------------------------------------
    // Synchronous state transfer from L1s
    // ------------------------------------------------------------------

    /**
     * Accept an L1 writeback / eviction notice for @p addr and update
     * the directory according to @p kind. Persist-tag movement is done
     * by the caller through the PersistController. Dirty-path callers
     * that already resolved the bank line (for the dirty-bit merge)
     * pass it as @p line to skip the second tag probe.
     */
    void acceptWriteback(CoreId fromCore, Addr addr, bool dirty,
                         WritebackKind kind, CacheLine *line = nullptr);

    // ------------------------------------------------------------------
    // Epoch-flush protocol (§4.1)
    // ------------------------------------------------------------------

    /**
     * FlushEpoch(core, epoch) arrived: flush every line this bank holds
     * for that epoch to the memory controllers, collect PersistAcks and
     * send a BankAck to the arbiter.
     */
    void handleFlushEpoch(CoreId core, EpochId epoch);

    /** PersistCMP broadcast (bookkeeping/stats only in this model). */
    void handlePersistCmp(CoreId core, EpochId epoch);

    persist::FlushEngine &flushEngine() { return _flushEngine; }
    CacheLine *find(Addr addr) { return _array.find(addr); }
    CacheArray &array() { return _array; }
    StatGroup &stats() { return _stats; }

    std::uint64_t requests() const { return _requests.value(); }

    /** Lines with a queued transaction (interval-stat sampling). */
    std::size_t busyLines() const { return _busyLineCount; }

    // ------------------------------------------------------------------
    // Test hooks (white-box pin-waiter coverage; not used by the model)
    // ------------------------------------------------------------------

    /** Enqueue a waiter as if @p addr were pinned (tests only). */
    void
    testAddPinWaiter(Addr addr, InlineCallback cb)
    {
        addPinWaiter(lineAlign(addr), std::move(cb));
    }

    /** Drive the unpin/wake path directly (tests only). */
    void testUnpin(Addr addr) { unpin(lineAlign(addr)); }

    /** Number of waiters queued on @p addr (tests only). */
    std::size_t testPinWaiters(Addr addr) const;

  private:
    using TxnPool = NodePool<Txn>;
    using WaiterPool = NodePool<InlineCallback>;

    /**
     * Flat-map slot for one line: FIFO transaction queue plus FIFO
     * pin-waiter list, both as index chains into the bank pools. An
     * entry exists iff at least one of the lists is non-empty.
     */
    struct LineEntry
    {
        ListRef txns;
        ListRef waiters;
        std::uint32_t txnCount = 0;
    };

    /** Outstanding flush-line acks for one (core, epoch). */
    struct FlushJob
    {
        CoreId core = kNoCore;
        EpochId epoch = kNoEpoch;
        std::uint32_t outstanding = 0;
        bool walked = false;
    };

    // Transaction stages; every stage re-reads line state.
    void beginIfIdle(Addr addr);
    void lookupStage(Txn txn);
    void hitPath(Txn txn);
    void resolveConflictStage(Txn txn);
    void proceedStage(Txn txn);
    void grantWrite(Txn txn);
    void grantRead(Txn txn);
    void missPath(Txn txn);
    void fillAndGrant(Txn txn, CacheLine *way);
    void finish(Txn txn);

    /** Evict the (pinned) line at @p vaddr, honouring persist order. */
    void evictVictim(Addr vaddr, InlineCallback cont);

    /** Unpin addr's line if present, and wake pin-waiters. */
    void unpin(Addr addr);

    /** Queue @p cb to re-run once @p addr is unpinned. */
    void addPinWaiter(Addr addr, InlineCallback cb);

    /** Detach and invoke every waiter queued on @p addr (FIFO). */
    void drainPinWaiters(Addr addr);

    /** PersistAck for a flushed line of (core, epoch). */
    void onFlushLineAck(CoreId core, EpochId epoch, Addr addr);
    void maybeBankAck(CoreId core, EpochId epoch);

    FlushJob *findFlushJob(CoreId core, EpochId epoch);

    unsigned _bankIdx;
    LlcBankConfig _cfg;
    persist::PersistController &_pc;
    StatGroup _stats;
    noc::NetworkInterface _ni;
    CacheArray _array;
    persist::FlushEngine _flushEngine;

    /** Per-line request state; see LineEntry. */
    FlatAddrMap<LineEntry> _lines;
    TxnPool _txnPool;
    WaiterPool _waiterPool;
    /** Entries whose transaction queue is non-empty (busyLines()). */
    std::size_t _busyLineCount = 0;

    /**
     * In-flight FlushEpoch jobs. A bank serves at most a handful of
     * epochs at once (maxInflightEpochs x cores reaching this bank), so
     * a linearly scanned flat vector beats a hash table here.
     */
    std::vector<FlushJob> _flushJobs;

    Scalar _requests;
    Scalar _readHits;
    Scalar _writeHits;
    Scalar _missesToMemory;
    Scalar _evictions;
    Scalar _evictionsDirty;
    Scalar _recalls;
    Scalar _invsSent;
    Scalar _flushEpochMsgs;
    Scalar _bankAcksSent;
    Scalar _persistCmpSeen;
    Scalar _linesFlushed;
    Scalar _victimRetries;
    Scalar _pinWaits;
    Scalar _flushSkipsPinned;
};

} // namespace persim::cache

#endif // PERSIM_CACHE_LLC_BANK_HH
