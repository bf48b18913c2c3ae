/**
 * @file
 * Lightweight debug tracing, in the spirit of gem5's DPRINTF, plus the
 * structured observability probes (duration spans and counter samples)
 * behind the Chrome/Perfetto exporter in src/exp.
 *
 * Trace flags are plain strings ("Epoch", "Cache", "Mesh", ...).
 * Enable them with the PERSIM_TRACE environment variable:
 *
 *   PERSIM_TRACE=Epoch,Flush ./examples/quickstart
 *   PERSIM_TRACE=all ./build/tools/persim_sweep --figure 11 --only hash/LB++/
 *
 * Tracing compiles in but is near-free when disabled: every probe
 * (tracef, trace::span, trace::counter) starts with an inlined
 * thread-local load and branch; the message/span is only built when a
 * Recorder is attached to the thread (or, for tracef, a flag is set in
 * the environment). bench_eventqueue's ProbeSite benchmark pins the
 * disabled-path cost.
 */

#ifndef PERSIM_SIM_TRACE_HH
#define PERSIM_SIM_TRACE_HH

#include <string>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace persim
{

namespace trace
{

/** One captured trace event (see Recorder). */
struct Record
{
    Tick tick;
    std::string flag;
    std::string who;
    std::string message;
};

/**
 * One completed duration span on a component track.
 *
 * Spans are recorded at close time, when both endpoints are known:
 * an epoch span opens when the epoch is created in the EpochTable and
 * closes at PersistCMP; an MSHR span covers one busy episode; an NVM
 * write-queue span covers one non-empty residency episode. Overlapping
 * spans on one track are legal (epochs of one core overlap by design —
 * that overlap IS the paper's claim); the exporter splays them onto
 * parallel lanes so Perfetto renders them as overlapping bars.
 */
struct Span
{
    Tick begin;
    Tick end;
    /** Component track, e.g. "persist.arbiter[3]" or "l1[0]". */
    std::string track;
    /** Span label, e.g. "epoch 42". */
    std::string name;
    /** Category; doubles as the trace flag gating the span. */
    std::string cat;
};

/** One sample on a named counter track (rendered as ph:"C"). */
struct Counter
{
    Tick tick;
    /** Counter track name, e.g. "epochsInFlight". */
    std::string track;
    double value;
};

/**
 * In-memory capture of trace events for structured export (e.g. the
 * Chrome-tracing exporter in src/exp).
 *
 * A Recorder is attached to the *current thread*: every simulation runs
 * its event loop on one thread, so a per-thread recorder captures
 * exactly one System's event stream even when a sweep runs many
 * Systems concurrently. While attached, the listed flags are enabled
 * programmatically (no PERSIM_TRACE needed) and events go into
 * records instead of stderr; stderr still gets a copy for flags that
 * PERSIM_TRACE enables.
 */
class Recorder
{
  public:
    /**
     * @param flagsCsv Comma-separated flag list, or "all".
     * @param counterWindow Interval-stat sampling window in ticks; 0
     *        disables the windowed sampler (System::run consults this
     *        through trace::current()).
     */
    explicit Recorder(const std::string &flagsCsv,
                      Tick counterWindow = 0);

    bool wants(const char *flag) const;
    void add(Record r) { _records.push_back(std::move(r)); }

    /** Record a completed span if its category flag is wanted. */
    void
    addSpan(Span s)
    {
        if (wants(s.cat.c_str()))
            _spans.push_back(std::move(s));
    }

    void addCounter(Counter c) { _counters.push_back(std::move(c)); }

    const std::vector<Record> &records() const { return _records; }
    const std::vector<Span> &spans() const { return _spans; }
    const std::vector<Counter> &counters() const { return _counters; }

    Tick counterWindow() const { return _counterWindow; }

  private:
    bool _all = false;
    std::vector<std::string> _flags;
    std::vector<Record> _records;
    std::vector<Span> _spans;
    std::vector<Counter> _counters;
    Tick _counterWindow = 0;
};

namespace detail
{
/** The current thread's recorder; read inline by every probe. */
extern thread_local Recorder *tlRecorder;
/** True when PERSIM_TRACE names at least one flag. */
extern const bool envAny;
/** Slow path of enabled(): consult the PERSIM_TRACE flag set. */
bool envEnabled(const char *flag);
} // namespace detail

/** Attach @p r to the current thread (replacing any previous one). */
void attachRecorder(Recorder *r);

/** Detach the current thread's recorder (no-op when none attached). */
void detachRecorder();

/** The recorder attached to the current thread; nullptr when none. */
inline Recorder *current() { return detail::tlRecorder; }

/**
 * True when a recorder is capturing on this thread. Probe call sites
 * that build span names (string concatenation) must guard on this so
 * the disabled path stays a load-test-branch.
 */
inline bool probing() { return detail::tlRecorder != nullptr; }

/**
 * True when @p flag (or "all") was listed in PERSIM_TRACE, or when the
 * current thread's attached Recorder wants it. The common
 * nothing-enabled case is two inlined tests with no call.
 */
inline bool
enabled(const char *flag)
{
    if (Recorder *r = detail::tlRecorder) {
        if (r->wants(flag))
            return true;
    }
    return detail::envAny && detail::envEnabled(flag);
}

/** Emit one trace line: "<tick>: <flag>: <name>: <message>". */
void emit(const char *flag, Tick when, const std::string &who,
          const std::string &message);

/**
 * Record a completed duration span [begin, end] on @p track.
 * No-op (one inlined branch) unless a recorder is attached.
 */
inline void
span(Tick begin, Tick end, const std::string &track, std::string name,
     const char *cat)
{
    if (Recorder *r = detail::tlRecorder) [[unlikely]]
        r->addSpan(Span{begin, end, track, std::move(name), cat});
}

/** Record one counter sample. No-op unless a recorder is attached. */
inline void
counter(Tick tick, const char *track, double value)
{
    if (Recorder *r = detail::tlRecorder) [[unlikely]]
        r->addCounter(Counter{tick, track, value});
}

} // namespace trace

/**
 * Trace helper for SimObjects (and anything with curTick()/name()).
 *
 * Usage: tracef("Epoch", *this, "epoch ", id, " persisted");
 */
template <typename Obj, typename... Args>
void
tracef(const char *flag, const Obj &obj, const Args &...args)
{
    if (!trace::enabled(flag))
        return;
    trace::emit(flag, obj.curTick(), obj.name(),
                detail::concat(args...));
}

} // namespace persim

#endif // PERSIM_SIM_TRACE_HH
