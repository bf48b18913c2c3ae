/**
 * @file
 * Process isolation for sweep jobs.
 *
 * Exceptions cover misconfiguration; they do not cover a segfault, an
 * abort(), or the OOM killer. With RunnerOptions::isolate each job
 * attempt forks into a sandbox child that runs it through runJob and
 * streams its JobOutcome back over a pipe as one compact JSON
 * document (the same wire format the journal uses), then _exit()s
 * without running static destructors. The parent reads to EOF, reaps
 * the child, and classifies the result:
 *
 *   - document delivered  -> the child's outcome, verbatim (its sweep
 *     JSON is byte-identical to an in-process run);
 *   - killed by a signal  -> failed outcome naming the signal
 *     ("signal: SIGSEGV"); the watchdog's SIGKILL is reported as
 *     "timeout" by the runner, which knows it armed the kill;
 *   - exited without a document -> failed outcome naming the status.
 *
 * runJobSandboxed is one attempt; retry, backoff and the deadline
 * stay in SweepRunner::run's attempt loop in the parent.
 *
 * The child inherits PERSIM_FAULT, so injected segv/abort/hang faults
 * land inside the sandbox — which is exactly how CI proves a crash
 * costs one cell, not the sweep.
 */

#ifndef PERSIM_EXP_SANDBOX_HH
#define PERSIM_EXP_SANDBOX_HH

#include <atomic>
#include <cstddef>

#include "exp/runner.hh"
#include "exp/spec.hh"

namespace persim::exp
{

/**
 * Run one attempt of @p spec in a forked child; the outcome is failed
 * when the child's runJob failed or the child died without a result.
 *
 * @param gridIndex Grid index, forwarded for PERSIM_FAULT injection.
 * @param childPid  Published (> 0) while the child is alive so the
 *                  watchdog can SIGKILL an over-deadline job; reset
 *                  to 0 before returning. May be nullptr.
 */
JobOutcome runJobSandboxed(const ExperimentSpec &spec,
                           std::size_t gridIndex,
                           std::atomic<int> *childPid);

/** Stable name for a signal number: "SIGSEGV", else "SIG<n>". */
const char *signalName(int sig);

} // namespace persim::exp

#endif // PERSIM_EXP_SANDBOX_HH
