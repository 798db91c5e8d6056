/**
 * @file
 * Cooperative SIGINT/SIGTERM handling.
 *
 * A raw Ctrl-C kills a sweep wherever it happens to be — possibly in
 * the middle of a result-store fwrite, leaving a torn record for the
 * recovery path to discard.  installShutdownHandler() replaces the
 * default disposition with a handler that only sets a flag (and writes
 * one byte to a self-pipe so pollers wake); the interesting work all
 * happens at well-defined *checkpoints* on normal control flow:
 *
 *  - ExperimentDriver workers skip not-yet-started cells when the
 *    driver was marked interruptible, so prefetch() returns promptly
 *    with every finished cell already flushed to the attached store.
 *  - ddsc-matrix / ddsc-sim notice the flag after their sweep, report
 *    what was checkpointed, and exit 128+signo.
 *  - ddsc-served uses the pollable fd to leave its accept loop and
 *    drain: finish in-flight cells, flush the store, refuse new
 *    connections.
 *
 * Everything the handler itself does is async-signal-safe (a store to
 * a lock-free atomic and a write() to a pipe).  requestShutdown() sets
 * the same flag from normal code, which is what the tests use to make
 * interruption deterministic.
 */

#ifndef DDSC_SUPPORT_SHUTDOWN_HH
#define DDSC_SUPPORT_SHUTDOWN_HH

namespace ddsc::support
{

/**
 * Install the SIGINT/SIGTERM handler (idempotent).  Must be called
 * from the main thread before any worker threads exist for the
 * classic-unix signal semantics to be predictable.
 */
void installShutdownHandler();

/** True once a shutdown signal arrived (or requestShutdown() ran). */
bool shutdownRequested();

/** The signal that triggered shutdown (0 when none, or when it was
 *  requestShutdown()). */
int shutdownSignal();

/**
 * Readable end of the self-pipe: becomes readable when shutdown is
 * requested, so event loops can poll() it alongside their sockets.
 * Valid after installShutdownHandler(); -1 before.
 */
int shutdownFd();

/** Trip the flag from normal code (tests, programmatic drain). */
void requestShutdown();

/** Reset the flag (tests only; not signal-safe). */
void resetShutdownForTest();

} // namespace ddsc::support

#endif // DDSC_SUPPORT_SHUTDOWN_HH
