/**
 * @file
 * Admission control in front of the CellRegistry: a bounded FIFO of
 * requests waiting for a simulation slot, per-connection in-flight
 * caps, queue-deadline eviction, and a brownout mode that keeps
 * answering already-computed cells while fresh work is shed.
 *
 * Why a queue at all: the registry and driver will happily accept any
 * number of concurrent requests — they just contend for the same
 * worker pool, so under overload *every* request gets slow and every
 * deadline blows.  Admission keeps at most maxActive requests
 * resolving; the next queueDepth wait their turn FIFO; everything
 * beyond that is shed immediately with a typed Overloaded error
 * carrying a retryAfterMs hint derived from the observed request
 * latency, so well-behaved clients come back exactly when a slot is
 * likely to free instead of hammering the accept loop.
 *
 * Queue-deadline eviction: a request whose remaining budget cannot
 * survive its estimated queue wait (position x the request-latency
 * EWMA) is shed *immediately* — better an instant "come back in N ms"
 * than a guaranteed Deadline after burning a queue slot.
 *
 * Brownout: when the queue is saturated, a request whose cells are
 * all durable (driver cache, quarantine, or persistent store —
 * ExperimentDriver::cellDurable()) bypasses the queue entirely: it
 * needs no simulation slot, only a cache read, so shedding it would
 * throw away free goodput.  Brownout admits do not consume active
 * slots; they are bounded by the per-connection cap alone.
 *
 * Every admitted request must be released exactly once (pass the
 * decision back to release(), which also records the service time in
 * the EWMA).  The controller is thread-safe.
 */

#ifndef DDSC_SERVE_ADMISSION_HH
#define DDSC_SERVE_ADMISSION_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>

namespace ddsc::serve
{

struct AdmissionOptions
{
    /** Requests resolving concurrently before queueing starts.  The
     *  default matches the server's default session cap, so a server
     *  that never overcommits its sessions never queues either. */
    std::size_t maxActive = 8;
    /** Requests waiting FIFO beyond that; the rest shed. */
    std::size_t queueDepth = 16;
    /** In-flight requests per connection (0 = uncapped).  A client
     *  pipelining past this is shed before it can monopolize the
     *  active slots. */
    std::size_t perConnInflight = 4;
    /** Answer durable-cell requests from cache when the queue is
     *  saturated instead of shedding them. */
    bool brownout = true;

    bool operator==(const AdmissionOptions &) const = default;
};

/** What admit() decided.  Pass back to release() verbatim. */
struct AdmissionDecision
{
    bool admitted = false;
    /** Admitted through the brownout bypass: consumed no active slot
     *  (the request is expected to be answered from cache). */
    bool viaBrownout = false;
    /** When shed: how long the client should wait before retrying,
     *  from the request-latency EWMA and current queue depth. */
    std::uint64_t retryAfterMs = 0;
    std::string reason;         ///< human-readable shed reason
};

class AdmissionController
{
  public:
    explicit AdmissionController(const AdmissionOptions &opts)
        : opts_(opts)
    {
    }

    /**
     * Ask to run one request.  May block (FIFO) until a slot frees,
     * bounded by @p budget_ms when nonzero.  @p cached: every cell
     * the request needs is durable (brownout eligibility).  Sheds —
     * decision.admitted == false — when the connection is over its
     * in-flight cap, the queue is full, the budget cannot survive the
     * estimated queue wait, or the budget expires while queued.
     */
    AdmissionDecision admit(std::uint64_t conn_id,
                            std::uint64_t budget_ms, bool cached);

    /** Release an *admitted* request, feeding @p service_ms (its
     *  observed wall time; 0 = don't record) into the latency EWMA
     *  that prices queue waits and retry hints. */
    void release(std::uint64_t conn_id, const AdmissionDecision &d,
                 std::uint64_t service_ms);

    /** The hint a shed issued right now would carry — the server's
     *  accept-loop session shed reuses it so connection-level and
     *  request-level sheds price the retry the same way. */
    std::uint64_t retryHintMs() const;

    std::uint64_t shedTotal() const;        ///< requests shed
    std::uint64_t brownoutServed() const;   ///< brownout admissions
    std::uint64_t queueEvictions() const;   ///< shed for budget < wait
    std::size_t activeCount() const;
    std::size_t queueLength() const;

  private:
    /** Estimated wait at queue position @p pos (0 = next), ms. */
    std::uint64_t estimatedWaitLocked(std::size_t pos) const;
    AdmissionDecision shedLocked(const std::string &reason);

    AdmissionOptions opts_;
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<std::uint64_t> queue_;       ///< waiting tickets, FIFO
    std::map<std::uint64_t, std::size_t> connInflight_;
    std::uint64_t nextTicket_ = 1;
    std::size_t active_ = 0;
    double ewmaMs_ = 0.0;                   ///< request service time
    std::uint64_t shedTotal_ = 0;
    std::uint64_t brownoutServed_ = 0;
    std::uint64_t queueEvictions_ = 0;
};

} // namespace ddsc::serve

#endif // DDSC_SERVE_ADMISSION_HH
