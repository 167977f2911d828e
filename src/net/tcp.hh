/**
 * @file
 * Simplified TCP transport for one direction of one connection.
 *
 * What matters for the paper's experiments is TCP's *loss recovery
 * timing*: a dropped segment is recovered by retransmission after an RTO
 * (Linux floor: 200 ms) with exponential backoff, and in-order delivery
 * means every segment behind it is head-of-line blocked. That is the
 * mechanism by which 1% loss wrecks client-observed tail latency (Fig. 5)
 * while the server's syscall timing stays unchanged.
 *
 * Each application Message is one segment (requests/responses here are
 * small). The fate of all (re)transmissions is sampled at send time from
 * the netem qdisc — equivalent timing to event-driven retransmission,
 * at a fraction of the event cost.
 */

#ifndef REQOBS_NET_TCP_HH
#define REQOBS_NET_TCP_HH

#include <cstdint>
#include <functional>
#include <memory>

#include "fault/fault.hh"
#include "kernel/types.hh"
#include "net/netem.hh"
#include "sim/simulation.hh"

namespace reqobs::net {

/** Transport tunables (Linux-flavoured defaults). */
struct TcpConfig
{
    /** Minimum retransmission timeout (Linux: 200 ms). */
    sim::Tick minRto = sim::milliseconds(200);
    /** RTO backoff ceiling per segment (number of doublings). */
    unsigned maxRetries = 8;
    /** Serialisation rate in bytes per microsecond (10 Gb/s ~ 1250). */
    double bytesPerUs = 1250.0;
    /**
     * Floor for the RTT estimate used by fast retransmit, which is always
     * modelled: when the connection carried another segment within ~1 RTT
     * of the drop, duplicate ACKs recover the loss in about one extra
     * round trip instead of an RTO. Sparse connections (nothing in flight
     * to generate dup-ACKs) always pay the RTO — which is why low-rate
     * services like Triton suffer the Fig. 5 tail blow-up while
     * memcached-style firehoses barely notice.
     */
    sim::Tick minRttEstimate = sim::milliseconds(1);
};

/**
 * Exponential-backoff retransmission timeout for 0-based attempt @p
 * attempt: minRto doubled once per prior attempt, capped at maxRetries
 * doublings. This is the one RTO schedule in the stack — TcpPipe's
 * in-flow loss recovery and the front door's SYN retransmit timers
 * (net/frontdoor) both derive their waits from it, so a dropped SYN
 * backs off exactly like a dropped data segment.
 */
inline sim::Tick
synRetransmitTimeout(const TcpConfig &tcp, unsigned attempt)
{
    const unsigned capped =
        attempt < tcp.maxRetries ? attempt : tcp.maxRetries;
    return tcp.minRto << capped;
}

/**
 * One direction of a TCP connection: accepts messages, applies netem
 * verdicts and retransmission delays, enforces in-order delivery, and
 * hands messages to the receiver's deliver function.
 */
class TcpPipe
{
  public:
    using DeliverFn = std::function<void(kernel::Message &&)>;

    /**
     * @param fault Optional injector; when set, segments sent while its
     *              link-flap schedule holds the link down are delayed
     *              until the link returns (modelled as extra RTO wait).
     */
    TcpPipe(sim::Simulation &sim, const NetemConfig &netem,
            const TcpConfig &tcp, sim::Rng rng, DeliverFn deliver,
            fault::FaultInjector *fault = nullptr);

    ~TcpPipe() { *alive_ = false; }

    TcpPipe(const TcpPipe &) = delete;
    TcpPipe &operator=(const TcpPipe &) = delete;

    /** Transmit one message; delivery is scheduled on the event queue. */
    void send(kernel::Message &&msg);

    /** @name Counters. @{ */
    std::uint64_t segmentsSent() const { return sent_; }
    std::uint64_t retransmissions() const { return retx_; }
    std::uint64_t fastRetransmissions() const { return fastRetx_; }
    std::uint64_t delivered() const { return delivered_; }
    /** @} */

    const NetemQdisc &qdisc() const { return qdisc_; }

  private:
    sim::Simulation &sim_;
    NetemQdisc qdisc_;
    TcpConfig tcp_;
    DeliverFn deliver_;
    fault::FaultInjector *fault_ = nullptr;
    sim::Tick lastArrival_ = 0; ///< in-order delivery horizon
    sim::Tick lastSend_ = -1;   ///< previous segment's send time
    sim::Tick rttEstimate_ = 0;
    std::uint64_t sent_ = 0;
    std::uint64_t retx_ = 0;
    std::uint64_t fastRetx_ = 0;
    std::uint64_t delivered_ = 0;
    /**
     * Drops in-flight deliveries once the pipe is gone: a storm
     * connection's pipes die mid-run, and this flag is cheaper than
     * keeping every delivery's EventId to cancel (DESIGN.md §16).
     */
    std::shared_ptr<bool> alive_;
};

} // namespace reqobs::net

#endif // REQOBS_NET_TCP_HH
