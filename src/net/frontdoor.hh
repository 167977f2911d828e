/**
 * @file
 * The host-stack front door: everything a connection traverses between
 * "SYN hits the NIC" and "accept(2) returns in userspace".
 *
 * The paper's request-level metrics all start from syscalls, but a
 * connection storm does its damage *before* the first syscall: SYNs
 * queue at the NIC, overflow the listen backlog, and retransmit with
 * exponential backoff — all invisible to sys_enter/sys_exit probes.
 * This layer makes that path first-class and observable:
 *
 *   client SYN
 *     -> shared ingress queue   (bounded; single-server drain; drops
 *        fire the client's retransmit timer)      [net_rx_enqueue]
 *     -> per-listener SYN queue (half-open for one handshake RTT;
 *        slow-loris conns squat here until reaped)
 *     -> accept backlog         (bounded; overflow drops)
 *     -> acceptor's accept(2)   (a real syscall in the owning tenant's
 *        process, so per-tgid attribution holds)  [sock_accept]
 *
 * Every drop anywhere on the path re-arms the client's SYN retransmit
 * timer on the shared TCP backoff schedule (synRetransmitTimeout), and
 * each retransmission fires [tcp_retransmit]. The three bracketed
 * tracepoints use the RawSyscallEvent ctx ABI (flow id in @c syscall,
 * owning tenant's tgid in the high half of @c pidTgid), so eBPF probes
 * can measure front-door latency = sock_accept ts − net_rx_enqueue ts
 * per flow, attributed per tenant (see ebpf/probes.hh FrontDoor probes).
 *
 * Graceful degradation hook: a per-listener accept budget (token
 * bucket), the FleetController's storm actuator; over-budget SYNs are
 * dropped before they consume backlog slots or accept/serve CPU.
 *
 * Determinism: the front door is strictly opt-in and draws no random
 * numbers of its own; the only stochastic decisions (injected segment
 * drops, forced backlog overflows, the SYN-flood source) come from the
 * FaultInjector's stream, gated on their knobs. A config with the door
 * disabled constructs nothing and perturbs nothing.
 */

#ifndef REQOBS_NET_FRONTDOOR_HH
#define REQOBS_NET_FRONTDOOR_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "fault/fault.hh"
#include "kernel/kernel.hh"
#include "net/tcp.hh"
#include "sim/simulation.hh"
#include "stats/histogram.hh"

namespace reqobs::net {

/** Per-listener tunables (one listener per front-door tenant). */
struct ListenerConfig
{
    /** Half-open (SYN) queue capacity. */
    unsigned synQueueDepth = 256;
    /** Accept backlog capacity (the listen(2) backlog / somaxconn). */
    unsigned acceptBacklog = 128;
    /** Client handshake round trip spent half-open before admission. */
    sim::Tick handshakeRtt = sim::microseconds(200);
    /** Acceptor CPU demand per served request (0 = echo only). */
    sim::Tick serviceDemand = sim::microseconds(40);
    /** Response payload size. */
    std::uint32_t responseBytes = 256;
};

/** Machine-level front-door tunables. */
struct FrontDoorConfig
{
    /** Shared NIC/qdisc ingress queue capacity (all listeners). */
    unsigned ingressQueueDepth = 512;
    /**
     * Ingress service time: the single-server drain rate of the shared
     * queue (softirq budget). Arrivals beyond 1/ingressLatency pile up
     * and eventually drop — the NIC-level collapse mode.
     */
    sim::Tick ingressLatency = sim::microseconds(2);
    /** Backoff schedule for dropped SYNs (synRetransmitTimeout). */
    TcpConfig tcp;
    /** SYN retransmissions before the client gives up (tcp_syn_retries). */
    unsigned maxSynRetries = 6;
};

/** Cumulative per-listener (and summed door-level) drop accounting. */
struct FrontDoorCounts
{
    std::uint64_t syns = 0;             ///< SYN transmissions seen at ingress
    std::uint64_t ingressDrops = 0;     ///< shared ingress queue full
    std::uint64_t synQueueOverflows = 0;///< half-open queue full
    std::uint64_t backlogOverflows = 0; ///< accept backlog full (or injected)
    std::uint64_t budgetDrops = 0;      ///< accept-budget actuator drops
    std::uint64_t retransmits = 0;      ///< SYN retransmissions fired
    std::uint64_t accepted = 0;         ///< conns handed to userspace
    std::uint64_t failed = 0;           ///< gave up after maxSynRetries
    std::uint64_t lorisReaped = 0;      ///< abandoned half-open conns reaped
    std::uint64_t floodSyns = 0;        ///< injected SYN-flood arrivals

    FrontDoorCounts &operator+=(const FrontDoorCounts &o);

    /** Drops on the admission path (everything that re-arms a timer). */
    std::uint64_t drops() const
    {
        return ingressDrops + synQueueOverflows + backlogOverflows +
               budgetDrops;
    }
};

/** Client-side options for one connection attempt. */
struct ConnectOptions
{
    /**
     * Handshake done and accept(2) returned: the server-side socket is
     * live, wire a Link to it and talk. Runs from the acceptor's
     * coroutine context via the event queue.
     */
    std::function<void(std::shared_ptr<kernel::Socket>)> onEstablished;
    /** All retransmissions exhausted; the connection never happened. */
    std::function<void()> onFailed;
    /**
     * Slow-loris: hold the half-open slot this much longer than the
     * handshake RTT, then abandon (reaped, no callbacks). Models
     * clients that never complete the handshake.
     */
    sim::Tick holdHandshake = 0;
    bool abandon = false;
};

/** See file comment. */
class FrontDoor
{
  public:
    FrontDoor(kernel::Kernel &kernel, const FrontDoorConfig &config);

    FrontDoor(const FrontDoor &) = delete;
    FrontDoor &operator=(const FrontDoor &) = delete;

    /**
     * Add a listener owned by process @p pid: its acceptor thread (and
     * therefore every accept/recv/send the front door performs) runs
     * under that tgid. @return listener index. @pre !started.
     */
    unsigned addListener(kernel::Pid pid, const ListenerConfig &config);

    /**
     * Spawn the acceptor threads and, when the kernel's fault injector
     * arms synFloodRate, the flood source. Call after the kernel's
     * injector is installed (Machine::start does).
     */
    void start();

    /**
     * Client entry point: begin the handshake toward @p listener.
     * @return the flow id (the probe's hash key).
     */
    std::uint64_t connect(unsigned listener, ConnectOptions opts);

    /**
     * @name Accept-budget actuator (FleetController).
     * @p conns_per_sec caps the listener's SYN admission rate with a
     * 100 ms-burst token bucket; 0 restores unlimited. Purely
     * time-driven — no RNG, no periodic events.
     * @{
     */
    void setAcceptBudget(unsigned listener, double conns_per_sec);
    double acceptBudget(unsigned listener) const;
    /** @} */

    /** @name Introspection. @{ */
    std::size_t listenerCount() const { return listeners_.size(); }
    kernel::Pid listenerPid(unsigned listener) const;
    const FrontDoorCounts &counts(unsigned listener) const;
    FrontDoorCounts totals() const;
    /** Front-door latency (ingress -> accept) per listener, ns. */
    const stats::LatencyHistogram &acceptLatencies(unsigned listener) const;
    /** Current accept-backlog occupancy. */
    std::size_t backlogDepth(unsigned listener) const;
    /** Current half-open (SYN queue) occupancy. */
    std::size_t halfOpenCount(unsigned listener) const;
    /** Current shared ingress queue occupancy. */
    std::size_t ingressDepth() const { return ingressQueued_; }
    const FrontDoorConfig &config() const { return config_; }
    /** @} */

    /**
     * Socket connection-id namespace for front-door flows (keeps them
     * disjoint from harness-assigned persistent-connection ids).
     */
    static constexpr std::uint64_t kConnIdBase = 1ull << 40;

  private:
    struct Flow
    {
        std::uint64_t id = 0;
        unsigned listener = 0;
        ConnectOptions opts;
        unsigned attempts = 0;    ///< SYN transmissions so far
        sim::Tick ingressTs = 0;  ///< latest successful ingress enqueue
    };

    struct Listener
    {
        kernel::Pid pid = 0;
        ListenerConfig config;
        kernel::Fd listenFd = -1; ///< bound by the acceptor at startup
        std::size_t halfOpen = 0;
        std::size_t backlog = 0;
        FrontDoorCounts counts;
        stats::LatencyHistogram acceptLatency;
        /** conn id -> flow id for flows sitting in the accept backlog. */
        std::unordered_map<std::uint64_t, std::uint64_t> pendingByConn;
        /** Token bucket; < 0 rate = unlimited. */
        double budgetRate = 0.0;
        double budgetTokens = 0.0;
        sim::Tick budgetLast = 0;
    };

    kernel::Kernel &kernel_;
    sim::Simulation &sim_;
    FrontDoorConfig config_;
    std::vector<std::unique_ptr<Listener>> listeners_;
    std::unordered_map<std::uint64_t, Flow> flows_;
    std::uint64_t nextFlow_ = 1;
    std::size_t ingressQueued_ = 0;
    sim::Tick ingressBusyUntil_ = 0; ///< single-server drain horizon
    bool started_ = false;

    void attemptSyn(std::uint64_t flow_id);
    void processSyn(std::uint64_t flow_id);
    void completeHandshake(std::uint64_t flow_id);
    void dropAndRearm(std::uint64_t flow_id);
    bool budgetAdmit(Listener &l);
    void scheduleFlood();
    void onAccepted(unsigned listener, std::shared_ptr<kernel::Socket> sock);
    void fireTracepoint(kernel::TracepointId point, std::uint64_t flow_id,
                        kernel::Pid pid);
    kernel::Task acceptorBody(kernel::Kernel &k, kernel::Tid tid,
                              unsigned listener);
};

} // namespace reqobs::net

#endif // REQOBS_NET_FRONTDOOR_HH
