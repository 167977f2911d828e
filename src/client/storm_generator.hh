/**
 * @file
 * Connection-storm and slow-loris load against a machine's front door.
 *
 * Where LoadGenerator models the paper's persistent-connection services
 * (one Link per connection, provisioned up front), StormGenerator
 * models the other internet: a Poisson stream of *short-lived*
 * connections, each of which must survive the whole host-network front
 * door — ingress queue, SYN queue, accept backlog, retransmit timers —
 * before it can carry its single request. The client-observed
 * connection latency therefore includes everything the front door does
 * to it, which is exactly the signal syscall-level probes never see.
 *
 * An optional slow-loris sub-population opens handshakes it never
 * completes, squatting in the SYN queue until the front door reaps
 * them — backlog pressure with almost zero syscall footprint.
 *
 * Determinism: forks one RNG at construction (after any LoadGenerator,
 * by the harness construction-order contract) and draws from it for
 * arrivals and the loris coin only.
 */

#ifndef REQOBS_CLIENT_STORM_GENERATOR_HH
#define REQOBS_CLIENT_STORM_GENERATOR_HH

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "net/frontdoor.hh"
#include "net/link.hh"
#include "sim/distributions.hh"
#include "sim/simulation.hh"
#include "stats/histogram.hh"

namespace reqobs::client {

/** Storm parameters for one run. */
struct StormConfig
{
    double connRps = 1000.0;       ///< open-loop new-connection rate
    unsigned listener = 0;         ///< front-door listener to hammer
    std::uint32_t requestBytes = 128;
    sim::Tick warmup = sim::milliseconds(200); ///< discard early latencies
    /** Fraction of connections that are slow-loris (never complete). */
    double lorisFraction = 0.0;
    /** How long a loris squats half-open before the reaper gets it. */
    sim::Tick lorisHold = sim::milliseconds(500);
};

/** See file comment. */
class StormGenerator
{
  public:
    StormGenerator(sim::Simulation &sim, net::FrontDoor &door,
                   const net::NetemConfig &netem, const net::TcpConfig &tcp,
                   const StormConfig &config);

    StormGenerator(const StormGenerator &) = delete;
    StormGenerator &operator=(const StormGenerator &) = delete;

    /** Begin opening connections. */
    void start();

    /** Stop opening new connections (in-flight ones still resolve). */
    void stop();

    /** @name Results. @{ */
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t established() const { return established_; }
    std::uint64_t failed() const { return failed_; }
    std::uint64_t responses() const { return responses_; }
    std::uint64_t lorisOpened() const { return lorisOpened_; }

    /**
     * Client-observed connection completion latency (first SYN ->
     * response received), ns, post-warmup. Retransmit backoff, backlog
     * waits and accept delay all land here.
     */
    const stats::LatencyHistogram &connLatencies() const
    {
        return latencies_;
    }

    const StormConfig &config() const { return config_; }
    /** @} */

  private:
    struct Conn
    {
        sim::Tick synAt = 0;
        /** Erased mid-run when the connection ends; its TcpPipes drop
         *  their own in-flight deliveries (DESIGN.md §16). */
        std::unique_ptr<net::Link> link;
    };

    sim::Simulation &sim_;
    net::FrontDoor &door_;
    net::NetemConfig netem_;
    net::TcpConfig tcp_;
    StormConfig config_;
    sim::Rng rng_;
    std::unique_ptr<sim::ExponentialDist> interArrival_;

    std::uint64_t attempted_ = 0;
    std::uint64_t established_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t responses_ = 0;
    std::uint64_t lorisOpened_ = 0;
    bool running_ = false;
    sim::Tick measureStart_ = 0;

    std::uint64_t nextKey_ = 1;
    std::unordered_map<std::uint64_t, Conn> live_;
    stats::LatencyHistogram latencies_;

    void scheduleNextConn();
    void openConn();
};

} // namespace reqobs::client

#endif // REQOBS_CLIENT_STORM_GENERATOR_HH
