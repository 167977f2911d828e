/**
 * @file
 * Open-loop load generation for one tenant across a fleet of machines.
 *
 * One FleetLoadGenerator models a tenant's whole client population: a
 * single Poisson arrival process at the tenant's aggregate rate, with
 * each request routed to a backend machine by a net::LoadBalancer and
 * then to one of that machine's connections round-robin. Every
 * connection is an ordinary net::Link (netem + TCP), so per-connection
 * transport dynamics are identical to the single-machine
 * client::LoadGenerator — only the balancer decides placement.
 *
 * Latency/QoS accounting matches LoadGenerator: post-warmup end-to-end
 * latencies, achieved RPS over the arrival interval, per-backend
 * completion counts for machine-level ground truth.
 */

#ifndef REQOBS_CLIENT_FLEET_GENERATOR_HH
#define REQOBS_CLIENT_FLEET_GENERATOR_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "client/load_generator.hh"
#include "net/link.hh"
#include "net/load_balancer.hh"
#include "sim/distributions.hh"
#include "sim/simulation.hh"
#include "stats/histogram.hh"
#include "workload/server_app.hh"

namespace reqobs::client {

/** See file comment. */
class FleetLoadGenerator
{
  public:
    /**
     * Provisions links to every backend's connections (apps must not be
     * started yet). @p backends is one ServerApp per machine — the same
     * tenant co-located across the fleet.
     */
    FleetLoadGenerator(sim::Simulation &sim,
                       std::vector<workload::ServerApp *> backends,
                       const net::NetemConfig &netem,
                       const net::TcpConfig &tcp, const ClientConfig &config,
                       net::LbPolicy policy);

    ~FleetLoadGenerator();

    FleetLoadGenerator(const FleetLoadGenerator &) = delete;
    FleetLoadGenerator &operator=(const FleetLoadGenerator &) = delete;

    void start();
    void stop();

    /** Re-rate the Poisson arrival process (diurnal/flash profiles). */
    void setOfferedRps(double rps);

    /**
     * Admission control (the controller's shed actuator): each new
     * arrival (and each retry) is rejected with probability @p shed,
     * and rejected attempts retry after @p retry_after with capped
     * exponential backoff (doubling per attempt, bounded by
     * retryBackoffCap); a request out of retries is dropped and counted
     * in shedDropped(). Pass shed = 0 to disengage. While disengaged no
     * RNG is drawn, so runs that never enable shedding are bit-identical
     * to builds without this mechanism.
     */
    void setAdmission(double shed, sim::Tick retry_after);

    double shedProbability() const { return shedProb_; }

    /** @name Results (fleet-wide unless noted). @{ */
    std::uint64_t sent() const { return sent_; }
    /** Logical requests generated (== sent() without shedding). */
    std::uint64_t arrivals() const { return arrivals_; }
    /** Admission rejections (attempts, not unique requests). */
    std::uint64_t shedded() const { return shedded_; }
    /** Requests abandoned after exhausting shed retries. */
    std::uint64_t shedDropped() const { return shedDropped_; }
    std::uint64_t completed() const { return completed_; }
    const stats::LatencyHistogram &latencies() const { return latencies_; }
    double achievedRps() const;
    bool qosViolated() const;

    /** Post-warmup completions landed on @p backend. */
    std::uint64_t backendCompleted(std::size_t backend) const
    {
        return backendCompleted_[backend];
    }

    /** Per-backend achieved RPS over the measured interval. */
    double backendAchievedRps(std::size_t backend) const;

    const net::LoadBalancer &balancer() const { return lb_; }
    /** Mutable balancer access (the controller's migration actuator). */
    net::LoadBalancer &balancer() { return lb_; }
    const ClientConfig &config() const { return config_; }
    /** @} */

  private:
    sim::Simulation &sim_;
    ClientConfig config_;
    sim::Rng rng_;
    std::unique_ptr<sim::ExponentialDist> interArrival_;
    net::LoadBalancer lb_;

    /** Per-backend transport: links + round-robin cursor + request size. */
    struct Backend
    {
        std::vector<std::unique_ptr<net::Link>> links;
        std::size_t nextLink = 0;
        std::uint32_t requestBytes = 0;
    };
    std::vector<Backend> backends_;

    std::uint64_t nextRequestId_ = 1;
    std::uint64_t arrivals_ = 0; ///< logical requests (== sent_ w/o shed)
    std::uint64_t sent_ = 0;
    std::uint64_t completed_ = 0;
    std::uint64_t shedded_ = 0;
    std::uint64_t shedDropped_ = 0;
    double shedProb_ = 0.0;
    sim::Tick retryAfter_ = 0;
    /** Backoff delays double per attempt but never exceed this. */
    sim::Tick retryBackoffCap_ = sim::milliseconds(500);
    /** Attempts per logical request before it is dropped. */
    unsigned shedMaxRetries_ = 6;
    std::uint64_t completedDuringLoad_ = 0;
    std::vector<std::uint64_t> backendCompleted_;
    bool running_ = false;
    sim::Tick measureStart_ = 0;
    sim::Tick arrivalsEnd_ = 0;
    sim::Tick lastCompletion_ = 0;

    struct Pending
    {
        sim::Tick sentAt = 0;
        std::uint16_t chunksSeen = 0;
        std::uint32_t backend = 0;
    };
    std::unordered_map<std::uint64_t, Pending> pending_;

    stats::LatencyHistogram latencies_;
    std::shared_ptr<bool> alive_;

    void scheduleNextArrival();
    void fireRequest();
    /** Admission gate + send; retries re-enter here with attempt > 0. */
    void attemptSend(unsigned attempt);
    void onResponse(kernel::Message &&msg);
};

} // namespace reqobs::client

#endif // REQOBS_CLIENT_FLEET_GENERATOR_HH
