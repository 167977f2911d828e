/**
 * @file
 * Open-loop load generator and client-side latency measurement.
 *
 * One LoadGenerator models a tenant's whole client population: a single
 * Poisson arrival process at the tenant's aggregate rate, regardless of
 * completions (open loop), which is what drives a server into genuine
 * saturation. Each request is routed to a backend machine by a
 * net::LoadBalancer and then to one of that machine's connections
 * round-robin; every connection is a net::Link (netem + TCP), and
 * end-to-end latency is recorded when the final response chunk
 * arrives. A single-machine run is one backend behind a round-robin
 * balancer.
 *
 * QoS accounting follows the paper: the run "fails QoS" when the p99
 * latency of the measured interval exceeds the configured threshold.
 */

#ifndef REQOBS_CLIENT_LOAD_GENERATOR_HH
#define REQOBS_CLIENT_LOAD_GENERATOR_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/link.hh"
#include "net/load_balancer.hh"
#include "sim/distributions.hh"
#include "sim/simulation.hh"
#include "stats/histogram.hh"
#include "workload/server_app.hh"

namespace reqobs::client {

/** Load-generation parameters for one run. */
struct ClientConfig
{
    double offeredRps = 1000.0;     ///< aggregate open-loop arrival rate
    std::uint64_t maxRequests = 0;  ///< stop after this many arrivals (0 =
                                    ///< run until the simulation deadline)
    sim::Tick warmup = sim::milliseconds(200); ///< discard early latencies
    sim::Tick qosLatency = sim::milliseconds(50); ///< p99 threshold
};

/** See file comment. */
class LoadGenerator
{
  public:
    /**
     * Provisions links to every backend's connections (apps must not be
     * started yet) and prepares the arrival process. @p backends is one
     * ServerApp per machine — the same tenant co-located across the
     * fleet. @p fault, when set, resets connections and impairs links.
     */
    LoadGenerator(sim::Simulation &sim,
                  std::vector<workload::ServerApp *> backends,
                  const net::NetemConfig &netem, const net::TcpConfig &tcp,
                  const ClientConfig &config, net::LbPolicy policy,
                  fault::FaultInjector *fault = nullptr);

    /** One machine: @p app alone behind a round-robin balancer. */
    LoadGenerator(sim::Simulation &sim, workload::ServerApp &app,
                  const net::NetemConfig &netem, const net::TcpConfig &tcp,
                  const ClientConfig &config,
                  fault::FaultInjector *fault = nullptr);

    LoadGenerator(const LoadGenerator &) = delete;
    LoadGenerator &operator=(const LoadGenerator &) = delete;

    /** Begin generating arrivals. */
    void start();

    /** Stop issuing new requests (in-flight ones still complete). */
    void stop();

    /**
     * Change the offered rate on the fly (takes effect from the next
     * arrival). Enables ramp/step, diurnal and flash-crowd patterns.
     */
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

    /** @name Results (all backends unless noted). @{ */

    /**
     * Requests sent. A connection reset counts here (the client fired
     * it) but never completes and never reaches the balancer.
     */
    std::uint64_t sent() const { return sent_; }
    /** Logical requests generated (== sent() without shedding). */
    std::uint64_t arrivals() const { return arrivals_; }
    /** Admission rejections (attempts, not unique requests). */
    std::uint64_t shedded() const { return shedded_; }
    /** Requests abandoned after exhausting shed retries. */
    std::uint64_t shedDropped() const { return shedDropped_; }
    /** Responses fully received (post-warmup). */
    std::uint64_t completed() const { return completed_; }

    /** End-to-end latency distribution (ns), post-warmup. */
    const stats::LatencyHistogram &latencies() const { return latencies_; }

    /**
     * Completed-requests throughput over the post-warmup interval
     * (RPS_Real in the paper's terms).
     */
    double achievedRps() const;

    /** p99 latency in ns (0 when nothing completed). */
    std::uint64_t p99() const { return latencies_.p99(); }

    /** True when p99 exceeds the configured QoS threshold. */
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
    fault::FaultInjector *fault_ = nullptr;
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
    sim::Tick arrivalsEnd_ = 0; ///< 0 while arrivals are still flowing
    sim::Tick lastCompletion_ = 0;

    /** requestId -> (send time, chunks received so far, backend). */
    struct Pending
    {
        sim::Tick sentAt = 0;
        std::uint16_t chunksSeen = 0;
        std::uint32_t backend = 0;
    };
    std::unordered_map<std::uint64_t, Pending> pending_;

    stats::LatencyHistogram latencies_;

    void scheduleNextArrival();
    void fireRequest();
    /** Admission gate + send; retries re-enter here with attempt > 0. */
    void attemptSend(unsigned attempt);
    void onResponse(kernel::Message &&msg);
    /** @p completions per second over the measured interval. */
    double rateOverLoad(std::uint64_t completions) const;
};

} // namespace reqobs::client

#endif // REQOBS_CLIENT_LOAD_GENERATOR_HH
