#include "client/load_generator.hh"

#include "sim/logging.hh"

namespace reqobs::client {

LoadGenerator::LoadGenerator(sim::Simulation &sim,
                             std::vector<workload::ServerApp *> backends,
                             const net::NetemConfig &netem,
                             const net::TcpConfig &tcp,
                             const ClientConfig &config, net::LbPolicy policy,
                             fault::FaultInjector *fault)
    : sim_(sim), config_(config), fault_(fault), rng_(sim.forkRng()),
      lb_(policy, backends.size()), backendCompleted_(backends.size(), 0),
      alive_(std::make_shared<bool>(true))
{
    if (config.offeredRps <= 0.0)
        sim::fatal("LoadGenerator: offered RPS must be positive");
    interArrival_ = std::make_unique<sim::ExponentialDist>(
        std::max<sim::Tick>(
            1, static_cast<sim::Tick>(1e9 / config.offeredRps)));

    backends_.reserve(backends.size());
    for (workload::ServerApp *app : backends) {
        Backend b;
        b.requestBytes = app->config().requestBytes;
        const unsigned conns = app->config().connections;
        b.links.reserve(conns);
        for (unsigned c = 0; c < conns; ++c) {
            auto sock = app->addConnection(c + 1);
            b.links.push_back(std::make_unique<net::Link>(
                sim, netem, tcp, std::move(sock),
                [this](kernel::Message &&msg) { onResponse(std::move(msg)); },
                fault_));
        }
        backends_.push_back(std::move(b));
    }
}

LoadGenerator::LoadGenerator(sim::Simulation &sim, workload::ServerApp &app,
                             const net::NetemConfig &netem,
                             const net::TcpConfig &tcp,
                             const ClientConfig &config,
                             fault::FaultInjector *fault)
    : LoadGenerator(sim, {&app}, netem, tcp, config,
                    net::LbPolicy::RoundRobin, fault)
{}

LoadGenerator::~LoadGenerator()
{
    *alive_ = false;
}

void
LoadGenerator::start()
{
    if (running_)
        sim::fatal("LoadGenerator: start() called twice");
    running_ = true;
    measureStart_ = sim_.now() + config_.warmup;
    scheduleNextArrival();
}

void
LoadGenerator::stop()
{
    running_ = false;
}

void
LoadGenerator::setOfferedRps(double rps)
{
    if (rps <= 0.0)
        sim::fatal("LoadGenerator::setOfferedRps: rate must be positive");
    config_.offeredRps = rps;
    interArrival_ = std::make_unique<sim::ExponentialDist>(
        std::max<sim::Tick>(1, static_cast<sim::Tick>(1e9 / rps)));
}

void
LoadGenerator::setAdmission(double shed, sim::Tick retry_after)
{
    if (shed < 0.0 || shed > 1.0)
        sim::fatal("LoadGenerator::setAdmission: probability %f out of "
                   "range",
                   shed);
    shedProb_ = shed;
    retryAfter_ = retry_after;
}

void
LoadGenerator::scheduleNextArrival()
{
    if (!running_)
        return;
    // The budget counts logical requests, not sends: a shed arrival
    // consumed its slot even if every retry is later rejected.
    if (config_.maxRequests && arrivals_ >= config_.maxRequests) {
        running_ = false;
        arrivalsEnd_ = sim_.now();
        return;
    }
    auto alive = alive_;
    sim_.schedule(interArrival_->sample(rng_), [this, alive] {
        if (!*alive)
            return;
        fireRequest();
        scheduleNextArrival();
    });
}

void
LoadGenerator::fireRequest()
{
    if (!running_)
        return;
    ++arrivals_;
    attemptSend(0);
}

void
LoadGenerator::attemptSend(unsigned attempt)
{
    // Disengaged shedding draws no RNG at all: the arrival stream of a
    // never-shed run is bit-identical to one without admission control.
    if (shedProb_ > 0.0 && rng_.uniform() < shedProb_) {
        ++shedded_;
        if (attempt >= shedMaxRetries_) {
            ++shedDropped_;
            return;
        }
        const sim::Tick delay = std::min<sim::Tick>(
            retryBackoffCap_,
            std::max<sim::Tick>(1, retryAfter_) << attempt);
        auto alive = alive_;
        sim_.schedule(delay, [this, alive, attempt] {
            if (!*alive)
                return;
            attemptSend(attempt + 1);
        });
        return;
    }
    // Connection reset: the client fired the request but the connection
    // ate it. It counts as sent (open-loop arrivals keep flowing) yet
    // can never complete, so the balancer never sees it in flight.
    if (fault_ && fault_->injectConnReset()) {
        ++sent_;
        return;
    }
    const std::size_t backend = lb_.pick();
    Backend &b = backends_[backend];

    kernel::Message req;
    req.requestId = nextRequestId_++;
    req.bytes = b.requestBytes;
    req.created = sim_.now();
    req.isResponse = false;

    Pending p;
    p.sentAt = sim_.now();
    p.backend = static_cast<std::uint32_t>(backend);
    pending_.emplace(req.requestId, p);
    ++sent_;
    lb_.onDispatch(backend);

    b.links[b.nextLink]->sendRequest(std::move(req));
    b.nextLink = (b.nextLink + 1) % b.links.size();
}

void
LoadGenerator::onResponse(kernel::Message &&msg)
{
    auto it = pending_.find(msg.requestId);
    if (it == pending_.end())
        return; // duplicate/stale chunk
    Pending &p = it->second;
    ++p.chunksSeen;
    if (p.chunksSeen < msg.chunks)
        return; // wait for the remaining chunks

    const sim::Tick now = sim_.now();
    const std::size_t backend = p.backend;
    if (p.sentAt >= measureStart_) {
        ++completed_;
        lastCompletion_ = now;
        // Throughput accounting stops with the arrival process: counting
        // queue-drain completions would understate overload RPS.
        if (arrivalsEnd_ == 0 || now <= arrivalsEnd_) {
            ++completedDuringLoad_;
            ++backendCompleted_[backend];
        }
        latencies_.record(static_cast<std::uint64_t>(now - p.sentAt));
    }
    pending_.erase(it);
    lb_.onComplete(backend);
}

double
LoadGenerator::rateOverLoad(std::uint64_t completions) const
{
    const sim::Tick end =
        arrivalsEnd_ > 0 ? arrivalsEnd_ : lastCompletion_;
    if (completions == 0 || end <= measureStart_)
        return 0.0;
    return static_cast<double>(completions) /
           sim::toSeconds(end - measureStart_);
}

double
LoadGenerator::achievedRps() const
{
    return rateOverLoad(completedDuringLoad_);
}

double
LoadGenerator::backendAchievedRps(std::size_t backend) const
{
    return rateOverLoad(backendCompleted_[backend]);
}

bool
LoadGenerator::qosViolated() const
{
    return latencies_.count() > 0 &&
           latencies_.p99() >
               static_cast<std::uint64_t>(config_.qosLatency);
}

} // namespace reqobs::client
