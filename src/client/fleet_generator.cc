#include "client/fleet_generator.hh"

#include "sim/logging.hh"

namespace reqobs::client {

FleetLoadGenerator::FleetLoadGenerator(
    sim::Simulation &sim, std::vector<workload::ServerApp *> backends,
    const net::NetemConfig &netem, const net::TcpConfig &tcp,
    const ClientConfig &config, net::LbPolicy policy)
    : sim_(sim), config_(config), rng_(sim.forkRng()),
      lb_(policy, backends.size()),
      backendCompleted_(backends.size(), 0),
      alive_(std::make_shared<bool>(true))
{
    if (config.offeredRps <= 0.0)
        sim::fatal("FleetLoadGenerator: offered RPS must be positive");
    if (backends.empty())
        sim::fatal("FleetLoadGenerator: need at least one backend");
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
                nullptr));
        }
        backends_.push_back(std::move(b));
    }
}

FleetLoadGenerator::~FleetLoadGenerator()
{
    *alive_ = false;
}

void
FleetLoadGenerator::start()
{
    if (running_)
        sim::fatal("FleetLoadGenerator: start() called twice");
    running_ = true;
    measureStart_ = sim_.now() + config_.warmup;
    scheduleNextArrival();
}

void
FleetLoadGenerator::stop()
{
    running_ = false;
}

void
FleetLoadGenerator::setOfferedRps(double rps)
{
    if (rps <= 0.0)
        sim::fatal("FleetLoadGenerator::setOfferedRps: rate must be "
                   "positive");
    config_.offeredRps = rps;
    interArrival_ = std::make_unique<sim::ExponentialDist>(
        std::max<sim::Tick>(1, static_cast<sim::Tick>(1e9 / rps)));
}

void
FleetLoadGenerator::setAdmission(double shed, sim::Tick retry_after)
{
    if (shed < 0.0 || shed > 1.0)
        sim::fatal("FleetLoadGenerator::setAdmission: probability %f out "
                   "of range",
                   shed);
    shedProb_ = shed;
    retryAfter_ = retry_after;
}

void
FleetLoadGenerator::scheduleNextArrival()
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
FleetLoadGenerator::fireRequest()
{
    if (!running_)
        return;
    ++arrivals_;
    attemptSend(0);
}

void
FleetLoadGenerator::attemptSend(unsigned attempt)
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
FleetLoadGenerator::onResponse(kernel::Message &&msg)
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
FleetLoadGenerator::achievedRps() const
{
    const sim::Tick end =
        arrivalsEnd_ > 0 ? arrivalsEnd_ : lastCompletion_;
    if (completedDuringLoad_ == 0 || end <= measureStart_)
        return 0.0;
    return static_cast<double>(completedDuringLoad_) /
           sim::toSeconds(end - measureStart_);
}

double
FleetLoadGenerator::backendAchievedRps(std::size_t backend) const
{
    const sim::Tick end =
        arrivalsEnd_ > 0 ? arrivalsEnd_ : lastCompletion_;
    if (backendCompleted_[backend] == 0 || end <= measureStart_)
        return 0.0;
    return static_cast<double>(backendCompleted_[backend]) /
           sim::toSeconds(end - measureStart_);
}

bool
FleetLoadGenerator::qosViolated() const
{
    return latencies_.count() > 0 &&
           latencies_.p99() >
               static_cast<std::uint64_t>(config_.qosLatency);
}

} // namespace reqobs::client
