#include "client/storm_generator.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace reqobs::client {

StormGenerator::StormGenerator(sim::Simulation &sim, net::FrontDoor &door,
                               const net::NetemConfig &netem,
                               const net::TcpConfig &tcp,
                               const StormConfig &config)
    : sim_(sim), door_(door), netem_(netem), tcp_(tcp), config_(config),
      rng_(sim.forkRng())
{
    if (config.connRps <= 0.0)
        sim::fatal("StormGenerator: connection rate must be positive");
    if (config.listener >= door.listenerCount())
        sim::fatal("StormGenerator: bad listener %u", config.listener);
    interArrival_ = std::make_unique<sim::ExponentialDist>(
        std::max<sim::Tick>(1,
                            static_cast<sim::Tick>(1e9 / config.connRps)));
}

void
StormGenerator::start()
{
    if (running_)
        sim::fatal("StormGenerator: start() called twice");
    running_ = true;
    measureStart_ = sim_.now() + config_.warmup;
    scheduleNextConn();
}

void
StormGenerator::stop()
{
    running_ = false;
}

void
StormGenerator::scheduleNextConn()
{
    if (!running_)
        return;
    sim_.schedule(interArrival_->sample(rng_), [this] {
        openConn();
        scheduleNextConn();
    });
}

void
StormGenerator::openConn()
{
    if (!running_)
        return;
    ++attempted_;

    // Loris coin: drawn only when the sub-population is enabled, so a
    // loris-free storm consumes the identical random stream as before
    // the feature existed.
    const bool loris = config_.lorisFraction > 0.0 &&
                       rng_.uniform() < config_.lorisFraction;
    if (loris) {
        ++lorisOpened_;
        net::ConnectOptions opts;
        opts.abandon = true;
        opts.holdHandshake = config_.lorisHold;
        door_.connect(config_.listener, std::move(opts));
        return;
    }

    const std::uint64_t key = nextKey_++;
    Conn conn;
    conn.synAt = sim_.now();
    live_.emplace(key, std::move(conn));

    net::ConnectOptions opts;
    opts.onFailed = [this, key] {
        ++failed_;
        live_.erase(key);
    };
    opts.onEstablished = [this, key](std::shared_ptr<kernel::Socket> sock) {
        auto it = live_.find(key);
        if (it == live_.end())
            return;
        ++established_;
        kernel::Message req;
        req.requestId = key;
        req.bytes = config_.requestBytes;
        req.created = sim_.now();
        it->second.link = std::make_unique<net::Link>(
            sim_, netem_, tcp_, std::move(sock),
            [this, key](kernel::Message &&) {
                auto it2 = live_.find(key);
                if (it2 == live_.end())
                    return;
                ++responses_;
                if (it2->second.synAt >= measureStart_)
                    latencies_.record(static_cast<std::uint64_t>(
                        sim_.now() - it2->second.synAt));
                // The Link is mid-delivery right now; tear the
                // connection down on the next event instead.
                sim_.schedule(0, [this, key] { live_.erase(key); });
            });
        it->second.link->sendRequest(std::move(req));
    };
    door_.connect(config_.listener, std::move(opts));
}

} // namespace reqobs::client
