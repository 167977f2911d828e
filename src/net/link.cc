#include "net/link.hh"

#include "sim/logging.hh"

namespace reqobs::net {

Link::Link(sim::Simulation &sim, const NetemConfig &netem,
           const TcpConfig &tcp, std::shared_ptr<kernel::Socket> server_sock,
           ResponseFn on_response, fault::FaultInjector *fault)
    : serverSock_(std::move(server_sock))
{
    if (!serverSock_)
        sim::fatal("Link: null server socket");
    if (!on_response)
        sim::fatal("Link: null response callback");

    // Fork order (up pipe, then down pipe) is part of the RNG contract.
    auto *sim_ptr = &sim;
    up_ = std::make_unique<TcpPipe>(
        sim, netem, tcp, sim.forkRng(),
        [this, sim_ptr](kernel::Message &&msg) {
            serverSock_->deliver(std::move(msg), sim_ptr->now());
        },
        fault);
    down_ = std::make_unique<TcpPipe>(sim, netem, tcp, sim.forkRng(),
                                      std::move(on_response), fault);
    serverSock_->setTxHandler(
        [this](kernel::Message &&msg) { down_->send(std::move(msg)); });
}

Link::~Link()
{
    // The socket may outlive this link (it sits in the kernel fd table):
    // disarm the tx hook that points back into us.
    serverSock_->setTxHandler({});
}

void
Link::sendRequest(kernel::Message &&msg)
{
    up_->send(std::move(msg));
}

} // namespace reqobs::net
