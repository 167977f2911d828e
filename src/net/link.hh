/**
 * @file
 * A full-duplex client<->server connection over the impaired loopback.
 *
 * Wires one client endpoint to one server-side kernel Socket:
 *
 *   client --(up pipe: netem+tcp)--> Socket::deliver      (requests)
 *   Socket tx hook --(down pipe: netem+tcp)--> response callback
 *
 * The load generator owns a Link per simulated connection.
 */

#ifndef REQOBS_NET_LINK_HH
#define REQOBS_NET_LINK_HH

#include <functional>
#include <memory>

#include "kernel/socket.hh"
#include "net/tcp.hh"
#include "sim/simulation.hh"

namespace reqobs::net {

/** Full-duplex impaired connection; see file comment. */
class Link
{
  public:
    using ResponseFn = std::function<void(kernel::Message &&)>;

    /**
     * @param server_sock The server-side socket; its tx hook is taken
     *                    over by this link.
     * @param on_response Invoked (via the event queue) when a server
     *                    response reaches the client.
     */
    Link(sim::Simulation &sim, const NetemConfig &netem,
         const TcpConfig &tcp, std::shared_ptr<kernel::Socket> server_sock,
         ResponseFn on_response, fault::FaultInjector *fault = nullptr);

    ~Link();

    Link(const Link &) = delete;
    Link &operator=(const Link &) = delete;

    /** Client-side transmit: send a request toward the server. */
    void sendRequest(kernel::Message &&msg);

    /** @name Introspection. @{ */
    const TcpPipe &upPipe() const { return *up_; }
    const TcpPipe &downPipe() const { return *down_; }
    const std::shared_ptr<kernel::Socket> &serverSocket() const
    {
        return serverSock_;
    }
    /** @} */

  private:
    std::shared_ptr<kernel::Socket> serverSock_;
    std::unique_ptr<TcpPipe> up_;
    std::unique_ptr<TcpPipe> down_;
};

} // namespace reqobs::net

#endif // REQOBS_NET_LINK_HH
