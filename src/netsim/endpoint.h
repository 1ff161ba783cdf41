// Interfaces between hosts, packet processors (Geneva engines), and the
// simulated network.
#pragma once

#include <functional>
#include <vector>

#include "packet/packet.h"

namespace caya {

/// Which way a packet is traveling on the client<->server path.
enum class Direction { kClientToServer, kServerToClient };

[[nodiscard]] constexpr Direction reverse(Direction d) noexcept {
  return d == Direction::kClientToServer ? Direction::kServerToClient
                                         : Direction::kClientToServer;
}

/// A host attached to one end of the path. The network calls deliver() for
/// each arriving packet; the host sends by calling the transmit function the
/// network registered with it.
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  virtual void deliver(const Packet& pkt) = 0;
};

using TransmitFn = std::function<void(Packet)>;

/// Geneva's interception point (the libnetfilter_queue equivalent): rewrites
/// one packet into zero or more packets just before they enter / after they
/// leave the wire at a host.
class PacketProcessor {
 public:
  virtual ~PacketProcessor() = default;
  /// Applied to packets the host is about to transmit. Results are appended
  /// to `out`, which the network recycles across packets.
  virtual void process_outbound_into(Packet pkt, std::vector<Packet>& out) = 0;
  /// Applied to packets arriving from the wire before the host sees them.
  virtual void process_inbound_into(Packet pkt, std::vector<Packet>& out) = 0;
};

}  // namespace caya
