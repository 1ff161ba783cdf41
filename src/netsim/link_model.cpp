#include "netsim/link_model.h"

#include <utility>

#include "util/arena.h"

namespace caya {

Impairments& LinkModel::Config::at(LinkSegment segment, Direction dir) {
  if (segment == LinkSegment::kClientCensor) {
    return dir == Direction::kClientToServer ? client_censor_up
                                             : client_censor_down;
  }
  return dir == Direction::kClientToServer ? censor_server_up
                                           : censor_server_down;
}

const Impairments& LinkModel::Config::at(LinkSegment segment,
                                         Direction dir) const {
  return const_cast<Config&>(*this).at(segment, dir);
}

void LinkModel::Config::set_all(const Impairments& impairments) {
  client_censor_up = impairments;
  client_censor_down = impairments;
  censor_server_up = impairments;
  censor_server_down = impairments;
}

LinkModel::LinkModel(Config config, Rng rng) { reset(config, rng); }

void LinkModel::reset(const Config& config, Rng rng) {
  // Fork streams in a fixed order, independent of which impairments are
  // enabled, so a config change never re-seeds an unrelated stream. A
  // disabled stream is never drawn from (Rng::chance(p) draws nothing when
  // p <= 0), so seeding it costs four words and changes no outcome.
  for (std::size_t seg = 0; seg < 2; ++seg) {
    for (std::size_t d = 0; d < 2; ++d) {
      Lane& lane = lanes_[seg * 2 + d];
      const auto segment =
          seg == 0 ? LinkSegment::kClientCensor : LinkSegment::kCensorServer;
      const auto dir = d == 0 ? Direction::kClientToServer
                              : Direction::kServerToClient;
      lane.config = config.at(segment, dir);
      lane.loss_rng = rng.fork();
      lane.burst_rng = rng.fork();
      lane.duplicate_rng = rng.fork();
      lane.corrupt_rng = rng.fork();
      // The reorder stream also feeds the jitter-magnitude draw.
      lane.reorder_rng = rng.fork();
      lane.burst_bad = false;
    }
  }
}

LinkDecision LinkModel::traverse(LinkSegment segment, Direction dir,
                                 Time now) {
  Lane& l = lane(segment, dir);
  LinkDecision decision;

  // Every stream consumes a fixed number of draws per traversal regardless
  // of config or of the other streams' outcomes (see header).
  const bool uniform_drop = l.loss_rng.chance(l.config.loss);
  const bool burst_transition = l.burst_rng.chance(
      l.burst_bad ? l.config.burst.p_bad_to_good : l.config.burst.p_good_to_bad);
  if (burst_transition) l.burst_bad = !l.burst_bad;
  const bool burst_drop =
      l.burst_rng.chance(l.burst_bad ? l.config.burst.loss_bad
                                     : l.config.burst.loss_good) &&
      l.config.burst.enabled();
  decision.duplicate = l.duplicate_rng.chance(l.config.duplicate);
  decision.corrupt = l.corrupt_rng.chance(l.config.corrupt);
  const bool jitter = l.reorder_rng.chance(l.config.reorder);
  const Time jitter_delay =
      l.config.jitter_max > l.config.jitter_min
          ? l.config.jitter_min + l.reorder_rng.uniform(
                0, l.config.jitter_max - l.config.jitter_min)
          : l.config.jitter_min;
  if (jitter) decision.extra_delay = jitter_delay;

  for (const LinkFlap& flap : l.config.flaps) {
    if (now >= flap.at && now < flap.at + flap.duration) {
      decision.drop = true;
      decision.drop_reason = "link flap";
      return decision;
    }
  }
  if (burst_drop) {
    decision.drop = true;
    decision.drop_reason = "burst loss";
    return decision;
  }
  if (uniform_drop) {
    decision.drop = true;
    decision.drop_reason = "link loss";
    return decision;
  }
  return decision;
}

void LinkModel::corrupt_packet(Packet& pkt) {
  // Pin the pre-corruption checksum so re-serialization exposes the damage.
  if (!pkt.tcp_checksum_overridden) {
    pkt.tcp.checksum = pkt.computed_tcp_checksum();
    pkt.tcp_checksum_overridden = true;
  }
  if (!pkt.payload.empty()) {
    Bytes& raw = pkt.payload.mutate();
    raw[raw.size() / 2] ^= 0x20;
  } else {
    pkt.tcp.window ^= 0x0004;
  }
}

}  // namespace caya
