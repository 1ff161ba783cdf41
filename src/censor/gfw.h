// China's Great Firewall, modeled per the paper's findings:
//
//   * One censorship box per application protocol (§6), colocated on the
//     path, each with its own network stack, its own bugs, and its own
//     resynchronization behaviour. All boxes watch every flow (censorship
//     in China is not port-based).
//   * The refined resynchronization model of §5:
//       1. payload on a non-SYN+ACK server packet  -> resync on the next
//          server SYN+ACK or next client packet with ACK (all protocols);
//       2. server RST -> resync on the next client packet (all but HTTPS);
//       3. SYN+ACK with a corrupted ack -> resync on the next client packet
//          (FTP only, and only for the first SYN+ACK of the flow).
//     Resyncing on a client packet assumes the handshake is complete
//     (expected seq = pkt.seq + len — the off-by-one under simultaneous
//     open); resyncing on a server SYN+ACK takes the expected client
//     sequence from the (possibly corrupted) ack field.
//   * A valid RST from the *client* deletes the TCB (what client-side
//     teardown strategies exploit); RSTs from the server never do (§3).
//   * Per-box reassembly capability: HTTP/HTTPS/DNS reassemble, SMTP cannot,
//     FTP only sometimes — which is why Strategy 8 is 100% vs SMTP.
//   * HTTP-only residual censorship: ~90 s of RSTs against new connections
//     to the same server address/port after a censorship event.
//
// Deterministic mechanisms come from the paper's model; the stochastic
// *entry probabilities* (how often a trigger actually puts a box into its
// resync state) are calibrated to Table 2 and documented inline. Cells the
// paper itself flags as "not understood" get explicit calibrated boosts.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "censor/core/flow_table.h"
#include "censor/core/reassembler.h"
#include "censor/core/trigger.h"
#include "censor/core/verdict.h"
#include "censor/dpi.h"
#include "censor/flow.h"
#include "netsim/middlebox.h"
#include "netsim/time.h"
#include "util/arena.h"
#include "util/rng.h"

namespace caya {

struct GfwBoxParams {
  AppProtocol protocol = AppProtocol::kHttp;

  /// P(enter resync | server RST seen). Zero for HTTPS (§5, Strategy 7).
  double p_resync_on_rst = 0.5;
  /// P(enter resync | first SYN+ACK has a corrupted ack). Nonzero only for
  /// FTP (and faintly DNS); Wang et al.'s HTTP-era behaviour is gone.
  double p_resync_on_corrupt_ack = 0.0;
  /// ...boosted when the flow also shows simultaneous open (Strategy 3 vs 4)
  /// or a payload-bearing SYN+ACK (Strategy 5). The paper reports both
  /// boosts without a mechanism; they are calibrated constants here.
  double p_corrupt_ack_simopen_boost = 0.0;
  double p_corrupt_ack_payload_sa_boost = 0.0;
  double p_corrupt_ack_rst_boost = 0.0;
  /// P(enter resync | payload on a non-SYN+ACK packet from the server),
  /// split by whether the carrier is a SYN (Strategy 2) or not (Strategy 6)
  /// — the FTP box treats these differently.
  double p_resync_on_payload_syn = 0.5;
  double p_resync_on_payload_other = 0.5;
  /// P(box loses the flow | the first SYN+ACK it sees comes from the
  /// client). Models the HTTPS box's Strategy 1/2 residue.
  double p_client_synack_first_confusion = 0.0;
  /// P(a given flow can be reassembled) — 1.0 for HTTP/HTTPS/DNS, ~0.5 for
  /// FTP ("frequently incapable"), 0.0 for SMTP.
  double p_reassembly = 1.0;
  /// P(the box loses a flow whose first server SYN+ACK advertises a tiny
  /// window with no window scale) — Strategy 8 against the dialogue
  /// protocols. The paper attributes this to missing reassembly; in this
  /// substrate the FTP/SMTP command that carries the keyword is sent after
  /// the client's window view has recovered (it is not actually segmented),
  /// so the observed box failure is modeled directly. For first-flight
  /// protocols (HTTP/HTTPS/DNS) segmentation is mechanistic and this is 0.
  double p_confused_by_small_window = 0.0;
  /// Baseline per-flow miss rate (Table 2's "No evasion" row).
  double p_miss = 0.03;
  /// Residual censorship window (HTTP only: ~90 s).
  Time residual_duration = 0;
};

/// Default parameter sets for each of the five boxes, calibrated to Table 2.
[[nodiscard]] GfwBoxParams gfw_params(AppProtocol proto);

/// Censor drift: the GFW's stochastic entry probabilities are not stable
/// over time. Measurement work (Wang et al. vs the paper's 2019/2020 probes)
/// shows whole resync mechanisms appearing and disappearing between eras —
/// e.g. the HTTPS box had already retired RST-triggered resynchronization by
/// the paper's measurements (§5, Strategy 7's 4% HTTPS cell). A regime names
/// one coherent parameter era so a deployment simulation can flip the censor
/// under a running server and watch its strategies decay.
enum class GfwRegime {
  /// The paper's calibrated 2019/2020-era behaviour (gfw_params defaults).
  kEra2019,
  /// A projected fleet-wide rollout of the HTTPS box's posture: RST-triggered
  /// resync retired on every box (p_resync_on_rst = 0, and the FTP box's
  /// RST-conditioned corrupt-ack boost with it). Payload-triggered resync and
  /// everything deterministic are unchanged — strategies that depend on
  /// injected RSTs collapse to the baseline miss rate while injected-load
  /// strategies keep working.
  kEraHttpsResync,
};

[[nodiscard]] std::string_view to_string(GfwRegime regime) noexcept;

/// Parameters for one box under a given regime. kEra2019 is gfw_params().
[[nodiscard]] GfwBoxParams gfw_params(AppProtocol proto, GfwRegime regime);

class GfwBox : public Middlebox {
 public:
  GfwBox(GfwBoxParams params, ForbiddenContent content, Rng rng);
  // Flows lease reassembly storage from the box by address.
  GfwBox(const GfwBox&) = delete;
  GfwBox& operator=(const GfwBox&) = delete;

  Verdict on_packet(const Packet& pkt, Direction dir,
                    Injector& inject) override;
  [[nodiscard]] bool in_path() const noexcept override { return false; }
  void flush() override;

  /// Full trial-substrate reinitialization: beyond the mid-trial flush()
  /// (flow/residual state), this re-seeds the box's RNG stream, zeroes the
  /// cumulative censorship and eviction ledgers, and rewinds the fault
  /// schedule — leaving the box byte-identical to a fresh construction
  /// with `rng`. Table/arena storage keeps its capacity.
  void reinit(Rng rng);

  [[nodiscard]] std::size_t tcb_count() const noexcept override {
    return flows_.size();
  }
  [[nodiscard]] StateStats state_stats() const noexcept override {
    return {flows_.evicted(), dropped_segments_};
  }
  [[nodiscard]] AppProtocol protocol() const noexcept {
    return params_.protocol;
  }
  [[nodiscard]] std::size_t censored_count() const noexcept {
    return censored_count_;
  }
  /// True while (addr, port) is under residual censorship at `now`.
  [[nodiscard]] bool residual_active(Ipv4Address addr, std::uint16_t port,
                                     Time now) const;

  /// Stage-trace attribution label, e.g. "gfw-http".
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

 private:
  enum class Resync { kNone, kNextClientPacket, kNextServerSaOrClientAck };

  struct Tcb {
    std::uint32_t client_isn = 0;
    std::uint32_t expected_client_seq = 0;
    std::uint32_t server_next = 0;
    Resync resync = Resync::kNone;
    bool saw_server_synack = false;
    bool censor_established = false;  // box believes the handshake is done
    bool corrupt_ack_armed = false;
    bool saw_server_bare_syn = false;
    bool saw_server_rst = false;
    // Resync-entry outcomes are properties of the flow, not of each packet:
    // repeating a trigger does not re-roll the dice (otherwise a strategy
    // could amplify a ~50% entry rate arbitrarily by duplication, which the
    // paper's measurements do not show).
    std::optional<bool> rst_resync_draw;
    std::optional<bool> payload_resync_draw;
    bool saw_synack_with_payload = false;
    bool can_reassemble = true;
    bool missed = false;       // baseline fail-open draw
    bool dead = false;         // torn down / already censored / lost
    bool residual_kill = false;
    /// Stream view from the box's believed base (resync moves it).
    Reassembler reassembly;
  };

  void on_client_packet(const Packet& pkt, Injector& inject);
  void on_server_packet(const Packet& pkt, Injector& inject);
  void censor_flow(Tcb& tcb, const FlowKey& key, const Packet& offending,
                   Injector& inject);

  GfwBoxParams params_;
  Rng rng_;
  std::string name_;
  TriggerStage trigger_;
  /// Where the flows' reassemblers lease from. The box's own, not the
  /// thread's: a substrate resting in a pool keeps its last trial's flows,
  /// and their leases must not come out of what the running substrate
  /// draws on. Declared before flows_, so it outlives them.
  BufferArena reassembly_storage_;
  FlowTable<Tcb> flows_;
  ResidualTimers residual_;
  std::size_t censored_count_ = 0;
  std::uint64_t dropped_segments_ = 0;  // reassembly budget drops (ledger)
};

/// A counterfactual single-box GFW for the Figure 3 ablation: ONE shared
/// TCP engine (one set of resync bugs, drawn from the HTTP box) feeding all
/// five protocol matchers. Under this architecture every TCP-level strategy
/// succeeds at the same rate regardless of protocol — which is exactly what
/// the paper's measurements rule out.
[[nodiscard]] GfwBoxParams single_box_params(AppProtocol proto);

/// The full Chinese deployment: five colocated boxes sharing one path tap.
class ChinaCensor {
 public:
  enum class Architecture { kMultiBox, kSingleBox };

  ChinaCensor(ForbiddenContent content, Rng rng,
              Architecture architecture = Architecture::kMultiBox,
              GfwRegime regime = GfwRegime::kEra2019);

  [[nodiscard]] std::vector<Middlebox*> middleboxes();
  [[nodiscard]] GfwBox& box(AppProtocol proto);
  [[nodiscard]] const GfwBox& box(AppProtocol proto) const;
  /// Flushes every box (the colocated deployment fails over together).
  void flush();

  /// Full trial-substrate reinitialization of every box, replaying the
  /// constructor's RNG fork order (shared stream first, then per-box forks
  /// — or copies of the shared stream under the single-box ablation).
  void reinit(Rng rng);

 private:
  Architecture architecture_ = Architecture::kMultiBox;
  std::vector<std::unique_ptr<GfwBox>> boxes_;
};

}  // namespace caya
