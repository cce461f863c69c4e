// Bracha's asynchronous agreement (PODC 1984): reliable broadcast plus a
// three-step voting loop, resilience t < n/3.
//
// Reliable broadcast (per broadcast instance = (originator, round, step)):
//   * originator sends INIT(v) to all;
//   * on first INIT(v): send ECHO(v) to all;
//   * on ≥ ⌈(n+t+1)/2⌉ ECHO(v) or ≥ t+1 READY(v): send READY(v) to all
//     (once);
//   * on ≥ 2t+1 READY(v): RBC-deliver v for that instance.
//
// Agreement loop (values carry an optional decide-flag "d"):
//   step 1: RBC-broadcast x. Await n−t delivered values → x := majority.
//   step 2: RBC-broadcast x. Await n−t → if some v has count > n/2,
//           attach the decide flag: x := (d, v).
//   step 3: RBC-broadcast x (+flag). Await n−t →
//             ≥ 2t+1 flagged v → DECIDE v;  ≥ t+1 flagged v → x := v;
//             else x := fresh coin. Round++, back to step 1.
//
// Reliable-broadcast bookkeeping counts echoes/readies PER PAYLOAD
// (value + decide flag): an equivocating originator that sends INIT(0) to
// half the network and INIT(1) to the other half cannot assemble an echo
// quorum for either payload, so no honest processor RBC-delivers from it —
// the classic equivocation defence (exercised by experiment T4 via
// ByzantineProcess).
//
// The broadcast state is two flat arrays, no tree nodes. Each instance is one
// RbcRecord — its key, three flags, and an ECHO and a READY count for each
// of the four payloads (value × decide flag) — in a vector sorted by the
// packed (originator, round, step) key, plus one byte per sender in a
// parallel byte array: sender s's dedupe bits, ECHO and READY × payload.
// An instance costs sizeof(RbcRecord) + n = 48 + n bytes, however many
// messages it sees; a hostile round costs one record. Instances are never
// erased (a late ECHO or READY for an old round must still be relayed).
// The step votes are per-round counts in a RoundTally, cut below the
// current round as it advances.
//
// Scope note: we implement Bracha's broadcast and voting faithfully, but not
// his full message *validation* layer (justifying each step value against
// the previous step's deliveries). Validation defends against Byzantine
// senders lying about their protocol STATE; the adversaries in this
// repository schedule, silence, crash, reset, or equivocate values — the
// paper's strongly adaptive adversary explicitly "lacks the power to have
// corrupted processors lie about their local random bits".
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "protocols/round_tally.hpp"
#include "sim/process.hpp"

namespace aa::protocols {

inline constexpr std::int32_t kRbcInitKind = 4;
inline constexpr std::int32_t kRbcEchoKind = 5;
inline constexpr std::int32_t kRbcReadyKind = 6;

/// aux packing for Bracha messages: originator id, agreement step (1..3),
/// and the decide flag.
[[nodiscard]] std::int32_t pack_bracha_aux(int originator, int step,
                                           bool decide_flag);
struct BrachaAux {
  int originator;
  int step;
  bool decide_flag;
};
[[nodiscard]] BrachaAux unpack_bracha_aux(std::int32_t aux);

class BrachaProcess final : public sim::Process {
 public:
  BrachaProcess(int id, int n, int t, int input);

  void on_start(sim::Outbox& out) override;
  void on_receive(const sim::Envelope& env, Rng& rng,
                  sim::Outbox& out) override;
  /// Bracha is not reset-tolerant: a reset erases all broadcast bookkeeping
  /// and the processor restarts from round 1 (see the T2 matrix).
  void on_reset() override;

  [[nodiscard]] int input() const override { return input_; }
  [[nodiscard]] int output() const override { return output_; }
  [[nodiscard]] int round() const override { return round_; }
  [[nodiscard]] int estimate() const override { return x_; }
  [[nodiscard]] const char* protocol_name() const override { return "bracha"; }

 private:
  using InstanceKey = std::uint64_t;  ///< packed (originator, round, step)
  static InstanceKey key_of(int originator, int round, int step);

  /// One reliable-broadcast instance: (originator, round, step). Echo and
  /// ready quorums are counted per payload, index 2·value + decide_flag
  /// (the order (0,f), (0,t), (1,f), (1,t)), so an equivocating originator
  /// cannot mix support across conflicting payloads.
  struct RbcRecord {
    InstanceKey key;
    std::int32_t echoes[4] = {0, 0, 0, 0};   ///< distinct ECHO senders
    std::int32_t readies[4] = {0, 0, 0, 0};  ///< distinct READY senders
    bool echoed = false;  ///< the originator's INIT arrived; ECHO relayed
    bool sent_ready = false;
    bool delivered = false;
  };
  /// RBC deliveries for one agreement step. finish_step reads only the
  /// first n − t, so those are counted by value, and the flagged ones
  /// again in `flagged`.
  struct StepTally {
    VoteTally values;
    std::int32_t flagged[2] = {0, 0};
  };
  struct RoundSteps {
    StepTally step[3];  ///< agreement steps 1..3
  };

  /// Index of the record for `k`, inserted (with n zero sender bytes) if
  /// absent.
  std::size_t record_of(InstanceKey k);
  void rbc_broadcast(int step, int value, bool decide_flag, sim::Outbox& out);
  void handle_rbc(const sim::Message& m, int sender, sim::Outbox& out);
  void maybe_progress_instance(RbcRecord& rec, int originator, int round,
                               int step, sim::Outbox& out);
  void try_advance(Rng& rng, sim::Outbox& out);
  void finish_step(Rng& rng, sim::Outbox& out);

  int id_;
  int n_;
  int t_;
  int input_;
  int output_ = sim::kBot;
  int round_ = 1;
  int step_ = 1;  ///< agreement step (1..3) currently awaited
  int x_;
  bool x_flag_ = false;  ///< decide flag attached to x (set in step 2)
  std::vector<RbcRecord> records_;  ///< sorted by key
  /// n bytes per record, in records_ order: byte s holds sender s's ECHO
  /// (bits 0-3) and READY (bits 4-7) dedupe bits, one per payload.
  std::vector<std::uint8_t> seen_;
  RoundTally<RoundSteps> step_votes_;
};

}  // namespace aa::protocols
