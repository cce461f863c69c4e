// Process: the per-processor protocol interface.
//
// §2 of the paper defines an algorithm as a family of distributions on
// (new state, outgoing messages) parameterized by (current state, received
// message). We realize that as a virtual interface: `on_receive` is the only
// randomized entry point (matching the paper: "receiving steps ... will be
// the only kind of step that involves randomization"), and outgoing messages
// are *staged* with the engine and only placed into the buffer at the next
// sending step, preserving the paper's separation of sending and receiving
// steps (needed for the reset semantics).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "sim/types.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace aa::sim {

/// Collector for messages a process wants to send. The engine stages these
/// and publishes the whole run at the process's next sending step — into
/// the window store (take) in a collected window, else into the
/// MessageBuffer arena (add_batch). Ids are assigned in staging order.
///
/// A run is one of two kinds. While it is whole broadcasts
/// (broadcast_runs() ≥ 0) each broadcast() is ONE item {kEveryone, m}, so
/// staging costs O(1) per broadcast, not O(n). The first send() (or an
/// expand()) rewrites the staged broadcasts as point items in receiver
/// order, and from then on the run is point items only. Either way copy r of the run's j-th
/// broadcast gets id first + j·n + r, so the two kinds are
/// indistinguishable to anyone reading ids and envelopes.
class Outbox {
 public:
  explicit Outbox(int n) : n_(n) {}

  /// Queue a message to one receiver in [0, n). Prefer broadcast for
  /// all-to-all sends; when looping send() over many receivers, reserve()
  /// first. Voids the broadcast-run count until the next clear().
  void send(ProcId to, const Message& m) {
    AA_REQUIRE(to >= 0 && to < n_, "Outbox::send: receiver out of range");
    expand();
    queued_.push_back({to, m});
    broadcast_runs_ = -1;
  }

  /// Queue the same message to every processor (including self; the paper
  /// notes self-delivery is redundant but harmless — our protocols rely on
  /// counting their own vote, so we keep it).
  void broadcast(const Message& m) {
    if (broadcast_runs_ >= 0) {
      queued_.push_back({kEveryone, m});
      ++broadcast_runs_;
      return;
    }
    queued_.reserve(queued_.size() + static_cast<std::size_t>(n_));
    for (ProcId p = 0; p < n_; ++p) queued_.push_back({p, m});
  }

  /// Pre-size the staging queue for `extra` more send() calls.
  void reserve(std::size_t extra) { queued_.reserve(queued_.size() + extra); }

  /// The staged items: broadcast_runs() items {kEveryone, m} when the run
  /// is whole broadcasts, else one point item per message.
  using Item = StagedMessage;
  [[nodiscard]] const std::vector<Item>& items() const noexcept {
    return queued_;
  }
  /// Messages the run publishes: n per broadcast item, one per point item.
  [[nodiscard]] std::size_t message_count() const noexcept {
    return broadcast_runs_ >= 0
               ? queued_.size() * static_cast<std::size_t>(n_)
               : queued_.size();
  }
  [[nodiscard]] bool empty() const noexcept { return queued_.empty(); }
  void clear() noexcept {
    queued_.clear();
    broadcast_runs_ = 0;
  }

  /// Hand the staged run to `run` without copying: the two vectors swap
  /// storage, then the outbox is cleared — so it reuses `run`'s previous
  /// capacity and both sides stay allocation-free once warm. This is how a
  /// collected sending step publishes into the window store.
  void take(std::vector<Item>& run) noexcept {
    queued_.swap(run);
    clear();
  }
  [[nodiscard]] int n() const noexcept { return n_; }

  /// Kind of the staged run: k when items() is exactly k broadcast items
  /// (message j·n + r is broadcast j's copy to receiver r), -1 once any
  /// send() was staged since the last clear(). The engine records it per
  /// sender; it tells the window store how to read the run and a planner
  /// which windows are broadcast-shaped.
  [[nodiscard]] int broadcast_runs() const noexcept { return broadcast_runs_; }

  /// Rewrite staged broadcast items as point items in receiver order, so
  /// items() holds one item per message with the ids it would get anyway;
  /// a point run is left as it is. Readers that need one item per message
  /// (the async arena, the Byzantine wrapper) call this first. In place,
  /// back to front, so item j is read before the copies of any later
  /// broadcast can overwrite it.
  void expand() {
    if (broadcast_runs_ <= 0) return;
    const auto n = static_cast<std::size_t>(n_);
    const std::size_t k = queued_.size();
    queued_.resize(k * n);
    for (std::size_t j = k; j-- > 0;) {
      const Message m = queued_[j].msg;
      for (std::size_t r = n; r-- > 0;) {
        queued_[j * n + r] = {static_cast<ProcId>(r), m};
      }
    }
    broadcast_runs_ = -1;
  }

 private:
  int n_;
  std::vector<Item> queued_;
  int broadcast_runs_ = 0;
};

/// Protocol behaviour of one processor. Implementations live in
/// src/protocols/. The engine owns the Rng streams and the staged outboxes.
class Process {
 public:
  virtual ~Process() = default;

  /// Called once before the first sending step: stage initial messages
  /// (e.g. the round-1 vote).
  virtual void on_start(Outbox& out) = 0;

  /// A receiving step delivered `env`. Perform the local (possibly
  /// randomized) computation and stage any responses.
  virtual void on_receive(const Envelope& env, Rng& rng, Outbox& out) = 0;

  /// A run of receiving steps delivered `envs`, in order, all addressed to
  /// this processor (the engine batches one acceptable window's deliveries
  /// per receiver). MUST be observationally identical to calling on_receive
  /// once per envelope in order — the default does exactly that. Hot
  /// protocols override it to update their bounded tallies in a tight
  /// non-virtual loop, skipping the per-message virtual dispatch.
  virtual void on_receive_batch(std::span<const Envelope* const> envs,
                                Rng& rng, Outbox& out) {
    for (const Envelope* env : envs) on_receive(*env, rng, out);
  }

  /// A resetting step: erase all memory EXCEPT the input bit, the output
  /// bit, the identity, and the reset counter (which the engine maintains;
  /// resets are detectable per §2). Implementations must return to a state
  /// from which the protocol's reset-recovery path runs.
  virtual void on_reset() = 0;

  // --- full-information introspection (read by adversaries & checkers) ---

  /// Immutable input bit (0/1).
  [[nodiscard]] virtual int input() const = 0;
  /// Write-once output bit: kBot until decided, then 0/1 forever.
  [[nodiscard]] virtual int output() const = 0;
  /// Current round number r_p (protocols without rounds return 0; a freshly
  /// reset processor that has not yet rejoined returns kBot).
  [[nodiscard]] virtual int round() const = 0;
  /// Current estimate x_p (kBot if none, e.g. mid-rejoin).
  [[nodiscard]] virtual int estimate() const = 0;
  /// Short human-readable protocol name (diagnostics).
  [[nodiscard]] virtual const char* protocol_name() const = 0;
};

}  // namespace aa::sim
