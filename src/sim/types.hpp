// Core model types for the asynchronous message-passing system of §2 of
// Lewko & Lewko (PODC 2013).
//
// The paper's model is a complete network of n processors with dedicated
// channels (the receiver always correctly identifies the sender), driven by
// an adversary through three kinds of fine-grained steps: sending steps,
// receiving steps, and resetting steps.
#pragma once

#include <cstdint>

namespace aa::sim {

/// Processor identity in [0, n).  (The paper uses [1, n]; we are 0-based.)
using ProcId = int;

/// Message identity within one execution's buffer.
using MsgId = std::int64_t;

/// Sentinel for "no message".
inline constexpr MsgId kNoMsg = -1;

/// Output/vote value domain: the paper's ⊥ is represented as -1; decided
/// values are 0 or 1.
inline constexpr int kBot = -1;

/// The three step kinds of §2 plus crash (used only in the §5 crash model).
enum class StepKind : std::uint8_t { Send, Receive, Reset, Crash };

/// Wire message. Every protocol in this library speaks a common small
/// message shape so that full-information adversaries can introspect votes
/// generically:
///
///   round — protocol round number r
///   kind  — protocol-specific discriminator (vote / report / proposal /
///           RBC-init / RBC-echo / RBC-ready / ...)
///   value — vote content: 0, 1, or kBot for ⊥ / '?'
///   aux   — protocol-specific extra (e.g. RBC originator, phase, decide flag)
struct Message {
  std::int32_t round = 0;
  std::int32_t kind = 0;
  std::int32_t value = kBot;
  std::int32_t aux = 0;

  friend bool operator==(const Message&, const Message&) = default;
};

/// Receiver of a staged broadcast item: one StagedMessage{kEveryone, m}
/// stands for n copies of m, to receivers 0..n-1 in that order. Only
/// Outbox::broadcast writes it (Outbox::send rejects it), and only while
/// the staged run is whole broadcasts; wherever a per-copy record must
/// exist (the async arena, the Byzantine wrapper) Outbox::expand rewrites
/// the run as point items in receiver order first.
inline constexpr ProcId kEveryone = -1;

/// One staged (not yet published) message: receiver + payload, or a whole
/// broadcast when `to` is kEveryone. Processes queue these in an Outbox; a
/// sending step publishes the whole run, with ids assigned in staging
/// order (a broadcast item takes n consecutive ids, one per receiver). In
/// a collected window the staged items themselves become the window store
/// (see plan.hpp).
struct StagedMessage {
  ProcId to;
  Message msg;
};

/// A message instance in flight: payload plus channel metadata maintained by
/// the engine. `window` is the acceptable-window index at which the sending
/// step occurred (always 0 in the crash model, which has no windows).
/// `chain` is the message-chain depth (§2's running-time measure for the
/// crash model): 1 + the longest chain among messages its sender had
/// received when it sent.
struct Envelope {
  MsgId id = kNoMsg;
  ProcId sender = -1;
  ProcId receiver = -1;
  Message payload;
  std::int64_t window = 0;
  std::int64_t chain = 1;
};

}  // namespace aa::sim
