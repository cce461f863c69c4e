// Per-round vote tallies shared by the §3 reset protocol, the §5 forgetful
// protocol and Ben-Or: one vector of {round, tally} entries sorted by round.
//
// A processor holds only a handful of rounds at once — its current round
// and the few later rounds that votes have already arrived for — and it
// erases every round below the current one as it advances. A binary search
// over that short contiguous run replaces a tree lookup per vote and a node
// allocation per round. Memory is O(distinct rounds held), the bound a map
// gives: a hostile round such as INT_MAX or INT_MIN costs one entry.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

namespace aa::protocols {

/// Vote counts for one round (for Ben-Or, one phase of a round). The
/// protocols read only the first `cap` arrivals (their "wait for T1" /
/// "wait for n − t"), so those are counted by value and later ones only
/// add to the arrival total — O(1) memory per round instead of O(n).
struct VoteTally {
  std::int32_t arrivals = 0;       ///< votes recorded
  std::int32_t count[2] = {0, 0};  ///< 0/1 among the first `cap` arrivals

  /// Record one vote. A value other than 0/1 (Ben-Or's ⊥ proposal) is an
  /// arrival that counts for neither bit. Returns the arrival total.
  std::int32_t add(int value, std::int32_t cap) noexcept {
    if (arrivals < cap && (value == 0 || value == 1)) ++count[value];
    return ++arrivals;
  }
};

template <class Tally>
class RoundTally {
 public:
  struct Entry {
    int round;
    Tally tally;
  };

  /// The tally of `round`, inserted empty if absent. The reference stays
  /// valid until the next at(), drop_below() or clear().
  Tally& at(int round) {
    // Most votes are for the current round, the lowest one held.
    if (!entries_.empty() && entries_.front().round == round)
      return entries_.front().tally;
    const auto it = lower(round);
    if (it != entries_.end() && it->round == round) return it->tally;
    return entries_.insert(it, Entry{round, Tally{}})->tally;
  }

  /// The tally of `round`, or nullptr if none is held.
  [[nodiscard]] Tally* find(int round) noexcept {
    const auto it = lower(round);
    return it != entries_.end() && it->round == round ? &it->tally : nullptr;
  }

  /// Erase every round below `round`.
  void drop_below(int round) { entries_.erase(entries_.begin(), lower(round)); }

  void clear() noexcept { entries_.clear(); }

  /// The held rounds, in increasing order.
  [[nodiscard]] std::span<const Entry> entries() const noexcept {
    return entries_;
  }

 private:
  typename std::vector<Entry>::iterator lower(int round) noexcept {
    return std::lower_bound(
        entries_.begin(), entries_.end(), round,
        [](const Entry& e, int r) { return e.round < r; });
  }

  std::vector<Entry> entries_;
};

}  // namespace aa::protocols
