// A winner (tournament) tree over N keyed slots: O(log N) point update,
// O(1) argmin/argmax query, ties always to the lowest index.
//
// Built for the fleet placement tier, where every arriving task needs
// "the machine minimizing cost C" over M machines and only the picked
// machine's key changes afterwards — a linear rescan is O(M) per
// arrival, this is O(log M). The tie rule matters for determinism: a
// left child beats an equal right child at every internal node, so the
// overall winner is the *lowest-index* extremal slot, exactly what a
// first-strictly-better linear scan returns. Slots can be disabled
// (no key); a disabled slot never wins, and a tree with every slot
// disabled reports no winner.
//
// Two updates return in O(1) without touching a node, because neither
// can change one:
//  - update() of the current winner with a key at least as good as its
//    old one: the winner beat (or tied, from the left) every rival on
//    its path with the old key, so it still does with the new one;
//  - disable() of a slot that is already disabled.
// The fleet's pack-and-park placement hits both on almost every routed
// task (its packable tree re-keys the densest machine upward, its
// sleeper tree disables a powered machine that was never a sleeper).
#pragma once

#include <cstddef>
#include <vector>

namespace eewa::util {

/// Compare is a strict "better than" predicate on keys: std::less for
/// an argmin tree, std::greater for an argmax tree. Equal keys are
/// "not better", which is what gives the lowest-index tie rule. It must
/// be a strict weak order on the keys stored (no NaN in a double tree):
/// the O(1) winner update relies on "no worse than the old key, which
/// was no worse than every rival" implying "no worse than every rival".
template <typename Key, typename Compare>
class TournamentTree {
 public:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  TournamentTree() = default;

  /// Reset to `n` slots, all disabled. O(n), allocates only when `n`
  /// grows past any previous size.
  void reset(std::size_t n) {
    n_ = n;
    cap_ = 1;
    while (cap_ < n_) cap_ <<= 1;
    keys_.assign(n_, Key{});
    enabled_.assign(n_, 0);
    win_.assign(2 * cap_, kNone);
  }

  std::size_t size() const { return n_; }

  /// Set slot i's key and enable it, then repair the path to the root
  /// (nothing to repair when i is the winner and k is no worse).
  void update(std::size_t i, const Key& k) {
    const bool keeps_winning = win_[1] == i && !cmp_(keys_[i], k);
    keys_[i] = k;
    if (keeps_winning) return;
    enabled_[i] = 1;
    repair(i);
  }

  /// Disable slot i (it holds no key and cannot win); a no-op when it
  /// is disabled already.
  void disable(std::size_t i) {
    if (enabled_[i] == 0) return;
    enabled_[i] = 0;
    repair(i);
  }

  bool contains(std::size_t i) const { return enabled_[i] != 0; }
  const Key& key(std::size_t i) const { return keys_[i]; }

  /// Index of the best enabled slot, or kNone when every slot is
  /// disabled (or the tree is empty).
  std::size_t winner() const { return cap_ == 0 ? kNone : win_[1]; }

 private:
  /// Winner of two slot indices under the tie-to-left rule.
  std::size_t merge(std::size_t a, std::size_t b) const {
    if (a == kNone) return b;
    if (b == kNone) return a;
    return cmp_(keys_[b], keys_[a]) ? b : a;
  }

  void repair(std::size_t i) {
    std::size_t node = cap_ + i;
    win_[node] = enabled_[i] ? i : kNone;
    for (node >>= 1; node >= 1; node >>= 1) {
      win_[node] = merge(win_[2 * node], win_[2 * node + 1]);
    }
  }

  std::size_t n_ = 0;
  std::size_t cap_ = 0;  ///< leaf capacity, power of two
  std::vector<Key> keys_;
  std::vector<char> enabled_;
  std::vector<std::size_t> win_;  ///< win_[1] is the root
  [[no_unique_address]] Compare cmp_{};
};

}  // namespace eewa::util
