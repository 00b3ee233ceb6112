// Shared per-channel membership ledger (ds::resilience).
//
// Elastic membership needs one piece of state that every rank observes
// consistently: which consumer slots of a channel are currently active. The
// ledger lives in the channel's interned shape (stream::Channel), which every
// handle of the channel on the machine shares, so it plays the same role the
// machine's failure record plays for crashes — a globally visible membership
// oracle that protocol code polls at its next interaction instead of
// learning about via extra messages. It is born with the shape (all slots
// active, then the configured initially-inactive slots retired) and dies
// with the channel's last handle. In a real deployment this is the
// membership service / coordination plane; in the simulator it is a shared
// object guarded by the single-threaded engine.
//
// Slots, not ranks: a retired slot's *rank* stays alive (it may serve other
// channels); only its claim on this channel's flows is released. The version
// counter is the membership analogue of Machine::failure_epoch() — streams
// cache it and re-evaluate routing when it moves.
#pragma once

#include <cstdint>
#include <vector>

namespace ds::resilience {

struct MembershipLedger {
  std::vector<std::uint8_t> active;  ///< per consumer slot, 1 = active
  std::uint64_t version = 0;         ///< bumped on every activate/deactivate

  explicit MembershipLedger(int consumer_slots)
      : active(static_cast<std::size_t>(consumer_slots), 1) {}

  [[nodiscard]] bool is_active(int slot) const noexcept {
    return active[static_cast<std::size_t>(slot)] != 0;
  }
  /// Returns true when the flag actually changed (version bumped).
  bool set_active(int slot, bool on) {
    auto& a = active[static_cast<std::size_t>(slot)];
    const std::uint8_t want = on ? 1 : 0;
    if (a == want) return false;
    a = want;
    ++version;
    return true;
  }
};

}  // namespace ds::resilience
