// Communicators: a Group plus an isolated matching context.
//
// Messages match on (context, source, tag); two communicators never exchange
// traffic even with identical members, which is what lets MPIStream channels
// coexist with application point-to-point traffic undisturbed.
#pragma once

#include <cstdint>
#include <memory>

#include "mpi/group.hpp"

namespace ds::mpi {

class Comm {
 public:
  Comm() = default;
  Comm(std::uint64_t context, Group group)
      : state_(std::make_shared<const State>(State{context, std::move(group)})) {}

  [[nodiscard]] bool valid() const noexcept { return static_cast<bool>(state_); }
  [[nodiscard]] std::uint64_t context() const noexcept { return state_->context; }
  [[nodiscard]] const Group& group() const noexcept { return state_->group; }
  [[nodiscard]] int size() const noexcept { return state_->group.size(); }

  /// Translate a rank in this communicator to a world rank.
  [[nodiscard]] int world_rank(int rank) const { return state_->group.world_rank(rank); }
  /// Rank of a world rank in this communicator (-1 if not a member).
  [[nodiscard]] int rank_of_world(int world_rank) const noexcept {
    return state_->group.rank_of(world_rank);
  }

  [[nodiscard]] bool operator==(const Comm& other) const noexcept {
    return state_ && other.state_ && state_->context == other.state_->context;
  }

 private:
  friend class Machine;  // interns set-up communicators (Machine::intern_comm)

  struct State {
    std::uint64_t context = 0;
    Group group;
  };
  explicit Comm(std::shared_ptr<const State> state)
      : state_(std::move(state)) {}

  std::shared_ptr<const State> state_;
};

}  // namespace ds::mpi
