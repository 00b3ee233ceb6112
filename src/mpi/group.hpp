// Process groups: ordered sets of world ranks (MPI_Group).
//
// Decoupling (paper Sec. II-C) starts by splitting COMM_WORLD's processes
// into disjoint groups, one per operation subset; Group is the value type
// those splits produce.
//
// rank_of sits on every point-to-point call (membership check), so it must
// not scan the members. The group classifies its shape once, at
// construction:
//  * one contiguous ascending run [b, b+n) — the world group and contiguous
//    splits — answers by a subtraction and a range check;
//  * otherwise at most two ascending runs — a strided colour split is one,
//    a channel's "producers, then consumers" list is two — binary-searches
//    each run;
//  * a group of more runs (an `include` with an arbitrary permutation)
//    falls back to the linear scan.
// Two ints per group, no side tables. Groups that
// every rank of a set-up step derives alike (a channel's member list, a
// split colour) are interned once per machine (Machine::intern_comm and the
// channel shape), so all ranks share one member vector.
#pragma once

#include <vector>

namespace ds::mpi {

class Group {
 public:
  Group() = default;
  explicit Group(std::vector<int> world_ranks);

  /// The world group {0, 1, ..., n-1}.
  [[nodiscard]] static Group world(int n);

  [[nodiscard]] int size() const noexcept { return static_cast<int>(members_.size()); }
  [[nodiscard]] bool empty() const noexcept { return members_.empty(); }

  /// World rank of group member `r`; throws std::out_of_range if invalid.
  [[nodiscard]] int world_rank(int r) const;

  /// Rank of `world_rank` in this group, or -1 if not a member.
  /// O(1) for a contiguous ascending run, O(log size) for groups of at most
  /// two ascending runs, else O(size).
  [[nodiscard]] int rank_of(int world_rank) const noexcept;
  [[nodiscard]] bool contains(int world_rank) const noexcept {
    return rank_of(world_rank) >= 0;
  }

  /// New group keeping members at positions `ranks`, in that order.
  [[nodiscard]] Group include(const std::vector<int>& ranks) const;
  /// New group dropping members at positions `ranks` (order preserved).
  [[nodiscard]] Group exclude(const std::vector<int>& ranks) const;

  /// Members whose position in this group satisfies `pred(position)`.
  template <typename Pred>
  [[nodiscard]] Group filter_by_position(Pred pred) const {
    std::vector<int> out;
    for (int r = 0; r < size(); ++r)
      if (pred(r)) out.push_back(members_[static_cast<std::size_t>(r)]);
    return Group(std::move(out));
  }

  [[nodiscard]] const std::vector<int>& members() const noexcept { return members_; }

  [[nodiscard]] bool operator==(const Group& other) const noexcept {
    return members_ == other.members_;
  }

 private:
  static constexpr int kUnsorted = -1;
  static constexpr int kContiguous = -2;

  std::vector<int> members_;  // position (group rank) -> world rank
  // End of the first ascending run of members_; the rest is one ascending
  // run too. Or kContiguous: members_ is [base_, base_ + size()). Or
  // kUnsorted.
  int run_end_ = kContiguous;
  int base_ = 0;
};

}  // namespace ds::mpi
