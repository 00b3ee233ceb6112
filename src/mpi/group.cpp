#include "mpi/group.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

namespace ds::mpi {

namespace {
/// Position of `world_rank` in the ascending run members[begin, end), or -1.
int search_run(const std::vector<int>& members, int begin, int end,
               int world_rank) noexcept {
  const auto last = members.begin() + end;
  const auto it = std::lower_bound(members.begin() + begin, last, world_rank);
  return it != last && *it == world_rank
             ? static_cast<int>(it - members.begin())
             : -1;
}
}  // namespace

Group::Group(std::vector<int> world_ranks) : members_(std::move(world_ranks)) {
  // Membership must be unique; duplicate world ranks would make rank_of
  // ambiguous and break point-to-point addressing.
  std::vector<int> sorted = members_;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end())
    throw std::invalid_argument("Group: duplicate world rank");
  const auto split = std::is_sorted_until(members_.begin(), members_.end());
  if (split == members_.end() &&
      (members_.empty() || std::int64_t{members_.back()} - members_.front() ==
                               size() - 1)) {
    // One ascending run without duplicates spanning size() values: [b, b+n).
    run_end_ = kContiguous;
    base_ = members_.empty() ? 0 : members_.front();
    return;
  }
  run_end_ = std::is_sorted(split, members_.end())
                 ? static_cast<int>(split - members_.begin())
                 : kUnsorted;
}

Group Group::world(int n) {
  std::vector<int> all(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) all[static_cast<std::size_t>(i)] = i;
  return Group(std::move(all));
}

int Group::world_rank(int r) const {
  return members_.at(static_cast<std::size_t>(r));
}

int Group::rank_of(int world_rank) const noexcept {
  if (run_end_ == kContiguous) {
    // Unsigned wrap sends every world rank below base_ past size() too.
    const unsigned offset =
        static_cast<unsigned>(world_rank) - static_cast<unsigned>(base_);
    return offset < static_cast<unsigned>(members_.size())
               ? static_cast<int>(offset)
               : -1;
  }
  if (run_end_ == kUnsorted) {
    for (std::size_t i = 0; i < members_.size(); ++i)
      if (members_[i] == world_rank) return static_cast<int>(i);
    return -1;
  }
  const int r = search_run(members_, 0, run_end_, world_rank);
  return r >= 0 ? r : search_run(members_, run_end_, size(), world_rank);
}

Group Group::include(const std::vector<int>& ranks) const {
  std::vector<int> out;
  out.reserve(ranks.size());
  for (int r : ranks) out.push_back(world_rank(r));
  return Group(std::move(out));
}

Group Group::exclude(const std::vector<int>& ranks) const {
  std::vector<bool> drop(members_.size(), false);
  for (int r : ranks) {
    if (r < 0 || static_cast<std::size_t>(r) >= members_.size())
      throw std::out_of_range("Group::exclude: rank out of range");
    drop[static_cast<std::size_t>(r)] = true;
  }
  std::vector<int> out;
  for (std::size_t i = 0; i < members_.size(); ++i)
    if (!drop[i]) out.push_back(members_[i]);
  return Group(std::move(out));
}

}  // namespace ds::mpi
