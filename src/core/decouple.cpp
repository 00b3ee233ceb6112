#include "core/decouple.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/placement.hpp"
#include "mpi/datatype.hpp"
#include "mpi/machine.hpp"
#include "mpi/rank.hpp"

namespace ds::decouple {

namespace {

/// Default base for the channel ids the facade assigns (base + declaration
/// index). Offset so hand-made channels on the same parent (ids 0..) never
/// collide with a pipeline's. Two pipelines *concurrently live* over the
/// same parent must be disambiguated with with_channel_base.
constexpr std::uint64_t kChannelIdBase = 0xDC00;

/// Salt of the key pipeline layouts are interned under.
constexpr std::uint64_t kLayoutSalt = 0x1A7047ull;

/// Sort ascending and drop duplicates; declarations usually arrive sorted.
void sort_unique(std::vector<int>& ranks) {
  if (!std::is_sorted(ranks.begin(), ranks.end()))
    std::sort(ranks.begin(), ranks.end());
  ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
}

/// True when two ascending rank lists share a rank (one linear merge).
bool sorted_overlap(const std::vector<int>& a, const std::vector<int>& b) {
  auto i = a.begin();
  auto j = b.begin();
  while (i != a.end() && j != b.end()) {
    if (*i == *j) return true;
    if (*i < *j)
      ++i;
    else
      ++j;
  }
  return false;
}

}  // namespace

// ------------------------------------------------------------ ScopedChannel --

ScopedChannel::ScopedChannel(ScopedChannel&& other) noexcept
    : self_(std::exchange(other.self_, nullptr)),
      channel_(std::exchange(other.channel_, stream::Channel{})) {}

ScopedChannel& ScopedChannel::operator=(ScopedChannel&& other) noexcept {
  if (this != &other) {
    release();
    self_ = std::exchange(other.self_, nullptr);
    channel_ = std::exchange(other.channel_, stream::Channel{});
  }
  return *this;
}

ScopedChannel::~ScopedChannel() { release(); }

ScopedChannel ScopedChannel::create(mpi::Rank& self, const mpi::Comm& parent,
                                    bool is_producer, bool is_consumer,
                                    stream::ChannelConfig config) {
  return ScopedChannel(
      self, stream::Channel::create(self, parent, is_producer, is_consumer,
                                    std::move(config)));
}

void ScopedChannel::release() {
  if (self_ != nullptr && channel_.valid()) channel_.free(*self_);
  self_ = nullptr;
  channel_ = stream::Channel{};
}

// --------------------------------------------------------------- StreamBase --

void StreamBase::bind(mpi::Rank& self, ScopedChannel channel,
                      std::size_t element_bytes, std::uint64_t stream_id) {
  self_ = &self;
  channel_ = std::move(channel);
  stream_ = stream::Stream::attach(
      channel_.get(), mpi::Datatype::bytes(element_bytes),
      [this](const stream::StreamElement& el) { dispatch(el); }, stream_id);
  on_bound();
}

mpi::Rank& StreamBase::self() const {
  if (self_ == nullptr)
    throw std::logic_error("decouple: stream used before Pipeline::run");
  return *self_;
}

void StreamBase::terminate() {
  if (self_ != nullptr && is_producer()) stream_.terminate(*self_);
}

std::uint64_t StreamBase::operate() { return stream_.operate(self()); }

std::uint64_t StreamBase::operate_while(
    const std::function<bool()>& keep_going) {
  return stream_.operate_while(self(), keep_going);
}

bool StreamBase::poll_one() { return stream_.poll_one(self()); }

void StreamBase::ack_durable() { stream_.ack_durable(self()); }

void StreamBase::on_durable_point(std::function<void()> hook) {
  stream_.set_durable_point(std::move(hook));
}

void StreamBase::retire() { stream_.retire(self()); }

void StreamBase::retire_consumer(int c) {
  channel_.get().retire_consumer(self(), c);
}

void StreamBase::admit_consumer(int c) {
  channel_.get().admit_consumer(self(), c);
}

std::uint64_t StreamBase::drain() {
  std::uint64_t consumed = 0;
  while (poll_one()) ++consumed;
  return consumed;
}

bool StreamBase::is_producer() const { return producer_index() >= 0; }

bool StreamBase::is_consumer() const { return consumer_index() >= 0; }

int StreamBase::producer_index() const {
  return self_ == nullptr ? -1 : channel_.get().my_producer_index(*self_);
}

int StreamBase::consumer_index() const {
  return self_ == nullptr ? -1 : channel_.get().my_consumer_index(*self_);
}

void StreamBase::send_raw(mpi::SendBuf element) {
  stream_.isend(self(), element);
}

void StreamBase::send_raw_to(int consumer, mpi::SendBuf element) {
  stream_.isend_to(self(), consumer, element);
}

// ---------------------------------------------------------------- RawStream --

void RawStream::send(const void* data, std::size_t bytes) {
  send_raw(mpi::SendBuf{data, bytes, 0});
}

void RawStream::send_synthetic(std::size_t wire_bytes) {
  send_raw(mpi::SendBuf::synthetic(wire_bytes));
}

void RawStream::terminate() {
  if (batcher_ && is_producer()) batcher_->flush(self());
  StreamBase::terminate();
}

void RawStream::on_bound() {
  if (adaptive_ && is_producer())
    batcher_.emplace(stream(), record_bytes_, *adaptive_);
}

stream::AdaptiveBatcher& RawStream::batcher() {
  if (!batcher_)
    throw std::logic_error(
        "decouple: push/flush need an adaptive stream and the producer role");
  return *batcher_;
}

const stream::AdaptiveBatcher& RawStream::batcher() const {
  return const_cast<RawStream*>(this)->batcher();
}

void RawStream::push() { batcher().push(self()); }

void RawStream::flush() { batcher().flush(self()); }

std::uint32_t RawStream::current_batch() const {
  return batcher().current_batch();
}

std::uint64_t RawStream::records_sent() const { return batcher().records_sent(); }

std::uint32_t adaptive_record_count(const RawElement& element) {
  if (element.data == nullptr ||
      element.bytes < sizeof(stream::AdaptiveHeader))
    return 0;
  stream::AdaptiveHeader header;
  std::memcpy(&header, element.data, sizeof header);
  return header.records;
}

// ------------------------------------------------------------------- Layout --

/// A pipeline's split and stages, with every per-rank lookup precomputed.
/// Each rank of the pipeline declares the same split and stages, so the
/// first rank to run builds this (linear in the parent size) and the rest
/// share it through Machine::intern.
struct Pipeline::Layout {
  std::uint64_t parent_context = 0;
  std::vector<int> workers;              ///< parent ranks, ascending
  std::vector<int> helpers;              ///< parent ranks, ascending
  std::vector<std::vector<int>> stages;  ///< parent ranks per stage, ascending
  struct Place {
    bool helper = false;
    int group_index = -1;  ///< index among the workers, or among the helpers
    int stage = -1;        ///< -1: in no stage
    int stage_index = -1;  ///< position within the stage
  };
  std::vector<Place> place;  ///< by parent rank

  [[nodiscard]] const Place& at(int parent_rank) const {
    return place[static_cast<std::size_t>(parent_rank)];
  }
};

// ------------------------------------------------------------------ Context --

mpi::Rank& Context::self() const noexcept { return *pipeline_->self_; }

const mpi::Comm& Context::parent() const noexcept { return pipeline_->parent_; }

int Context::parent_rank() const noexcept { return parent_rank_; }

bool Context::is_worker() const noexcept {
  return !pipeline_->layout_->at(parent_rank_).helper;
}

int Context::worker_index() const noexcept {
  const auto& place = pipeline_->layout_->at(parent_rank_);
  return place.helper ? -1 : place.group_index;
}

int Context::helper_index() const noexcept {
  const auto& place = pipeline_->layout_->at(parent_rank_);
  return place.helper ? place.group_index : -1;
}

int Context::worker_count() const noexcept {
  return static_cast<int>(workers().size());
}

int Context::helper_count() const noexcept {
  return static_cast<int>(helpers().size());
}

const std::vector<int>& Context::workers() const noexcept {
  return pipeline_->layout_->workers;
}

const std::vector<int>& Context::helpers() const noexcept {
  return pipeline_->layout_->helpers;
}

int Context::helper_of(int worker) const noexcept {
  return static_cast<int>(static_cast<long long>(worker) * helper_count() /
                          worker_count());
}

double Context::alpha() const noexcept {
  const auto total = workers().size() + helpers().size();
  return total == 0 ? 0.0
                    : static_cast<double>(helpers().size()) /
                          static_cast<double>(total);
}

const mpi::Comm& Context::worker_comm() const {
  if (!pipeline_->want_worker_comm_)
    throw std::logic_error(
        "decouple: worker_comm() requires Pipeline::with_worker_comm()");
  return pipeline_->worker_comm_;
}

int Context::stage_count() const noexcept {
  return static_cast<int>(pipeline_->layout_->stages.size());
}

int Context::stage_index() const noexcept {
  return pipeline_->layout_->at(parent_rank_).stage;
}

int Context::stage_member_index() const noexcept {
  return pipeline_->layout_->at(parent_rank_).stage_index;
}

int Context::stage_size(int stage) const {
  return static_cast<int>(stage_ranks(stage).size());
}

int Context::stage_size(StageHandle stage) const {
  return stage_size(stage.index_);
}

const std::vector<int>& Context::stage_ranks(int stage) const {
  if (stage < 0 || stage >= stage_count())
    throw std::logic_error("decouple: stage index out of range");
  return pipeline_->layout_->stages[static_cast<std::size_t>(stage)];
}

StreamBase& Context::slot(int index) const {
  if (index < 0 || index >= static_cast<int>(pipeline_->slots_.size()))
    throw std::logic_error("decouple: stream handle not from this pipeline");
  return *pipeline_->slots_[static_cast<std::size_t>(index)].stream;
}

// ----------------------------------------------------------------- Pipeline --

Pipeline::Pipeline(mpi::Rank& self, mpi::Comm parent)
    : self_(&self), parent_(std::move(parent)), channel_base_(kChannelIdBase) {}

Pipeline Pipeline::over(mpi::Rank& self, const mpi::Comm& parent) {
  if (self.rank_in(parent) < 0)
    throw std::logic_error("Pipeline::over: caller not in parent communicator");
  return Pipeline(self, parent);
}

void Pipeline::set_split(std::vector<int> helpers) {
  if (split_configured_)
    throw std::logic_error("Pipeline: split already configured");
  sort_unique(helpers);
  if (!helpers.empty() &&
      (helpers.front() < 0 || helpers.back() >= parent_.size()))
    throw std::invalid_argument(
        "Pipeline: helper rank outside the parent communicator");
  if (helpers.empty() || static_cast<int>(helpers.size()) == parent_.size())
    throw std::invalid_argument(
        "Pipeline: need at least one worker and one helper");
  helpers_ = std::move(helpers);
  split_configured_ = true;
}

Pipeline& Pipeline::with_stride(int stride) & {
  return with_plan(stream::GroupPlan::interleaved(parent_, stride));
}

Pipeline& Pipeline::with_alpha(double alpha) & {
  return with_plan(stream::GroupPlan::with_alpha(parent_, alpha));
}

Pipeline& Pipeline::with_plan(const stream::GroupPlan& plan) & {
  set_split(plan.helpers());
  return *this;
}

Pipeline& Pipeline::with_helper_ranks(std::vector<int> helpers) & {
  set_split(std::move(helpers));
  return *this;
}

Pipeline& Pipeline::with_node_placement(int helpers_per_node) & {
  if (helpers_per_node < 1)
    throw std::invalid_argument(
        "Pipeline::with_node_placement: helpers_per_node must be >= 1");
  const auto& config = self_->machine().config();
  const stream::Placement placement(config.network, config.world_size);
  std::vector<int> world;
  world.reserve(static_cast<std::size_t>(parent_.size()));
  for (int r = 0; r < parent_.size(); ++r) world.push_back(parent_.world_rank(r));
  std::vector<int> helpers;
  for (const int w : placement.tail_per_node(world, helpers_per_node))
    helpers.push_back(parent_.rank_of_world(w));
  if (helpers.empty())
    throw std::invalid_argument(
        "Pipeline::with_node_placement: no node hosts two members of the "
        "parent communicator (nothing to co-locate)");
  set_split(std::move(helpers));
  return *this;
}

Pipeline& Pipeline::with_worker_comm() & {
  want_worker_comm_ = true;
  return *this;
}

Pipeline& Pipeline::with_channel_base(std::uint64_t base) & {
  channel_base_ = base;
  return *this;
}

Pipeline& Pipeline::with_resilience(std::uint32_t checkpoint_interval,
                                    bool manual_durability) & {
  if (checkpoint_interval == 0)
    throw std::invalid_argument(
        "Pipeline::with_resilience: checkpoint_interval must be > 0 "
        "(resilience without epochs would retain unboundedly)");
  resilience_interval_ = checkpoint_interval;
  resilience_manual_durability_ = manual_durability;
  return *this;
}

int Pipeline::add_slot(std::unique_ptr<StreamBase> stream,
                       std::size_t element_bytes, StreamOptions options,
                       StageLink link) {
  if (ran_)
    throw std::logic_error("Pipeline: streams must be declared before run()");
  if (options.channel.channel_id != 0)
    throw std::invalid_argument(
        "Pipeline: the pipeline assigns channel ids; leave "
        "StreamOptions::channel.channel_id at 0 (see with_channel_base)");
  slots_.push_back(
      Slot{std::move(stream), element_bytes, std::move(options), link});
  return static_cast<int>(slots_.size()) - 1;
}

RawStreamHandle Pipeline::raw_stream(std::size_t element_bytes,
                                     StreamOptions options) {
  return RawStreamHandle(
      add_slot(std::make_unique<RawStream>(), element_bytes, std::move(options),
               StageLink{}));
}

StageHandle Pipeline::stage(std::vector<int> parent_ranks) {
  if (ran_)
    throw std::logic_error("Pipeline: stages must be declared before run()");
  sort_unique(parent_ranks);
  if (parent_ranks.empty())
    throw std::invalid_argument("Pipeline::stage: stage must not be empty");
  if (parent_ranks.front() < 0 || parent_ranks.back() >= parent_.size())
    throw std::invalid_argument(
        "Pipeline::stage: rank outside the parent communicator");
  for (const auto& earlier : stages_)
    if (sorted_overlap(earlier, parent_ranks))
      throw std::invalid_argument(
          "Pipeline::stage: stages must be pairwise disjoint");
  stages_.push_back(std::move(parent_ranks));
  return StageHandle(static_cast<int>(stages_.size()) - 1);
}

StageHandle Pipeline::stage(const RolePredicate& member) {
  if (!member) throw std::invalid_argument("Pipeline::stage: empty predicate");
  std::vector<int> ranks;
  for (int r = 0; r < parent_.size(); ++r)
    if (member(r)) ranks.push_back(r);
  return stage(std::move(ranks));
}

Pipeline::StageLink Pipeline::link_stages(StageHandle from,
                                          StageHandle to) const {
  const auto stage_count = static_cast<int>(stages_.size());
  if (from.index_ < 0 || from.index_ >= stage_count || to.index_ < 0 ||
      to.index_ >= stage_count)
    throw std::logic_error(
        "decouple: stream_between needs handles from this pipeline's stages");
  if (from.index_ == to.index_)
    throw std::invalid_argument(
        "decouple: a stage cannot stream to itself (groups must be disjoint)");
  return StageLink{from.index_, to.index_};
}

RawStreamHandle Pipeline::raw_stream_between(StageHandle from, StageHandle to,
                                             std::size_t element_bytes,
                                             StreamOptions options) {
  return RawStreamHandle(add_slot(std::make_unique<RawStream>(), element_bytes,
                                  std::move(options), link_stages(from, to)));
}

RawStreamHandle Pipeline::adaptive_stream(std::size_t record_bytes,
                                          AdaptiveConfig adaptive,
                                          StreamOptions options) {
  auto stream = std::make_unique<RawStream>();
  stream->adaptive_ = adaptive;
  stream->record_bytes_ = record_bytes;
  return RawStreamHandle(add_slot(
      std::move(stream),
      stream::AdaptiveBatcher::element_bytes(record_bytes, adaptive.max_records),
      std::move(options), StageLink{}));
}

void Pipeline::run(const RoleFn& worker_fn, const RoleFn& helper_fn) {
  if (!split_configured_)
    throw std::logic_error(
        "Pipeline::run: declare a split first (with_stride / with_alpha / "
        "with_plan / with_helper_ranks)");
  if (ran_) throw std::logic_error("Pipeline::run: pipeline already ran");
  intern_layout();
  const bool worker = !layout_->at(self_->rank_in(parent_)).helper;
  launch(worker ? worker_fn : helper_fn);
}

void Pipeline::run_stages(const std::vector<RoleFn>& stage_fns) {
  if (ran_) throw std::logic_error("Pipeline::run_stages: pipeline already ran");
  if (stages_.size() < 2)
    throw std::logic_error(
        "Pipeline::run_stages: declare at least two stages first");
  if (stage_fns.size() != stages_.size())
    throw std::invalid_argument(
        "Pipeline::run_stages: need exactly one function per declared stage");
  intern_layout();
  const int my_stage = layout_->at(self_->rank_in(parent_)).stage;
  launch(my_stage >= 0 ? stage_fns[static_cast<std::size_t>(my_stage)]
                       : RoleFn{});
}

void Pipeline::intern_layout() {
  // The chain induces the worker/helper split unless one was declared: the
  // first stage is the worker group, every other rank (later stages and
  // unassigned) is a helper. Comparing that way needs no helper list.
  const auto matches = [&](const Layout& l) {
    return l.parent_context == parent_.context() &&
           static_cast<int>(l.place.size()) == parent_.size() &&
           l.stages == stages_ &&
           (split_configured_ ? l.helpers == helpers_
                              : l.workers == stages_.front());
  };
  const auto build = [&] {
    auto layout = std::make_shared<Layout>();
    layout->parent_context = parent_.context();
    layout->place.resize(static_cast<std::size_t>(parent_.size()));
    for (std::size_t s = 0; s < stages_.size(); ++s)
      for (std::size_t k = 0; k < stages_[s].size(); ++k) {
        Layout::Place& place =
            layout->place[static_cast<std::size_t>(stages_[s][k])];
        place.stage = static_cast<int>(s);
        place.stage_index = static_cast<int>(k);
      }
    for (const int h : helpers_)
      layout->place[static_cast<std::size_t>(h)].helper = true;
    for (int r = 0; r < parent_.size(); ++r) {
      Layout::Place& place = layout->place[static_cast<std::size_t>(r)];
      if (!split_configured_) place.helper = place.stage != 0;
      auto& group = place.helper ? layout->helpers : layout->workers;
      place.group_index = static_cast<int>(group.size());
      group.push_back(r);
    }
    layout->stages = std::move(stages_);
    return std::shared_ptr<const Layout>(std::move(layout));
  };
  layout_ = self_->machine().intern<Layout>(
      mpi::Machine::derive_context(parent_.context(), kLayoutSalt,
                                   stages_.size()),
      matches, build);
  helpers_ = std::vector<int>();
  stages_ = std::vector<std::vector<int>>();
}

void Pipeline::launch(const RoleFn& role_fn) {
  ran_ = true;

  mpi::Rank& self = *self_;
  const int me = self.rank_in(parent_);
  const bool worker = !layout_->at(me).helper;

  // A restarted incarnation rejoins a pipeline whose surviving members are
  // mid-run: no collective step can happen (peers are not at a matching
  // call). Channels are re-derived locally via Channel::attach from the
  // same pure role predicates every rank evaluated at first launch.
  const bool rejoining = self.machine().incarnation(self.world_rank()) > 0;
  if (rejoining && want_worker_comm_)
    throw std::logic_error(
        "Pipeline: a restarted rank cannot rejoin a pipeline configured "
        "with_worker_comm (communicator splits are collective)");

  if (want_worker_comm_)
    worker_comm_ = self.split(parent_, worker ? 0 : -1, me);

  // Channel creation is collective over the parent: declaration order is the
  // creation order on every rank. Rejoining ranks attach instead.
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& slot = slots_[i];
    stream::ChannelConfig config = slot.options.channel;
    config.channel_id = channel_base_ + i;
    if (resilience_interval_ > 0 && config.checkpoint_interval == 0) {
      config.checkpoint_interval = resilience_interval_;
      config.manual_durability =
          config.manual_durability || resilience_manual_durability_;
    }
    const bool to_helpers = slot.options.direction == Direction::ToHelpers;
    const auto role_of = [&](int r) -> std::int8_t {
      const Layout::Place& place = layout_->at(r);
      bool produce = false;
      bool consume = false;
      if (slot.link.from >= 0) {
        produce = place.stage == slot.link.from;
        consume = place.stage == slot.link.to;
      } else {
        const bool w = !place.helper;
        produce = slot.options.producers ? slot.options.producers(r)
                                         : (to_helpers ? w : !w);
        consume = slot.options.consumers ? slot.options.consumers(r)
                                         : (to_helpers ? !w : w);
      }
      return produce ? std::int8_t{1} : (consume ? std::int8_t{2} : std::int8_t{0});
    };
    ScopedChannel channel;
    if (rejoining) {
      if (!config.resilient())
        throw std::logic_error(
            "Pipeline: a restarted rank can only rejoin resilient streams "
            "(set checkpoint_interval or with_resilience)");
      channel = ScopedChannel(
          self, stream::Channel::attach(self, parent_, role_of, std::move(config)));
    } else {
      channel = ScopedChannel::create(self, parent_, role_of(me) == 1,
                                      role_of(me) == 2, std::move(config));
    }
    slot.stream->bind(self, std::move(channel), slot.element_bytes,
                      /*stream_id=*/i + 1);
  }

  Context context(*this, me);
  if (role_fn) role_fn(context);

  // RAII half of the termination protocol: whatever this rank produced is
  // now over; consumers' operate() unblocks as the terms land. In a chain
  // this is what propagates termination stage to stage.
  for (Slot& slot : slots_) slot.stream->terminate();
  // A consumer that left a stream early (operate_while on its own
  // predicate) still owes the stream its termination protocol: absorb the
  // pending terms — and forward tree terms to this rank's descendants — so
  // none is left unmatched. Handlers are not invoked; they may capture the
  // finished role function's locals.
  for (Slot& slot : slots_) slot.stream->stream().absorb_termination(self);
}

}  // namespace ds::decouple
