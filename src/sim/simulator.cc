#include "sim/simulator.h"

#include <algorithm>
#include <mutex>
#include <unordered_set>

#include "common/result.h"
#include "common/strings.h"

namespace autoglobe::sim {

namespace {

struct LabelHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const {
    return std::hash<std::string_view>{}(s);
  }
};
struct LabelEq {
  using is_transparent = void;
  bool operator()(std::string_view a, std::string_view b) const {
    return a == b;
  }
};

/// Process-wide label intern table. Elements of an unordered_set are
/// node-stable, so views into them stay valid forever; the table is
/// leaked deliberately (labels may be traced during static teardown).
std::string_view InternLabel(std::string_view label) {
  static std::mutex mutex;
  static auto* table = new std::unordered_set<std::string, LabelHash, LabelEq>();
  std::lock_guard<std::mutex> lock(mutex);
  auto it = table->find(label);
  if (it == table->end()) it = table->emplace(label).first;
  return *it;
}

}  // namespace

EventLabel::EventLabel(const std::string& dynamic)
    : label_(InternLabel(dynamic)) {}
EventLabel::EventLabel(std::string_view dynamic)
    : label_(InternLabel(dynamic)) {}

void Simulator::ReserveEvents(size_t expected_events) {
  state_.reserve(state_.size() + expected_events + 1);
  // The heap holds only *pending* events, far fewer than the ids ever
  // allocated; a modest slice of the hint removes early regrowth.
  heap_.reserve(std::max<size_t>(heap_.capacity(), 64));
}

EventId Simulator::AllocateId() {
  EventId id = next_id_++;
  if (state_.size() <= id) state_.resize(id + 1, EventState::kDone);
  return id;
}

void Simulator::Push(Event event) {
  heap_.push_back(std::move(event));
  std::push_heap(heap_.begin(), heap_.end(), EventOrder{});
}

Simulator::Event Simulator::PopTop() {
  std::pop_heap(heap_.begin(), heap_.end(), EventOrder{});
  Event event = std::move(heap_.back());
  heap_.pop_back();
  return event;
}

Result<EventId> Simulator::ScheduleAt(SimTime at, EventLabel label,
                                      Callback callback) {
  return ScheduleAt(at, label, EventDesc{}, std::move(callback));
}

Result<EventId> Simulator::ScheduleAt(SimTime at, EventLabel label,
                                      EventDesc desc, Callback callback) {
  if (at < now_) {
    return Status::InvalidArgument(
        StrFormat("cannot schedule event \"%.*s\" in the past (%s < %s)",
                  static_cast<int>(label.view().size()), label.view().data(),
                  at.ToString().c_str(), now_.ToString().c_str()));
  }
  if (!callback) {
    return Status::InvalidArgument("event callback must not be empty");
  }
  EventId id = AllocateId();
  StateOf(id) = EventState::kLive;
  ++live_count_;
  Push(Event{at, next_seq_++, id, label, std::move(callback), nullptr,
             Duration::Zero(), desc});
  return id;
}

Result<EventId> Simulator::ScheduleAfter(Duration delay, EventLabel label,
                                         Callback callback) {
  return ScheduleAfter(delay, label, EventDesc{}, std::move(callback));
}

Result<EventId> Simulator::ScheduleAfter(Duration delay, EventLabel label,
                                         EventDesc desc, Callback callback) {
  if (delay < Duration::Zero()) {
    return Status::InvalidArgument("delay must be non-negative");
  }
  return ScheduleAt(now_ + delay, label, desc, std::move(callback));
}

Result<EventId> Simulator::SchedulePeriodic(Duration period,
                                            EventLabel label,
                                            Callback callback) {
  return SchedulePeriodic(period, label, EventDesc{}, std::move(callback));
}

Result<EventId> Simulator::SchedulePeriodic(Duration period,
                                            EventLabel label,
                                            EventDesc desc,
                                            Callback callback) {
  if (period <= Duration::Zero()) {
    return Status::InvalidArgument("period must be positive");
  }
  if (!callback) {
    return Status::InvalidArgument("event callback must not be empty");
  }
  EventId id = AllocateId();
  StateOf(id) = EventState::kLive;
  ++live_count_;
  Push(Event{now_ + period, next_seq_++, id, label, nullptr,
             std::make_shared<Callback>(std::move(callback)), period, desc});
  return id;
}

Status Simulator::Cancel(EventId id) {
  if (id >= state_.size() || StateOf(id) != EventState::kLive) {
    return Status::NotFound(StrFormat("no pending event %llu",
                                      static_cast<unsigned long long>(id)));
  }
  // Lazy cancellation: the queue entry is skipped (and never
  // re-armed, for periodic series) when popped.
  StateOf(id) = EventState::kCancelled;
  --live_count_;
  return Status::OK();
}

bool Simulator::Step() {
  while (!heap_.empty()) {
    Event event = PopTop();
    if (StateOf(event.id) == EventState::kCancelled) {
      StateOf(event.id) = EventState::kDone;
      continue;
    }
    now_ = event.at;
    ++dispatched_;
    if (event.period <= Duration::Zero()) {
      StateOf(event.id) = EventState::kDone;
      --live_count_;
      if (trace_ != nullptr) {
        trace_->Record(now_, obs::TraceEventKind::kEventDispatch,
                       event.label.view(), {},
                       static_cast<int64_t>(event.id));
      }
      event.once();
    } else {
      if (trace_ != nullptr) {
        trace_->Record(now_, obs::TraceEventKind::kEventDispatch,
                       event.label.view(), {},
                       static_cast<int64_t>(event.id));
      }
      // Re-arm the series before invoking, so the callback may cancel
      // its own series by id. The callback is shared, not copied.
      Push(Event{event.at + event.period, next_seq_++, event.id,
                 event.label, nullptr, event.series, event.period,
                 event.desc});
      (*event.series)();
    }
    return true;
  }
  return false;
}

void Simulator::RunUntil(SimTime end) {
  while (!heap_.empty()) {
    const Event& top = heap_.front();
    if (StateOf(top.id) == EventState::kCancelled) {
      StateOf(top.id) = EventState::kDone;
      PopTop();
      continue;
    }
    if (top.at > end) break;
    Step();
  }
  if (now_ < end) now_ = end;
}

void Simulator::RunAll() {
  while (Step()) {
  }
}

Status Simulator::SaveState(ByteWriter* w) const {
  w->I64(now_.seconds());
  w->U64(next_seq_);
  w->U64(next_id_);
  w->U64(dispatched_);
  w->U64(live_count_);
  w->U64(state_.size());
  w->Raw(state_.data(), state_.size());
  // Pending events. Lazily-cancelled entries are dropped: their
  // liveness byte is kCancelled, so the restored kernel treats them
  // exactly like entries it skipped itself.
  uint64_t pending = 0;
  for (const Event& event : heap_) {
    if (state_[event.id] == EventState::kLive) ++pending;
  }
  w->U64(pending);
  for (const Event& event : heap_) {
    if (state_[event.id] != EventState::kLive) continue;
    if (event.desc.kind.empty()) {
      return Status::FailedPrecondition(StrFormat(
          "pending event \"%.*s\" (id %llu) has no re-arm descriptor; "
          "its callback cannot survive a checkpoint",
          static_cast<int>(event.label.view().size()),
          event.label.view().data(),
          static_cast<unsigned long long>(event.id)));
    }
    w->I64(event.at.seconds());
    w->U64(event.seq);
    w->U64(event.id);
    w->Str(event.label.view());
    w->I64(event.period.seconds());
    w->Str(event.desc.kind);
    w->Str(event.desc.str);
    w->U64(event.desc.a);
    w->U64(event.desc.b);
    w->I64(event.desc.x);
    w->I64(event.desc.dur.seconds());
  }
  return Status::OK();
}

Status Simulator::RestoreState(ByteReader* r,
                               const CallbackFactory& factory) {
  AG_ASSIGN_OR_RETURN(int64_t now_s, r->I64());
  AG_ASSIGN_OR_RETURN(next_seq_, r->U64());
  AG_ASSIGN_OR_RETURN(next_id_, r->U64());
  AG_ASSIGN_OR_RETURN(dispatched_, r->U64());
  AG_ASSIGN_OR_RETURN(uint64_t live_count, r->U64());
  AG_ASSIGN_OR_RETURN(uint64_t state_size, r->U64());
  AG_RETURN_IF_ERROR(r->CheckCount(state_size, sizeof(EventState)));
  now_ = SimTime::FromSeconds(now_s);
  state_.assign(state_size, EventState::kDone);
  AG_RETURN_IF_ERROR(r->Raw(state_.data(), state_size));
  heap_.clear();
  AG_ASSIGN_OR_RETURN(uint64_t pending, r->U64());
  // Eight fixed-width words and three string length prefixes.
  AG_RETURN_IF_ERROR(r->CheckCount(pending, 8 * 8 + 3 * 4));
  if (pending != live_count) {
    return Status::ParseError(StrFormat(
        "snapshot lists %llu pending event(s) but a live count of %llu",
        static_cast<unsigned long long>(pending),
        static_cast<unsigned long long>(live_count)));
  }
  for (uint64_t i = 0; i < pending; ++i) {
    AG_ASSIGN_OR_RETURN(int64_t at_s, r->I64());
    AG_ASSIGN_OR_RETURN(uint64_t seq, r->U64());
    AG_ASSIGN_OR_RETURN(EventId id, r->U64());
    AG_ASSIGN_OR_RETURN(std::string label, r->Str());
    AG_ASSIGN_OR_RETURN(int64_t period_s, r->I64());
    AG_ASSIGN_OR_RETURN(std::string kind, r->Str());
    AG_ASSIGN_OR_RETURN(std::string str, r->Str());
    EventDesc desc;
    AG_ASSIGN_OR_RETURN(desc.a, r->U64());
    AG_ASSIGN_OR_RETURN(desc.b, r->U64());
    AG_ASSIGN_OR_RETURN(desc.x, r->I64());
    AG_ASSIGN_OR_RETURN(int64_t dur_s, r->I64());
    desc.kind = EventLabel(kind).view();  // interned: views stay valid
    desc.str = str.empty() ? std::string_view() : EventLabel(str).view();
    desc.dur = Duration::Seconds(dur_s);
    Duration period = Duration::Seconds(period_s);
    if (id >= state_.size() || state_[id] != EventState::kLive) {
      return Status::ParseError(StrFormat(
          "pending event id %llu is not marked live in the snapshot",
          static_cast<unsigned long long>(id)));
    }
    AG_ASSIGN_OR_RETURN(Callback callback, factory(desc));
    if (!callback) {
      return Status::Internal(StrFormat(
          "callback factory returned an empty callback for kind \"%s\"",
          std::string(desc.kind).c_str()));
    }
    if (period > Duration::Zero()) {
      Push(Event{SimTime::FromSeconds(at_s), seq, id, EventLabel(label),
                 nullptr, std::make_shared<Callback>(std::move(callback)),
                 period, desc});
    } else {
      Push(Event{SimTime::FromSeconds(at_s), seq, id, EventLabel(label),
                 std::move(callback), nullptr, Duration::Zero(), desc});
    }
  }
  live_count_ = live_count;
  return Status::OK();
}

}  // namespace autoglobe::sim
