#ifndef AUTOGLOBE_SIM_SIMULATOR_H_
#define AUTOGLOBE_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "obs/trace.h"

namespace autoglobe::sim {

/// Identifier of a scheduled event; usable for cancellation.
using EventId = uint64_t;

/// Serializable re-arm descriptor of a pending event. Callbacks are
/// closures and cannot be persisted; a subsystem whose events must
/// survive a checkpoint attaches a descriptor at schedule time and
/// supplies a factory that rebuilds the callback from it at restore
/// time (Simulator::RestoreState). `kind` selects the factory branch;
/// the remaining fields carry the closure's captures. Both string
/// fields must view storage that outlives the event — string literals
/// or strings interned through EventLabel — so copying an event stays
/// allocation-free on the re-arm path.
struct EventDesc {
  std::string_view kind;  ///< factory dispatch key; empty = transient
  std::string_view str;   ///< captured name (server/service), if any
  uint64_t a = 0;         ///< captured id/token, if any
  uint64_t b = 0;         ///< second captured id, if any
  int64_t x = 0;          ///< small captured enum/int, if any
  Duration dur = Duration::Zero();  ///< captured duration, if any
};

/// Cheap event label. The overwhelmingly common case — a string
/// literal like "tick" — is stored as a borrowed pointer: no heap
/// allocation per event, copies are trivial. Dynamic labels (e.g. the
/// executor's per-instance labels) are interned once per distinct
/// string in a process-wide table and then behave like literals.
class EventLabel {
 public:
  /// Borrowing constructor: `literal` must have static storage
  /// duration (a string literal). Zero cost.
  EventLabel(const char* literal) : label_(literal) {}  // NOLINT
  /// Interning constructors for dynamically built labels.
  EventLabel(const std::string& dynamic);  // NOLINT
  EventLabel(std::string_view dynamic);    // NOLINT

  std::string_view view() const { return label_; }

 private:
  std::string_view label_;
};

/// Single-threaded discrete-event simulation kernel. Events fire in
/// timestamp order; events with equal timestamps fire in scheduling
/// (FIFO) order, which makes runs fully deterministic.
///
/// Thread model: one Simulator is confined to one thread; parallelism
/// lives *across* simulators (see common/thread_pool.h), never inside
/// one. The label intern table is the only shared state and is
/// internally synchronized.
///
/// The paper's simulation environment runs "in 40-fold acceleration";
/// a discrete-event kernel is the limit case of that idea — simulated
/// time advances only when something happens.
class Simulator {
 public:
  using Callback = std::function<void()>;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  /// Schedules `callback` at absolute time `at` (>= now). Events in
  /// the past are rejected. The descriptor overloads make the event
  /// snapshot-safe (see EventDesc); descriptor-less events cannot be
  /// pending when SaveState runs.
  Result<EventId> ScheduleAt(SimTime at, EventLabel label,
                             Callback callback);
  Result<EventId> ScheduleAt(SimTime at, EventLabel label, EventDesc desc,
                             Callback callback);
  /// Schedules `callback` after `delay` (>= 0).
  Result<EventId> ScheduleAfter(Duration delay, EventLabel label,
                                Callback callback);
  Result<EventId> ScheduleAfter(Duration delay, EventLabel label,
                                EventDesc desc, Callback callback);

  /// Schedules `callback` every `period`, first firing at
  /// `now + period`. Returns a handle that cancels the whole series.
  Result<EventId> SchedulePeriodic(Duration period, EventLabel label,
                                   Callback callback);
  Result<EventId> SchedulePeriodic(Duration period, EventLabel label,
                                   EventDesc desc, Callback callback);

  /// Cancels a pending event (or periodic series). NotFound when the
  /// event already fired or never existed.
  Status Cancel(EventId id);

  /// Number of events still pending.
  size_t pending_events() const { return live_count_; }

  /// Pre-sizes the event heap and the per-id liveness array for a run
  /// expected to allocate about `expected_events` event ids. Purely a
  /// capacity hint: large runs (hyperscale landscapes schedule one id
  /// per executor action) avoid re-growing the liveness array
  /// mid-run, keeping steady-state ticks allocation-free.
  void ReserveEvents(size_t expected_events);

  /// Dispatches a single event; returns false when the queue is empty.
  bool Step();

  /// Runs until the queue drains or `end` is reached; the clock is
  /// left at min(end, last event time). Events at exactly `end` fire.
  void RunUntil(SimTime end);

  /// Runs until the queue drains completely.
  void RunAll();

  /// Installs a structured trace sink (nullptr clears): every
  /// dispatched event is recorded as a kEventDispatch trace event
  /// carrying the label and event id. The buffer must outlive the
  /// simulator; with no buffer installed the dispatch path pays one
  /// predictable branch.
  void set_trace_buffer(obs::TraceBuffer* buffer) { trace_ = buffer; }

  /// Total number of events dispatched so far.
  uint64_t dispatched_events() const { return dispatched_; }

  // --- Checkpoint/restore ----------------------------------------------
  /// Rebuilds an event callback from its descriptor at restore time.
  using CallbackFactory = std::function<Result<Callback>(const EventDesc&)>;

  /// Serializes the clock, the id/sequence counters, the per-id
  /// liveness array and every pending event's (at, seq, id, label,
  /// period, descriptor) into `w`. Lazily-cancelled queue entries are
  /// dropped (their liveness byte already says kCancelled). Errors if
  /// a pending event carries no descriptor — its callback could not
  /// be rebuilt, so the snapshot would be unable to resume.
  Status SaveState(ByteWriter* w) const;

  /// Restores a SaveState image: the pending-event heap is rebuilt
  /// with identical (at, seq, id) triples, so the restored run
  /// dispatches events in exactly the original order. `factory` maps
  /// each descriptor back to a callback; its errors propagate.
  Status RestoreState(ByteReader* r, const CallbackFactory& factory);

 private:
  // Liveness is a flat per-id byte array instead of hash sets: ids are
  // dense (monotonically allocated from 1), so state lookup is one
  // indexed load on the dispatch path. One byte per event ever
  // scheduled is the trade — an 80-hour paper run allocates a few
  // hundred kB, far cheaper than two hash probes per event.
  enum class EventState : uint8_t { kDone = 0, kLive, kCancelled };

  struct Event {
    SimTime at;
    uint64_t seq;  // tie-breaker for determinism
    EventId id;
    EventLabel label;
    /// One-shot payload; moved out at dispatch (never copied).
    Callback once;
    /// Periodic payload, shared by every occurrence: re-arming copies
    /// a refcount, not the std::function.
    std::shared_ptr<Callback> series;
    // Period of a periodic series; zero for one-shot events.
    Duration period = Duration::Zero();
    /// Snapshot descriptor; trivially copyable (interned views).
    EventDesc desc;
  };

  struct EventOrder {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;  // min-heap
      return a.seq > b.seq;
    }
  };

  EventId AllocateId();
  EventState& StateOf(EventId id) { return state_[id]; }
  void Push(Event event);
  Event PopTop();

  // Binary min-heap managed with std::push_heap/pop_heap so events
  // are *moved* in and out — a priority_queue would copy the label
  // and std::function on every top()/re-heapify.
  std::vector<Event> heap_;
  std::vector<EventState> state_;  // indexed by EventId
  size_t live_count_ = 0;
  SimTime now_ = SimTime::Start();
  uint64_t next_seq_ = 0;
  EventId next_id_ = 1;
  uint64_t dispatched_ = 0;
  obs::TraceBuffer* trace_ = nullptr;
};

}  // namespace autoglobe::sim

#endif  // AUTOGLOBE_SIM_SIMULATOR_H_
