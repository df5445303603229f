#include "faults/availability.h"

#include <algorithm>

#include "common/strings.h"

namespace autoglobe::faults {

AvailabilityTracker::AvailabilityTracker(AvailabilityConfig config)
    : config_(config) {}

void AvailabilityTracker::OnFaultInjected(FaultKind kind, SimTime at) {
  (void)at;
  injected_by_kind_[static_cast<size_t>(kind)] += 1;
}

void AvailabilityTracker::OnInstanceDown(uint64_t token,
                                         std::string service,
                                         SimTime at) {
  // Re-failing an open episode (e.g. a restarted instance crashing
  // again before recovery finished) keeps the original down time: the
  // user-visible outage started at the first crash. A token whose
  // previous episode already closed starts a fresh one.
  if (open_.count(token) > 0) return;
  Episode episode;
  episode.service = std::move(service);
  episode.down_at = at;
  open_[token] = std::move(episode);
}

void AvailabilityTracker::OnFailureDetected(uint64_t token, SimTime at) {
  auto it = open_.find(token);
  if (it == open_.end() || it->second.detected) return;
  it->second.detected = true;
  it->second.detected_at = at;
}

void AvailabilityTracker::OnRecovered(uint64_t token, SimTime at) {
  auto it = open_.find(token);
  if (it == open_.end()) return;
  it->second.recovered = true;
  it->second.closed_at = at;
  closed_.push_back(std::move(it->second));
  open_.erase(it);
}

void AvailabilityTracker::OnAbandoned(uint64_t token, SimTime at) {
  auto it = open_.find(token);
  if (it == open_.end()) return;
  it->second.abandoned = true;
  it->second.closed_at = at;
  closed_.push_back(std::move(it->second));
  open_.erase(it);
}

bool AvailabilityTracker::IsOpen(uint64_t token) const {
  return open_.count(token) > 0;
}

AvailabilityReport AvailabilityTracker::Report(SimTime end) const {
  AvailabilityReport report;
  report.instance_crashes = injected_by_kind_[static_cast<size_t>(
      FaultKind::kInstanceCrash)];
  report.server_failures = injected_by_kind_[static_cast<size_t>(
      FaultKind::kServerFailure)];
  report.action_failure_windows = injected_by_kind_[static_cast<size_t>(
      FaultKind::kActionFailure)];
  report.monitor_dropouts = injected_by_kind_[static_cast<size_t>(
      FaultKind::kMonitorDropout)];
  report.faults_injected = report.instance_crashes +
                           report.server_failures +
                           report.action_failure_windows +
                           report.monitor_dropouts;

  double mttd_sum = 0.0;
  double mttr_sum = 0.0;
  int64_t within_objective = 0;
  auto fold = [&](const Episode& episode) {
    ++report.episodes;
    if (episode.detected) {
      ++report.detected;
      mttd_sum += (episode.detected_at - episode.down_at).seconds() / 60.0;
    }
    SimTime closed = end;
    if (episode.recovered || episode.abandoned) {
      closed = episode.closed_at;
    }
    double outage_minutes = (closed - episode.down_at).seconds() / 60.0;
    if (episode.recovered) {
      ++report.recovered;
      mttr_sum += outage_minutes;
      report.mttr_minutes_max =
          std::max(report.mttr_minutes_max, outage_minutes);
      if (closed - episode.down_at <= config_.recovery_objective) {
        ++within_objective;
      }
    } else if (episode.abandoned) {
      ++report.abandoned;
      // An abandoned instance stays lost; its capacity is gone until
      // the end of the run.
      outage_minutes = (end - episode.down_at).seconds() / 60.0;
    } else {
      ++report.open;
    }
    report.unavailability_instance_minutes += outage_minutes;
  };
  for (const Episode& episode : closed_) fold(episode);
  for (const auto& [token, episode] : open_) fold(episode);
  if (report.detected > 0) {
    report.mttd_minutes_mean =
        mttd_sum / static_cast<double>(report.detected);
  }
  if (report.recovered > 0) {
    report.mttr_minutes_mean =
        mttr_sum / static_cast<double>(report.recovered);
  }
  if (report.episodes > 0) {
    report.objective_satisfaction =
        static_cast<double>(within_objective) /
        static_cast<double>(report.episodes);
  }
  return report;
}

void AvailabilityTracker::SaveState(ByteWriter* w) const {
  auto write_episode = [w](const Episode& episode) {
    w->Str(episode.service);
    w->I64(episode.down_at.seconds());
    w->I64(episode.detected_at.seconds());
    w->I64(episode.closed_at.seconds());
    w->U8(episode.detected ? 1 : 0);
    w->U8(episode.recovered ? 1 : 0);
    w->U8(episode.abandoned ? 1 : 0);
  };
  w->U64(open_.size());
  for (const auto& [token, episode] : open_) {
    w->U64(token);
    write_episode(episode);
  }
  w->U64(closed_.size());
  for (const Episode& episode : closed_) write_episode(episode);
  for (int64_t count : injected_by_kind_) w->I64(count);
}

Status AvailabilityTracker::RestoreState(ByteReader* r) {
  // Service prefix, three timestamps and three flags.
  constexpr size_t kMinEpisodeBytes = 4 + 3 * 8 + 3;
  auto read_episode = [r](Episode* episode) -> Status {
    AG_ASSIGN_OR_RETURN(episode->service, r->Str());
    int64_t seconds = 0;
    AG_ASSIGN_OR_RETURN(seconds, r->I64());
    episode->down_at = SimTime::FromSeconds(seconds);
    AG_ASSIGN_OR_RETURN(seconds, r->I64());
    episode->detected_at = SimTime::FromSeconds(seconds);
    AG_ASSIGN_OR_RETURN(seconds, r->I64());
    episode->closed_at = SimTime::FromSeconds(seconds);
    uint8_t flag = 0;
    AG_ASSIGN_OR_RETURN(flag, r->U8());
    episode->detected = flag != 0;
    AG_ASSIGN_OR_RETURN(flag, r->U8());
    episode->recovered = flag != 0;
    AG_ASSIGN_OR_RETURN(flag, r->U8());
    episode->abandoned = flag != 0;
    return Status::OK();
  };
  uint64_t open_count = 0;
  AG_ASSIGN_OR_RETURN(open_count, r->U64());
  AG_RETURN_IF_ERROR(r->CheckCount(open_count, 8 + kMinEpisodeBytes));
  open_.clear();
  for (uint64_t i = 0; i < open_count; ++i) {
    uint64_t token = 0;
    AG_ASSIGN_OR_RETURN(token, r->U64());
    Episode episode;
    AG_RETURN_IF_ERROR(read_episode(&episode));
    open_.emplace(token, std::move(episode));
  }
  uint64_t closed_count = 0;
  AG_ASSIGN_OR_RETURN(closed_count, r->U64());
  AG_RETURN_IF_ERROR(r->CheckCount(closed_count, kMinEpisodeBytes));
  closed_.clear();
  closed_.reserve(closed_count);
  for (uint64_t i = 0; i < closed_count; ++i) {
    Episode episode;
    AG_RETURN_IF_ERROR(read_episode(&episode));
    closed_.push_back(std::move(episode));
  }
  for (int64_t& count : injected_by_kind_) {
    AG_ASSIGN_OR_RETURN(count, r->I64());
  }
  return Status::OK();
}

std::string RenderAvailabilityReport(const AvailabilityReport& report) {
  std::string out;
  out += StrFormat(
      "faults injected: %lld (instance crashes %lld, server failures "
      "%lld, action-failure windows %lld, monitor dropouts %lld)\n",
      static_cast<long long>(report.faults_injected),
      static_cast<long long>(report.instance_crashes),
      static_cast<long long>(report.server_failures),
      static_cast<long long>(report.action_failure_windows),
      static_cast<long long>(report.monitor_dropouts));
  out += StrFormat(
      "episodes: %lld (detected %lld, recovered %lld, abandoned %lld, "
      "open %lld)\n",
      static_cast<long long>(report.episodes),
      static_cast<long long>(report.detected),
      static_cast<long long>(report.recovered),
      static_cast<long long>(report.abandoned),
      static_cast<long long>(report.open));
  out += StrFormat("MTTD: %.2f min mean\n", report.mttd_minutes_mean);
  out += StrFormat("MTTR: %.2f min mean, %.2f min max\n",
                   report.mttr_minutes_mean, report.mttr_minutes_max);
  out += StrFormat("unavailability: %.1f instance-minutes\n",
                   report.unavailability_instance_minutes);
  out += StrFormat("recovery objective satisfaction: %.1f%%\n",
                   report.objective_satisfaction * 100.0);
  return out;
}

}  // namespace autoglobe::faults
