// Reservations ablation (paper §7 future work: "an administrator can
// register mission-critical tasks along with their resource
// requirements ... used to improve the action and host selection
// process"). A nightly 6-wu batch window is registered on DBServer2
// and DBServer3; with the reservation book installed the controller
// steers scale-outs and moves elsewhere during (and shortly before)
// the window, keeping the reserved headroom free.

#include <cstdio>

#include "bench_util.h"
#include "common/strings.h"

using namespace autoglobe;
using namespace autoglobe::bench;

namespace {

struct NightStats {
  double reserved_host_app_load = 0.0;  // avg app load on DBServer2/3
                                        // during the window
  int samples = 0;
  RunMetrics metrics;
};

NightStats Run(bool with_reservations) {
  Landscape landscape = MakePaperLandscape(Scenario::kFullMobility);
  RunnerConfig config = MakeScenarioConfig(Scenario::kFullMobility, 1.25);
  if (with_reservations) {
    for (const char* server : {"DBServer2", "DBServer3"}) {
      controller::Reservation nightly;
      nightly.task = "month-end-close";
      nightly.server = server;
      nightly.cpu_wu = 6.0;
      nightly.memory_gb = 4.0;
      nightly.from = SimTime::Start() + Duration::Hours(22);
      nightly.until = SimTime::Start() + Duration::Hours(6);
      nightly.daily = true;
      nightly.for_service = "DB-BW";  // the batch database itself

      config.reservations.push_back(nightly);
    }
  }
  auto runner = SimulationRunner::Create(landscape, config);
  AG_CHECK_OK(runner.status());
  NightStats stats;
  (*runner)->set_sample_hook([&stats](SimTime now,
                                      const workload::DemandEngine& demand,
                                      const infra::Cluster& cluster) {
    int hour = now.HourOfDay();
    bool in_window = hour >= 22 || hour < 6;
    if (!in_window) return;
    for (const char* server : {"DBServer2", "DBServer3"}) {
      double app_load = 0.0;
      for (const infra::ServiceInstance* instance :
           cluster.InstancesOn(server)) {
        auto spec = cluster.FindService(instance->service);
        if (spec.ok() &&
            (*spec)->role == infra::ServiceRole::kApplicationServer) {
          app_load += demand.InstanceLoad(instance->id);
        }
      }
      stats.reserved_host_app_load += app_load;
      ++stats.samples;
    }
  });
  AG_CHECK_OK((*runner)->Run());
  stats.metrics = (*runner)->metrics();
  if (stats.samples > 0) stats.reserved_host_app_load /= stats.samples;
  return stats;
}

}  // namespace

int main() {
  std::printf("# Reservations: a nightly 6-wu/4-GB batch window on "
              "DBServer2+3 (FM, users +25%%)\n\n");
  NightStats without = Run(false);
  NightStats with = Run(true);
  std::printf("%-22s %22s %18s\n", "", "app load on reserved",
              "overload (min)");
  std::printf("%-22s %21.1f%% %18.0f\n", "no reservation book",
              without.reserved_host_app_load * 100,
              without.metrics.overload_server_minutes);
  std::printf("%-22s %21.1f%% %18.0f\n", "with reservations",
              with.reserved_host_app_load * 100,
              with.metrics.overload_server_minutes);
  std::printf("\n# (shape: with the book installed, the big hosts stay "
              "clear of application work\n#  during the reserved window, "
              "at the cost of squeezing the blades harder)\n");
  return 0;
}
