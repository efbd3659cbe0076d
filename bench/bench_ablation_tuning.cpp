// Ablation (Section II.B design choice): electro-optic vs thermo-optic
// microring tuning for row access. Thermal tuning is microsecond-scale
// per access; EO tuning is 2 ns with higher insertion loss. The bench
// quantifies the end-to-end consequence: access latency and achieved
// bandwidth of a COMET whose MR access control were thermally tuned.

#include <iostream>

#include "core/comet_memory.hpp"
#include "memsim/trace_gen.hpp"
#include "photonics/microring.hpp"
#include "sched/controller.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

int main() {
  using comet::util::Table;
  const auto losses = comet::photonics::LossParameters::paper();

  const comet::photonics::Microring eo(
      comet::photonics::Microring::comet_access_design(1550.0), losses);
  auto thermal_design =
      comet::photonics::Microring::comet_access_design(1550.0);
  thermal_design.mechanism = comet::photonics::TuningMechanism::kThermal;
  const comet::photonics::Microring thermal(thermal_design, losses);

  std::cout << "=== Device level: MR tuning mechanisms ===\n";
  Table dev({"mechanism", "tuning latency (ns)", "drop loss (dB)",
             "through loss (dB)", "tuning power (uW/nm)"});
  dev.add_row({"electro-optic (COMET)", Table::num(eo.tuning_latency_ns(), 1),
               Table::num(eo.drop_loss_db(), 2),
               Table::num(eo.through_loss_db(), 2),
               Table::num(eo.tuning_power_w(1.0) * 1e6, 1)});
  dev.add_row({"thermo-optic [24]", Table::num(thermal.tuning_latency_ns(), 1),
               Table::num(thermal.drop_loss_db(), 2),
               Table::num(thermal.through_loss_db(), 2),
               Table::num(thermal.tuning_power_w(1.0) * 1e6, 1)});
  dev.print(std::cout);

  // Architecture level: replace the 2 ns row-access tuning with the
  // thermal settling time and replay a mixed workload.
  std::cout << "\n=== Architecture level: COMET with each mechanism ===\n";
  Table arch({"variant", "read latency (ns)", "achieved BW (GB/s)"});
  auto profile = comet::memsim::profile_by_name("gcc_like");
  profile.avg_interarrival_ns = 0.5;  // saturating arrivals
  const comet::memsim::TraceGenerator gen(profile, 7);
  const auto trace = gen.generate(40000, 128);

  for (const bool use_thermal : {false, true}) {
    auto config = comet::core::CometConfig::comet_4b();
    config.mr_tuning_ns = use_thermal ? thermal.tuning_latency_ns()
                                      : eo.tuning_latency_ns();
    const auto device =
        comet::core::CometMemory::device_model(config, losses);
    const comet::sched::FlatSystem system(device);
    const auto stats = system.run(trace, profile.name);
    arch.add_row({use_thermal ? "thermo-optic tuning" : "electro-optic tuning",
                  Table::num(
                      comet::util::ps_to_ns(device.timing.read_occupancy_ps) +
                          comet::util::ps_to_ns(device.timing.interface_ps),
                      1),
                  Table::num(stats.bandwidth_gbps(), 2)});
  }
  arch.print(std::cout);
  std::cout << "\nPaper argument (Section II.B): us-scale thermal tuning on\n"
               "every access would severely cut bandwidth, hence COMET's\n"
               "EO tuning despite its higher insertion losses.\n";
  return 0;
}
