// Memory-architecture comparison on a workload of your choice.
//
// The scenario from the paper's introduction: a data-intensive
// application (default: a graph-processing-like pointer chase) running
// against every memory architecture in the study. Prints achieved
// bandwidth, latency and energy-per-bit per architecture.
//
//   build/examples/memory_comparison [profile] [requests]
//   profiles: mcf_like lbm_like gcc_like milc_like omnetpp_like
//             xalancbmk_like leslie3d_like libquantum_like

#include <iostream>
#include <string>

#include "config/device_spec.hpp"
#include "core/comet_memory.hpp"
#include "cosmos/cosmos_memory.hpp"
#include "dram/dram_device.hpp"
#include "dram/epcm.hpp"
#include "memsim/trace_gen.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using comet::util::Table;
  const std::string profile_name = argc > 1 ? argv[1] : "mcf_like";
  const std::size_t requests =
      argc > 2 ? static_cast<std::size_t>(std::stoul(argv[2])) : 40000;

  auto profile = comet::memsim::profile_by_name(profile_name);
  const comet::memsim::TraceGenerator gen(profile, /*seed=*/99);
  const auto trace = gen.generate(requests, 128);

  const auto losses = comet::photonics::LossParameters::paper();
  std::vector<comet::memsim::DeviceModel> devices;
  devices.push_back(comet::dram::ddr3_2d());
  devices.push_back(comet::dram::ddr3_3d());
  devices.push_back(comet::dram::ddr4_2d());
  devices.push_back(comet::dram::ddr4_3d());
  devices.push_back(comet::dram::epcm_mm());
  devices.push_back(comet::cosmos::cosmos_device_model(
      comet::cosmos::CosmosConfig::paper(), losses));
  devices.push_back(comet::core::CometMemory::device_model(
      comet::core::CometConfig::comet_4b(), losses));

  std::cout << "workload: " << profile.name << "  (" << requests
            << " requests, " << (profile.read_fraction * 100)
            << " % reads)\n\n";
  Table table({"architecture", "BW (GB/s)", "avg latency (ns)",
               "p95 queueing (ns)", "EPB (pJ/bit)", "bank util (%)"});
  for (const auto& device : devices) {
    const auto engine = comet::config::DeviceSpec(device).make_engine();
    const auto stats = engine->run(trace, profile.name);
    const int banks =
        device.timing.channels * device.timing.banks_per_channel;
    table.add_row({device.name, Table::num(stats.bandwidth_gbps(), 2),
                   Table::num(stats.avg_latency_ns(), 1),
                   Table::num(stats.queue_delay_ns.max(), 1),
                   Table::num(stats.epb_pj_per_bit(), 1),
                   Table::num(stats.bank_utilization(banks) * 100, 1)});
  }
  table.print(std::cout);
  return 0;
}
