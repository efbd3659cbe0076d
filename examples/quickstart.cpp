// Quickstart: the COMET public API in five minutes.
//
// Builds the paper's COMET-4b memory (a smaller-capacity variant so the
// functional cell arrays stay light), writes and reads cache lines
// through the full material -> photonic -> architecture stack, and runs
// a short trace through the cycle-level simulator.
//
//   build/examples/quickstart

#include <cstdint>
#include <iostream>
#include <vector>

#include "config/device_spec.hpp"
#include "core/comet_memory.hpp"
#include "memsim/trace_gen.hpp"

int main() {
  // 1. Configure. comet_4b() is the paper's chosen design point
  //    (4 banks x 4096 subarrays x 512 rows x 256 cols x 4 bits/cell);
  //    shrink the subarray count for a quick functional demo.
  auto config = comet::core::CometConfig::comet_4b();
  config.subarrays = 16;
  config.rows_per_subarray = 64;
  config.channels = 2;

  // 2. The functional memory: real GST cells programmed through the
  //    calibrated thermal model and read back through the loss/gain/
  //    classification chain.
  comet::core::CometMemory memory(config);
  std::cout << "COMET functional memory\n"
            << "  bits/cell:     " << config.bits_per_cell << "\n"
            << "  line size:     " << config.line_bytes() << " B\n"
            << "  level spacing: " << memory.level_table().level_spacing()
            << " (paper: ~6 %)\n"
            << "  max write:     "
            << memory.level_table().max_write_latency_ns()
            << " ns (Table II: 170 ns)\n\n";

  const auto line = config.line_bytes();
  std::vector<std::uint8_t> data(line), readback(line);
  for (std::size_t i = 0; i < line; ++i) {
    data[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }

  const auto write = memory.write_line(/*address=*/0, data);
  const auto read = memory.read_line(/*address=*/0, readback);
  std::cout << "wrote one line:  " << write.latency_ns << " ns, "
            << write.energy_pj << " pJ\n"
            << "read it back:    " << read.latency_ns << " ns, correct = "
            << std::boolalpha << (read.correct && readback == data)
            << "\n\n";

  // 3. The architecture simulator: replay a SPEC-like trace against the
  //    full 8 GB COMET device model. make_engine() builds the replay
  //    engine of any architecture, flat or hybrid; it also takes a
  //    controller config and a run-thread count.
  const auto device = comet::core::CometMemory::device_model(
      comet::core::CometConfig::comet_4b(),
      comet::photonics::LossParameters::paper());
  const auto engine = comet::config::DeviceSpec(device).make_engine();

  const auto profile = comet::memsim::profile_by_name("gcc_like");
  const comet::memsim::TraceGenerator gen(profile, /*seed=*/1);
  const auto stats = engine->run(gen.generate(20000, 128), profile.name);

  std::cout << "trace replay (" << profile.name << ", 20k requests)\n"
            << "  bandwidth:   " << stats.bandwidth_gbps() << " GB/s\n"
            << "  avg latency: " << stats.avg_latency_ns() << " ns\n"
            << "  energy/bit:  " << stats.epb_pj_per_bit() << " pJ/bit\n";
  return 0;
}
