// Ablation (Sections III.E & IV.A design choices):
//  (1) SOA spacing: the 15.2 dB intra-subarray SOA gain covers 46 rows of
//      0.33 dB EO-MR through loss; sweeping the spacing shows the
//      power/feasibility tradeoff (sparser stages exceed the gain budget).
//  (2) Gain-LUT sizing across bit densities (paper: 5 / 12 / 46 entries).
//  (3) Hidden-vs-serialized write-erase and GST subarray steering — the
//      two controller assumptions COMET's Table II timing rests on.

#include <iostream>

#include "core/comet_memory.hpp"
#include "core/gain_lut.hpp"
#include "memsim/trace_gen.hpp"
#include "sched/controller.hpp"
#include "util/table.hpp"

int main() {
  using comet::util::Table;
  const auto losses = comet::photonics::LossParameters::paper();

  std::cout << "=== (1) SOA spacing sweep (COMET-4b) ===\n";
  Table spacing({"rows per SOA", "span loss (dB)", "within 15.2 dB gain?",
                 "active SOAs", "SOA power (W)"});
  for (const int rows : {23, 34, 46, 58, 69, 92}) {
    auto config = comet::core::CometConfig::comet_4b();
    config.rows_per_soa = rows;
    const double span_loss = rows * losses.eo_mr_through_loss_db;
    const comet::core::CometPowerModel power(config, losses);
    spacing.add_row({std::to_string(rows), Table::num(span_loss, 2),
                     span_loss <= losses.intra_subarray_soa_gain_db ? "yes"
                                                                    : "NO",
                     std::to_string(config.active_soas()),
                     Table::num(power.soa_power_w(), 2)});
  }
  spacing.print(std::cout);
  std::cout << "(paper: 46 rows x 0.33 dB = 15.18 dB, exactly one 15.2 dB "
               "SOA stage)\n\n";

  std::cout << "=== (2) Gain-LUT sizing vs bit density ===\n";
  Table lut_table({"b", "tolerance (dB)", "LUT entries", "paper entries"});
  const int paper_entries[] = {5, 12, 0, 46};
  for (const int b : {1, 2, 4}) {
    auto config = comet::core::CometConfig::comet_4b();
    config.bits_per_cell = b;
    const comet::core::GainLut lut(config, losses);
    lut_table.add_row({std::to_string(b), Table::num(lut.tolerance_db(), 2),
                       std::to_string(lut.entries()),
                       std::to_string(paper_entries[b - 1])});
  }
  lut_table.print(std::cout);

  std::cout << "\n=== (3) Controller assumptions (gcc_like pattern, "
               "saturating arrivals) ===\n";
  auto profile = comet::memsim::profile_by_name("gcc_like");
  profile.avg_interarrival_ns = 0.5;  // saturating arrivals
  const comet::memsim::TraceGenerator gen(profile, 7);
  const auto trace = gen.generate(40000, 128);
  Table assumptions({"variant", "BW (GB/s)", "vs baseline"});
  double baseline_bw = 0.0;
  struct Variant {
    const char* name;
    bool serialize_switch;
    bool serialize_erase;
  };
  const Variant variants[] = {
      {"baseline (both hidden)", false, false},
      {"serialized GST subarray switch", true, false},
      {"serialized write-erase", false, true},
      {"both serialized", true, true},
  };
  for (const auto& v : variants) {
    const auto device = comet::core::CometMemory::device_model(
        comet::core::CometConfig::comet_4b(), losses, v.serialize_switch,
        v.serialize_erase);
    const comet::sched::FlatSystem system(device);
    const auto stats = system.run(trace, profile.name);
    const double bw = stats.bandwidth_gbps();
    if (baseline_bw == 0.0) baseline_bw = bw;
    assumptions.add_row({v.name, Table::num(bw, 2),
                         Table::num(bw / baseline_bw * 100, 1) + " %"});
  }
  assumptions.print(std::cout);
  std::cout << "\nThe hidden-erase (DyPhase-style pre-reset [19]) and\n"
               "speculative subarray steering assumptions are what let\n"
               "COMET sustain its Table II service rates under writes.\n";
  return 0;
}
