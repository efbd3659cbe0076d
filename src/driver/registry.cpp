#include "driver/registry.hpp"

#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/comet_config.hpp"
#include "core/comet_memory.hpp"
#include "cosmos/cosmos_config.hpp"
#include "cosmos/cosmos_memory.hpp"
#include "dram/dram_device.hpp"
#include "dram/epcm.hpp"
#include "photonics/losses.hpp"

namespace comet::driver {

namespace {

/// The built-in hybrid design points, expressed in the exact document
/// format `--config` and `--device-file` accept: a DRAM cache tier
/// ([device.cache]) promoted in front of a flat backend (`base`). The
/// registry is just a parsed config document — user files and built-in
/// tokens flow through config::parse_device alike. Order here is the
/// expansion order of `hybrid-all`.
constexpr char kBuiltinHybridSpecs[] = R"(
[[device]]
name = "hybrid-comet"
base = "comet"
[device.cache]
capacity_mb = 64

[[device]]
name = "hybrid-comet-small"
base = "comet"
[device.cache]
capacity_mb = 16

[[device]]
name = "hybrid-comet-large"
base = "comet"
[device.cache]
capacity_mb = 256

[[device]]
name = "hybrid-epcm"
base = "epcm"
[device.cache]
capacity_mb = 64

[[device]]
name = "hybrid-cosmos"
base = "cosmos"
[device.cache]
capacity_mb = 64
)";

std::invalid_argument unknown_token(const std::string& token) {
  std::ostringstream msg;
  msg << "unknown device '" << token << "'; expected one of: all";
  for (const auto& name : known_devices()) msg << ", " << name;
  msg << ", hybrid-all";
  for (const auto& name : known_hybrid_devices()) msg << ", " << name;
  return std::invalid_argument(msg.str());
}

/// The flat factories, or nullopt for any other token.
std::optional<memsim::DeviceModel> flat_model(const std::string& token) {
  if (token == "ddr3") return dram::ddr3_2d();
  if (token == "ddr3_3d") return dram::ddr3_3d();
  if (token == "ddr4") return dram::ddr4_2d();
  // The 3D-stacked DDR4 baseline is the HBM-class part (see
  // dram/dram_device.hpp); `hbm` is an alias users expect.
  if (token == "ddr4_3d" || token == "hbm") return dram::ddr4_3d();
  if (token == "epcm") return dram::epcm_mm();
  if (token == "cosmos") {
    return cosmos::cosmos_device_model(cosmos::CosmosConfig::paper(),
                                       photonics::LossParameters::paper());
  }
  if (token == "comet") {
    return core::CometMemory::device_model(core::CometConfig::comet_4b(),
                                           photonics::LossParameters::paper());
  }
  return std::nullopt;
}

/// Parsed-once view of the built-in hybrid document.
const std::vector<config::toml::Table>& builtin_hybrid_tables() {
  static const config::toml::Document doc =
      config::toml::parse_string(kBuiltinHybridSpecs, "<registry>");
  return doc.root.arrays.at("device");
}

}  // namespace

std::vector<std::string> known_devices() {
  return {"ddr3", "ddr3_3d", "ddr4", "ddr4_3d", "hbm",
          "epcm", "cosmos", "comet"};
}

std::vector<std::string> known_hybrid_devices() {
  std::vector<std::string> tokens;
  for (const auto& table : builtin_hybrid_tables()) {
    tokens.push_back(table.values.at("name").str);
  }
  return tokens;
}

DeviceSpec make_device_spec(const std::string& token) {
  if (auto model = flat_model(token)) {
    return DeviceSpec(*std::move(model));
  }
  for (const auto& table : builtin_hybrid_tables()) {
    if (table.values.at("name").str != token) continue;
    // The built-ins' bases are flat tokens.
    return config::parse_device(table, "<registry>", resolve_device_specs);
  }
  throw unknown_token(token);
}

std::vector<DeviceSpec> resolve_device_specs(const std::string& spec) {
  std::vector<DeviceSpec> specs;
  if (spec == "all") {
    for (const auto& token : known_devices()) {
      if (token == "hbm") continue;  // Alias of ddr4_3d, not an 8th device.
      specs.push_back(make_device_spec(token));
    }
  } else if (spec == "hybrid-all") {
    for (const auto& token : known_hybrid_devices()) {
      specs.push_back(make_device_spec(token));
    }
  } else {
    specs.push_back(make_device_spec(spec));
  }
  return specs;
}

}  // namespace comet::driver
