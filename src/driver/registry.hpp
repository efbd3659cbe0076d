#pragma once

#include <string>
#include <vector>

#include "config/device_spec.hpp"
#include "config/serialize.hpp"

/// CLI-token → architecture registry for the comet_sim driver.
///
/// Tokens are the names users type on the command line (`--device
/// comet`, `--device hybrid-comet`). Flat tokens resolve to the
/// paper-configured DeviceModel factories from the dram/cosmos/core
/// layers; `hybrid-*` tokens are declarative specs — the same document
/// structure `--config` / `--device-file` accept — resolved through
/// config::parse_device, so built-ins and user files flow through one
/// code path. `all` expands to the seven Fig. 9 architectures in the
/// paper's presentation order; `hybrid-all` expands to every hybrid
/// design point. The config readers resolve every token through
/// resolve_device_specs as they read it.
namespace comet::driver {

/// The resolved-device type is shared with the config layer (it is what
/// config documents parse into).
using DeviceSpec = config::DeviceSpec;

/// Canonical flat device tokens accepted by `--device`, in expansion
/// order of `all`: ddr3, ddr3_3d, ddr4, ddr4_3d (alias: hbm), epcm,
/// cosmos, comet.
std::vector<std::string> known_devices();

/// Hybrid tokens, in expansion order of `hybrid-all`: hybrid-comet and
/// small/large cache variants, hybrid-epcm, hybrid-cosmos.
std::vector<std::string> known_hybrid_devices();

/// Builds the spec for any token, flat or hybrid: the one token factory
/// (a flat token's model is its `flat`). Throws std::invalid_argument
/// on unknown tokens.
DeviceSpec make_device_spec(const std::string& token);

/// Expands a device token: `all` → every flat device, `hybrid-all` →
/// every hybrid design point, otherwise the single named one. Throws
/// std::invalid_argument on unknown tokens. This is the
/// config::DeviceResolver the readers take, so documents can write
/// `devices = ["all"]` and `base = "comet"`.
std::vector<DeviceSpec> resolve_device_specs(const std::string& spec);

}  // namespace comet::driver
