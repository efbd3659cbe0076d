#pragma once

#include <optional>
#include <string>
#include <vector>

#include "config/device_spec.hpp"
#include "config/serialize.hpp"
#include "memsim/device.hpp"

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

/// `--cache-*` CLI overrides applied on top of each hybrid variant's
/// defaults. Disengaged optionals keep the variant's own value — the
/// explicit form of "unset", so a literal 0 can never be conflated with
/// "keep the default". Flat devices ignore them.
struct HybridOverrides {
  std::optional<std::uint64_t> cache_mb;   ///< DRAM tier capacity [MiB].
  std::optional<int> cache_ways;           ///< Associativity.
  std::optional<std::string> cache_policy; ///< "write-allocate" |
                                           ///< "write-no-allocate".

  bool any() const {
    return cache_mb.has_value() || cache_ways.has_value() ||
           cache_policy.has_value();
  }
};

/// Builds the paper-configured model for one flat token; throws
/// std::invalid_argument naming the token and the valid flat set
/// otherwise (hybrid tokens resolve through make_device_spec).
memsim::DeviceModel make_device(const std::string& token);

/// Builds the spec for any token, flat or hybrid. Throws
/// std::invalid_argument on unknown tokens.
DeviceSpec make_device_spec(const std::string& token);

/// Applies the `--cache-*` overrides to a hybrid spec; flat specs pass
/// through untouched. The DRAM tier model is re-derived only when the
/// capacity changes (hybrid::TieredConfig::set_cache, the rule the
/// config reader applies too), so a --device-file's custom tier
/// survives --cache-ways and --cache-policy. One path for registry
/// tokens and --device-file specs alike. Throws std::invalid_argument
/// on an invalid resulting geometry or policy.
DeviceSpec apply_hybrid_overrides(DeviceSpec spec,
                                  const HybridOverrides& overrides);

/// Expands a device token: `all` → every flat device, `hybrid-all` →
/// every hybrid design point, otherwise the single named one. Throws
/// std::invalid_argument on unknown tokens. This is the
/// config::DeviceResolver the readers take, so documents can write
/// `devices = ["all"]` and `base = "comet"`.
std::vector<DeviceSpec> resolve_device_specs(const std::string& spec);

}  // namespace comet::driver
