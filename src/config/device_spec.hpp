#pragma once

#include <memory>
#include <optional>
#include <string>

#include "hybrid/tiered_system.hpp"
#include "memsim/device.hpp"
#include "memsim/engine.hpp"
#include "sched/controller.hpp"

/// The resolved-architecture type shared by the registry, the config
/// files and the sweep engine.
///
/// DeviceSpec started life inside the driver's registry; it now lives in
/// the config layer so that declarative documents (`--config`,
/// `--device-file`) and the built-in registry tokens resolve to the same
/// struct and flow through one code path. comet::driver aliases it, so
/// registry call sites are unchanged.
namespace comet::config {

/// One resolved device: either a flat memsim::DeviceModel or a hybrid
/// hybrid::TieredConfig, under one display name. A resolved spec always
/// has exactly one of the two optionals engaged; call sites never read
/// them directly — make_engine() hands back the polymorphic
/// memsim::Engine that replays this architecture, and set_channels()
/// applies the one override that reaches inside a model. (A
/// default-constructed spec has *neither* optional engaged; every
/// accessor below fails loudly on one rather than dereferencing an
/// empty optional.)
struct DeviceSpec {
  std::string name;
  std::optional<memsim::DeviceModel> flat;     ///< Engaged for flat devices.
  std::optional<hybrid::TieredConfig> tiered;  ///< Engaged for hybrid ones.

  DeviceSpec() = default;
  explicit DeviceSpec(memsim::DeviceModel model);
  explicit DeviceSpec(hybrid::TieredConfig config);

  bool is_hybrid() const { return tiered.has_value(); }

  /// Channel count of the (backend) main-memory device.
  int channels() const;

  /// Instantiates the replay engine for this architecture: a
  /// sched::FlatSystem for flat specs, a hybrid::TieredSystem for
  /// hybrid ones, each handed `controller` and `run_threads` as they
  /// are. Both engines choose their per-channel lanes with one builder,
  /// sched::make_lanes: a Controller per channel when a controller
  /// config is given (for hybrid specs, on the backend miss stream),
  /// else a plain ReplaySession. With run_threads > 1 (0 = one per
  /// hardware thread, memsim::resolve_run_threads) the lanes run on a
  /// worker pool, with results bit-identical to run_threads == 1 for
  /// every combination. Throws std::logic_error on a
  /// default-constructed spec with neither alternative engaged.
  std::unique_ptr<memsim::Engine> make_engine(
      const std::optional<sched::ControllerConfig>& controller = std::nullopt,
      int run_threads = 1) const;

  /// Applies a channel-count override to the main-memory part (the
  /// backend behind the cache tier for hybrid specs) and re-validates
  /// the adjusted model. Throws std::logic_error on an empty spec.
  void set_channels(int channels);
};

}  // namespace comet::config
