#include "config/device_spec.hpp"

#include <stdexcept>

namespace comet::config {

DeviceSpec::DeviceSpec(memsim::DeviceModel model)
    : name(model.name), flat(std::move(model)) {}

DeviceSpec::DeviceSpec(hybrid::TieredConfig config)
    : name(config.name), tiered(std::move(config)) {}

int DeviceSpec::channels() const {
  // .value() so a default-constructed (never-assigned) spec throws
  // std::bad_optional_access instead of silently reading garbage.
  return is_hybrid() ? tiered->backend.timing.channels
                     : flat.value().timing.channels;
}

std::unique_ptr<memsim::Engine> DeviceSpec::make_engine(
    const std::optional<sched::ControllerConfig>& controller,
    int run_threads) const {
  if (tiered) {
    return std::make_unique<hybrid::TieredSystem>(*tiered, controller,
                                                  run_threads);
  }
  if (flat) {
    return std::make_unique<sched::FlatSystem>(*flat, controller, run_threads);
  }
  throw std::logic_error(
      "DeviceSpec::make_engine: empty spec '" + name +
      "' (default-constructed; neither flat nor tiered is engaged — build "
      "specs through make_device_spec/resolve_device_specs)");
}

void DeviceSpec::set_channels(int channels) {
  if (tiered) {
    // The override targets the main-memory part: for hybrid devices
    // that is the backend behind the cache tier.
    tiered->backend.timing.channels = channels;
    tiered->validate();
    return;
  }
  if (flat) {
    flat->timing.channels = channels;
    flat->validate();
    return;
  }
  throw std::logic_error(
      "DeviceSpec::set_channels: empty spec '" + name +
      "' (neither flat nor tiered is engaged)");
}

}  // namespace comet::config
