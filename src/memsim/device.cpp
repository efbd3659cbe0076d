#include "memsim/device.hpp"

#include <stdexcept>

namespace comet::memsim {

void DeviceModel::validate() const {
  if (name.empty()) throw std::invalid_argument("DeviceModel: empty name");
  if (timing.channels < 1 || timing.banks_per_channel < 1) {
    throw std::invalid_argument("DeviceModel: bad topology");
  }
  if (timing.line_bytes == 0 ||
      (timing.line_bytes & (timing.line_bytes - 1)) != 0) {
    throw std::invalid_argument("DeviceModel: line size must be 2^k");
  }
  if (timing.accesses_per_line < 1) {
    throw std::invalid_argument("DeviceModel: accesses_per_line < 1");
  }
  if (timing.queue_depth < 1) {
    throw std::invalid_argument("DeviceModel: queue_depth < 1");
  }
  // Every device places requests by row (AddressMap divides by it),
  // row buffer or not.
  if (timing.row_size_bytes == 0) {
    throw std::invalid_argument("DeviceModel: row_size_bytes must be > 0");
  }
  if (timing.refresh_interval_ps != 0 &&
      timing.refresh_duration_ps >= timing.refresh_interval_ps) {
    throw std::invalid_argument("DeviceModel: refresh duration >= interval");
  }
  if (capacity_bytes == 0) {
    throw std::invalid_argument("DeviceModel: zero capacity");
  }
}

}  // namespace comet::memsim
