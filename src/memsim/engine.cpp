#include "memsim/engine.hpp"

#include "telemetry/telemetry.hpp"

namespace comet::memsim {

SimStats Engine::run(const std::vector<Request>& requests,
                     const std::string& workload_name) const {
  VectorSource source(requests);
  return run(source, workload_name);
}

telemetry::Recorder* Engine::telemetry_stage(const DeviceModel& model) const {
  if (telemetry_ == nullptr) return nullptr;
  return telemetry_->add_stage("", model.timing.channels,
                               model.timing.banks_per_channel,
                               telemetry_->spec().trace_limit);
}

}  // namespace comet::memsim
