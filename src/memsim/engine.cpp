#include "memsim/engine.hpp"

namespace comet::memsim {

SimStats Engine::run(const std::vector<Request>& requests,
                     const std::string& workload_name,
                     telemetry::Collector* collector,
                     prof::Profiler* profiler) const {
  VectorSource source(requests);
  return run(source, workload_name, collector, profiler);
}

}  // namespace comet::memsim
