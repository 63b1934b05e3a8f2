#include "load/load_model.hpp"

#include <charconv>
#include <stdexcept>

#include "platform/cluster.hpp"

namespace simsweep::load {

std::string describe_number(double value) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc())
    throw std::runtime_error("describe_number: to_chars failed");
  return std::string(buf, ptr);
}

std::vector<std::unique_ptr<LoadSource>> LoadModel::attach_all(
    const LoadModel& model, sim::Simulator& simulator,
    platform::Cluster& cluster, std::uint64_t root_seed) {
  std::vector<std::unique_ptr<LoadSource>> sources;
  sources.reserve(cluster.size());
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    auto source = model.make_source(sim::derive_seed(root_seed, i));
    source->start(simulator, cluster.host(static_cast<platform::HostId>(i)));
    sources.push_back(std::move(source));
  }
  return sources;
}

}  // namespace simsweep::load
