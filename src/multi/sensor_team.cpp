#include "src/multi/sensor_team.hpp"

#include <stdexcept>
#include <utility>

#include "src/cost/metrics.hpp"
#include "src/sensing/coverage_tensors.hpp"

namespace mocos::multi {

SensorTeam::SensorTeam(const sensing::MotionModel& model,
                       std::vector<markov::TransitionMatrix> chains)
    : model_(model), chains_(std::move(chains)) {
  if (chains_.empty())
    throw std::invalid_argument("SensorTeam: need at least one sensor");
  for (const auto& p : chains_)
    if (p.size() != model_.num_pois())
      throw std::invalid_argument("SensorTeam: chain size != num PoIs");
}

const markov::TransitionMatrix& SensorTeam::chain(std::size_t k) const {
  if (k >= chains_.size()) throw std::out_of_range("SensorTeam::chain");
  return chains_[k];
}

std::vector<double> SensorTeam::sensor_coverage(std::size_t k) const {
  const sensing::CoverageTensors tensors(model_);
  return cost::coverage_shares(
      markov::try_analyze_chain(chain(k), markov::SolvePolicy::kAuto,
                                markov::AnalysisLevel::kStationary)
          .value(),
      tensors);
}

std::vector<double> SensorTeam::combined_coverage() const {
  const sensing::CoverageTensors tensors(model_);
  std::vector<double> not_covered(num_pois(), 1.0);
  for (const auto& p : chains_) {
    const auto c = cost::coverage_shares(
        markov::try_analyze_chain(p, markov::SolvePolicy::kAuto,
                                  markov::AnalysisLevel::kStationary)
            .value(),
        tensors);
    for (std::size_t i = 0; i < num_pois(); ++i)
      not_covered[i] *= 1.0 - c[i];
  }
  std::vector<double> out(num_pois());
  for (std::size_t i = 0; i < num_pois(); ++i) out[i] = 1.0 - not_covered[i];
  return out;
}

}  // namespace mocos::multi
