#include "src/cost/composite_cost.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "src/obs/phase_timer.hpp"

namespace mocos::cost {

CompositeCost& CompositeCost::add(std::unique_ptr<CostTerm> term) {
  if (!term) throw std::invalid_argument("CompositeCost::add: null term");
  terms_.push_back(std::move(term));
  return *this;
}

const CostTerm& CompositeCost::term(std::size_t i) const {
  if (i >= terms_.size()) throw std::out_of_range("CompositeCost::term");
  return *terms_[i];
}

bool CompositeCost::needs_fundamental() const {
  for (const auto& t : terms_)
    if (t->needs_fundamental()) return true;
  return false;
}

double CompositeCost::value(const markov::ChainAnalysis& chain) const {
  double u = 0.0;
  for (const auto& t : terms_) {
    obs::ScopedPhase phase(t->name());
    u += t->value(chain);
    if (std::isinf(u)) return u;
  }
  return u;
}

double CompositeCost::value(const markov::TransitionMatrix& p) const {
  return value(markov::try_analyze_chain(p, markov::SolvePolicy::kAuto,
                                         analysis_level())
                   .value());
}

Partials CompositeCost::partials(const markov::ChainAnalysis& chain) const {
  Partials out(chain.p);
  for (const auto& t : terms_) t->accumulate_partials(chain, out);
  return out;
}

void CompositeCost::partials_into(const markov::ChainAnalysis& chain,
                                  Partials& out) const {
  if (out.size() != chain.p.size())
    throw std::invalid_argument("CompositeCost::partials_into: size mismatch");
  out.clear();
  for (const auto& t : terms_) t->accumulate_partials(chain, out);
}

std::vector<std::pair<std::string, double>> CompositeCost::breakdown(
    const markov::ChainAnalysis& chain) const {
  std::vector<std::pair<std::string, double>> out;
  out.reserve(terms_.size());
  for (const auto& t : terms_)
    out.emplace_back(std::string(t->name()), t->value(chain));
  return out;
}

}  // namespace mocos::cost
