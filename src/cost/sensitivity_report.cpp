#include "src/cost/sensitivity_report.hpp"

#include <cmath>
#include <memory>

#include "src/cost/composite_cost.hpp"
#include "src/cost/coverage_term.hpp"
#include "src/cost/exposure_term.hpp"
#include "src/cost/gradient.hpp"
#include "src/cost/metrics.hpp"

namespace mocos::cost {

MetricSensitivity metric_sensitivity(const markov::ChainAnalysis& chain,
                                     const sensing::CoverageTensors& tensors,
                                     const std::vector<double>& targets) {
  // ΔC = Σ g_i² = 2 · U_cov(α = 1)  ⇒  ∇ΔC = 2 ∇U_cov.
  CompositeCost cov;
  cov.add(std::make_unique<CoverageDeviationTerm>(tensors, targets, 1.0));
  MetricSensitivity out{
      (projected_cost_gradient(cov, chain) * 2.0).to_dense(),
      linalg::Matrix(chain.p.size(), chain.p.size())};

  // Ē = sqrt(Σ Ē_i²); U_exp(β = 1) = ½ Σ Ē_i² = ½ Ē²  ⇒  ∇Ē = ∇U_exp / Ē.
  CompositeCost exp_cost;
  exp_cost.add(std::make_unique<ExposureTerm>(chain.p.size(), 1.0));
  const Metrics m = compute_metrics(chain, tensors, targets);
  if (m.e_bar > 0.0)
    out.e_bar =
        (projected_cost_gradient(exp_cost, chain) * (1.0 / m.e_bar)).to_dense();
  return out;
}

}  // namespace mocos::cost
