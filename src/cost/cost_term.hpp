#pragma once

#include <string_view>

#include "src/cost/partials.hpp"
#include "src/markov/fundamental.hpp"

namespace mocos::cost {

/// One additive objective in the multi-objective cost function.
///
/// A term exposes its scalar value and accumulates its ∂U/∂π, ∂U/∂Z, ∂U/∂P
/// contributions; the composite cost sums terms and applies the Markov-chain
/// chain rule (Eq. 10) once. A term declares whether it reads Z: the
/// descent analyzes every probe for π alone unless some term does. New
/// objectives (information capture, latency, ...) plug in by implementing
/// this interface — exactly the extensibility the paper claims for its
/// formulation (§III, §VII).
class CostTerm {
 public:
  virtual ~CostTerm() = default;

  virtual std::string_view name() const = 0;

  /// True when value() or accumulate_partials() reads the fundamental
  /// matrix Z (and so may write ∂U/∂Z). A term that reads Z without saying
  /// so fails with markov::MissingFundamentalError on a π-only analysis.
  virtual bool needs_fundamental() const { return false; }

  /// Scalar value at the analyzed chain. May return +infinity (e.g. the
  /// barrier outside the open polytope); must not return NaN for valid
  /// inputs.
  virtual double value(const markov::ChainAnalysis& chain) const = 0;

  /// Adds this term's partial derivatives into `out` (sized to the chain).
  virtual void accumulate_partials(const markov::ChainAnalysis& chain,
                                   Partials& out) const = 0;
};

}  // namespace mocos::cost
