// Small statistics toolkit for the benchmark harness: log-log
// growth-exponent fitting. The experiment tables report, for each claimed
// bound O(n^p polylog n), the least-squares slope of log(measured) versus
// log(n), which is how "the shape holds" is checked.
#pragma once

#include <cstdint>
#include <vector>

namespace gather::support {

struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  double r_squared = 0.0;
};

/// Ordinary least squares y = slope * x + intercept.
/// Requires xs.size() == ys.size() >= 2 and xs not all equal.
[[nodiscard]] LinearFit linear_fit(const std::vector<double>& xs,
                                   const std::vector<double>& ys);

/// Fit log(y) = p * log(x) + c and return p — the empirical growth exponent
/// of y as a function of x. Requires all inputs positive.
[[nodiscard]] LinearFit loglog_fit(const std::vector<double>& xs,
                                   const std::vector<double>& ys);

}  // namespace gather::support
