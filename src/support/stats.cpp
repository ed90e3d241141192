#include "support/stats.hpp"

#include <cmath>

#include "support/assert.hpp"

namespace gather::support {

LinearFit linear_fit(const std::vector<double>& xs, const std::vector<double>& ys) {
  GATHER_EXPECTS(xs.size() == ys.size());
  GATHER_EXPECTS(xs.size() >= 2);
  const double n = static_cast<double>(xs.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ys[i];
    syy += ys[i] * ys[i];
  }
  const double denom = n * sxx - sx * sx;
  GATHER_EXPECTS(denom != 0.0);
  LinearFit fit;
  fit.slope = (n * sxy - sx * sy) / denom;
  fit.intercept = (sy - fit.slope * sx) / n;
  const double ss_tot = syy - sy * sy / n;
  double ss_res = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double e = ys[i] - (fit.slope * xs[i] + fit.intercept);
    ss_res += e * e;
  }
  fit.r_squared = ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 1.0;
  return fit;
}

LinearFit loglog_fit(const std::vector<double>& xs, const std::vector<double>& ys) {
  GATHER_EXPECTS(xs.size() == ys.size());
  std::vector<double> lx(xs.size()), ly(ys.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    GATHER_EXPECTS(xs[i] > 0.0 && ys[i] > 0.0);
    lx[i] = std::log(xs[i]);
    ly[i] = std::log(ys[i]);
  }
  return linear_fit(lx, ly);
}

}  // namespace gather::support
