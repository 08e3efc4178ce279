// Special functions shared by the distribution and hypothesis-testing code.

#ifndef IPS_STATS_SPECIAL_H_
#define IPS_STATS_SPECIAL_H_

#include <cmath>

namespace ips {

/// Logistic function 1 / (1 + exp(-x)), split on the sign of x so exp only
/// ever sees -|x| and cannot overflow: for x >= 0 this is exactly
/// 1 / (1 + exp(-x)), and for x < 0 it is the algebraically equal
/// exp(x) / (1 + exp(x)).
inline double Sigmoid(double x) {
  const double e = std::exp(std::copysign(x, -1.0));
  return (std::signbit(x) ? e : 1.0) / (1.0 + e);
}

/// Regularised lower incomplete gamma function P(a, x) for a > 0, x >= 0.
double RegularizedGammaP(double a, double x);

/// CDF of the chi-squared distribution with `dof` degrees of freedom.
double ChiSquaredCdf(double x, double dof);

/// CDF of the standard normal distribution.
double StandardNormalCdf(double z);

}  // namespace ips

#endif  // IPS_STATS_SPECIAL_H_
