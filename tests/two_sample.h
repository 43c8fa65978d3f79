// Two-sample statistics for the equivalence tests: is sample `a` drawn
// from the same distribution as sample `b`?
//
// Test-only on purpose: no binary needs these verdicts yet, so they
// live beside the tests that use them rather than in src/stats.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace mvsim::stats {

/// Two-sample Kolmogorov-Smirnov statistic D = sup_x |F_a(x) - F_b(x)|
/// over the two empirical CDFs. Ties (within and across samples) are
/// stepped over together, and +infinity is an ordinary value, so "never
/// happened" outcomes compare equal to each other and above every
/// finite one.
inline double ks_statistic(std::vector<double> a, std::vector<double> b) {
  if (a.empty() || b.empty()) throw std::invalid_argument("ks_statistic: empty sample");
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  const double n = static_cast<double>(a.size());
  const double m = static_cast<double>(b.size());
  std::size_t i = 0;
  std::size_t j = 0;
  double d = 0.0;
  while (i < a.size() && j < b.size()) {
    const double x = std::min(a[i], b[j]);
    while (i < a.size() && a[i] == x) ++i;
    while (j < b.size() && b[j] == x) ++j;
    d = std::max(d, std::abs(static_cast<double>(i) / n - static_cast<double>(j) / m));
  }
  return d;
}

/// Asymptotic critical value of the two-sample KS test at level
/// `alpha`: c(alpha) * sqrt((n + m) / (n m)), c(alpha) =
/// sqrt(-ln(alpha / 2) / 2). D above it rejects "same distribution".
inline double ks_critical_value(std::size_t n, std::size_t m, double alpha) {
  const double c = std::sqrt(-std::log(alpha / 2.0) / 2.0);
  const auto nd = static_cast<double>(n);
  const auto md = static_cast<double>(m);
  return c * std::sqrt((nd + md) / (nd * md));
}

struct WelchResult {
  double t = 0.0;   ///< (mean_a - mean_b) / standard error of the difference
  double df = 0.0;  ///< Welch-Satterthwaite degrees of freedom
};

/// Welch's unequal-variance t statistic for mean_a == mean_b. Both
/// samples need at least two finite values and not both zero variance.
inline WelchResult welch_t(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() < 2 || b.size() < 2) throw std::invalid_argument("welch_t: need n >= 2");
  auto moments = [](const std::vector<double>& x, double& mean, double& var) {
    mean = 0.0;
    for (double v : x) mean += v;
    mean /= static_cast<double>(x.size());
    var = 0.0;
    for (double v : x) var += (v - mean) * (v - mean);
    var /= static_cast<double>(x.size() - 1);
  };
  double mean_a = 0.0, var_a = 0.0, mean_b = 0.0, var_b = 0.0;
  moments(a, mean_a, var_a);
  moments(b, mean_b, var_b);
  const double se_a = var_a / static_cast<double>(a.size());
  const double se_b = var_b / static_cast<double>(b.size());
  if (!(se_a + se_b > 0.0)) throw std::invalid_argument("welch_t: zero variance");
  WelchResult r;
  r.t = (mean_a - mean_b) / std::sqrt(se_a + se_b);
  r.df = (se_a + se_b) * (se_a + se_b) /
         (se_a * se_a / static_cast<double>(a.size() - 1) +
          se_b * se_b / static_cast<double>(b.size() - 1));
  return r;
}

}  // namespace mvsim::stats
