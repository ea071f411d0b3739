// Dense vector helpers shared across the numerical code.
//
// Vectors are plain std::vector<double>; the one free function keeps the
// call sites readable without dragging in a full linear-algebra type.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

namespace postcard::linalg {

using Vector = std::vector<double>;

/// Max-norm ||x||_inf.
inline double norm_inf(const Vector& x) {
  double m = 0.0;
  for (double v : x) m = std::max(m, std::abs(v));
  return m;
}

}  // namespace postcard::linalg
