#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>


namespace perfbench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::Uniform() {
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

Rng StreamRng(uint64_t seed, uint64_t stream) {
  Rng mix(seed * 0x100000001b3ull + stream);
  return Rng(mix.Next());
}

namespace {

/// Standard normal CDF.
double Phi(double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }

/// Standard normal quantile, by bisection.
double PhiInverse(double p) {
  double lo = -10.0, hi = 10.0;
  for (int i = 0; i < 100; ++i) {
    const double mid = 0.5 * (lo + hi);
    (Phi(mid) < p ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

std::string Literal(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

}  // namespace

seedb::data::SyntheticSpec ShapeSpec(const TableShape& shape, uint64_t seed) {
  seedb::data::SyntheticSpec spec = seedb::data::SyntheticSpec::Simple(
      shape.rows, shape.dims, shape.measures, shape.cardinality, seed);
  spec.dimensions[0].cardinality = shape.selector_cardinality;
  return spec;
}

std::string DrawConjunctiveQuery(Rng* rng, const TableShape& shape,
                                 double lo, double hi) {
  // Measures of a Simple spec are Gaussian with mean 100 + 10 i and sd 15,
  // independent of the dimensions (except m0 under the selector).
  constexpr double kSd = 15.0;
  auto mean = [](size_t i) { return 100.0 + 10.0 * static_cast<double>(i); };
  const size_t last = shape.measures - 1;
  const double target = lo * std::pow(hi / lo, rng->Uniform());
  // A threshold 2 to 3.3 sd below the mean of the last measure keeps
  // 97.7-99.96% of the rows; the selector and the m1 window supply the rest.
  const double z_floor = -3.33 + 1.33 * rng->Uniform();
  const double keep = 1.0 - Phi(z_floor);
  const double window = std::min(
      0.999, target * static_cast<double>(shape.selector_cardinality) / keep);
  // Place the window [p, p + window] of m1's distribution at random.
  const double p = (1.0 - window) * rng->Uniform();
  const double a = mean(1) + kSd * PhiInverse(std::max(p, 1e-9));
  const double b = mean(1) + kSd * PhiInverse(std::min(p + window, 1.0 - 1e-9));
  return "SELECT * FROM " + shape.name + " WHERE dim0 = 'dim0_v0' AND m1 > " +
         Literal(a) + " AND m1 < " + Literal(b) + " AND m" +
         std::to_string(last) + " > " + Literal(mean(last) + kSd * z_floor);
}

void Digest::Bytes(const void* p, size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (size_t i = 0; i < n; ++i) {
    h_ ^= b[i];
    h_ *= 1099511628211ull;
  }
}

void Digest::Add(const std::string& s) {
  Add(static_cast<uint64_t>(s.size()));
  Bytes(s.data(), s.size());
}

void Digest::Add(double v) { Bytes(&v, sizeof(v)); }

void Digest::Add(uint64_t v) { Bytes(&v, sizeof(v)); }

void Digest::Add(const seedb::db::Table& table) {
  using seedb::db::ValueType;
  Add(static_cast<uint64_t>(table.num_rows()));
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const seedb::db::Column& col = table.column(c);
    switch (col.type()) {
      case ValueType::kInt64:
        Bytes(col.int64_data().data(), col.int64_data().size() * sizeof(int64_t));
        break;
      case ValueType::kDouble:
        Bytes(col.double_data().data(), col.double_data().size() * sizeof(double));
        break;
      case ValueType::kString:
        for (size_t d = 0; d < col.dict_size(); ++d) {
          Add(col.dict_value(static_cast<int32_t>(d)));
        }
        Bytes(col.codes().data(), col.codes().size() * sizeof(int32_t));
        break;
      case ValueType::kNull:
        break;
    }
    Bytes(col.validity().data(), col.validity().size());
  }
}

}  // namespace perfbench
