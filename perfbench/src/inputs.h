// Seeded inputs of the benchmark. Everything a workload sends to the
// program — table specs and analyst queries — is drawn here
// from the --seed argument, so one seed always gives the same inputs (the
// digest pins that) and the program only ever sees the generated inputs.

#ifndef PERFBENCH_INPUTS_H_
#define PERFBENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "data/synthetic.h"
#include "db/table.h"

namespace perfbench {

/// SplitMix64: small, fast, and identical on every platform (unlike the
/// standard library's distributions).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double Uniform();

 private:
  uint64_t state_;
};

/// Independent stream `stream` of the run seeded with `seed`.
Rng StreamRng(uint64_t seed, uint64_t stream);

/// Shape of a synthetic table (data::SyntheticSpec::Simple): dimensions
/// dim0..dimN-1 with `cardinality` values each, except dim0, which has
/// `selector_cardinality`; measures m0..mM-1 (M >= 3). Simple plants its
/// deviation under dim0 = 'dim0_v0': there, m0 is five times larger in the
/// odd dim1 groups.
struct TableShape {
  std::string name;
  size_t rows = 0;
  size_t dims = 0;
  size_t measures = 0;
  size_t cardinality = 0;
  size_t selector_cardinality = 0;
};

/// The generator spec of `shape`.
seedb::data::SyntheticSpec ShapeSpec(const TableShape& shape, uint64_t seed);

/// A conjunctive analyst query over a TableShape table that keeps the
/// planted deviation in view:
///   SELECT * FROM t WHERE dim0 = 'dim0_v0' AND m1 > a AND m1 < b
///                         AND mM-1 > c
/// with a target selectivity drawn log-uniformly from [lo, hi] (at most
/// 1 / selector_cardinality). The range leaves m0, the deviating measure,
/// alone. The literals are continuous, so two draws never share a
/// predicate.
std::string DrawConjunctiveQuery(Rng* rng, const TableShape& shape,
                                 double lo, double hi);

/// FNV-1a digest over strings and numbers, for the same-seed-same-input
/// check.
class Digest {
 public:
  void Add(const std::string& s);
  void Add(double v);
  void Add(uint64_t v);
  /// Every cell of `table`, column by column.
  void Add(const seedb::db::Table& table);
  uint64_t value() const { return h_; }

 private:
  void Bytes(const void* p, size_t n);
  uint64_t h_ = 1469598103934665603ull;
};

}  // namespace perfbench

#endif  // PERFBENCH_INPUTS_H_
