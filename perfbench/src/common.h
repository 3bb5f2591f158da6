// Small shared helpers of the benchmark: clocks, order statistics, seed
// derivation, peak RSS, the correctness checker and the result line.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock, in seconds.
double NowSeconds();

/// Linear-interpolation quantile (q in [0, 1]) of `values`; NaN when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);

/// Peak resident set of this process so far, in MB (10^6 bytes).
double PeakRssMb();

/// Independent 64-bit seed for stream `stream` of the run seed (splitmix64),
/// so that every generator of a run draws from its own sequence.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// Collects failed correctness checks. Every failure is printed to stderr
/// (the first few in full); the run exits non-zero when any check failed.
class Checker {
 public:
  void Expect(bool ok, const std::string& what);
  size_t failures() const { return failures_; }
  size_t checks() const { return checks_; }

 private:
  size_t failures_ = 0;
  size_t checks_ = 0;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Prints the result object as the last line of standard output.
void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics);

}  // namespace perfbench
