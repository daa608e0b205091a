// Host-speed calibration for perfbench.
//
// The benchmark runs on shared machines whose speed moves in steps that last
// minutes: on the baseline host every timed metric moved together by 25-35%
// between runs of identical work, with CPU time tracking wall time. The
// Calibrator times a fixed piece of bench-owned, cache-resident work like the
// program's hot loops: dense floating-point elimination (the simplex) and a
// sort (branchy comparisons). Measured against the program's run time across
// host states, these two track it (run time / calibration varied 3.5-4.7%
// where run time varied 11%); a binary heap tracked too little and dependent
// reads over 1 MB far too much (memory latency moves more than the program
// does), so neither is part of it. It never calls the program and never
// touches the heap while timed, so no change to src/ can make it faster or
// slower. The
// host's speed also changes within seconds, so a run samples it all the
// time: every kSampleIntervalSeconds of a timed region and after every
// set-up, with the sample's own time kept off the region's clock. Each
// repetition's times are scaled by kReferenceSeconds / (trimmed mean of the
// samples taken during it), which divides out the host's speed and keeps the
// program's.

#ifndef PERFBENCH_CALIBRATE_H_
#define PERFBENCH_CALIBRATE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "perfbench/layers.h"

namespace perfbench {

// One calibration sample's time on the baseline host (see NOTES.md):
// normalised times read as times on that host.
constexpr double kReferenceSeconds = 0.002;

// Wall time between calibration samples within a timed region.
constexpr double kSampleIntervalSeconds = 0.1;

// Mean without the lowest and highest tenth (samples an interrupt landed in).
inline double TrimmedMean(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t drop = values.size() / 10;
  double sum = 0.0;
  for (size_t i = drop; i < values.size() - drop; ++i) {
    sum += values[i];
  }
  return sum / static_cast<double>(values.size() - 2 * drop);
}

class Calibrator {
 public:
  Calibrator() : matrix_(kDim * kDim), sort_source_(kSortSize), sort_buffer_(kSortSize) {
    uint64_t state = 0x9e3779b97f4a7c15ULL;
    for (double& x : sort_source_) {
      x = Unit(&state);
    }
  }

  // One sample: an untimed pass that brings the buffers back into cache
  // after the program ran, then the timed pass. Returns its seconds.
  double Sample() {
    Pass();
    const double start = NowSeconds();
    Pass();
    return NowSeconds() - start;
  }

 private:
  static constexpr int kDim = 96;
  static constexpr size_t kSortSize = 12000;

  static uint64_t Next(uint64_t* state) {
    *state = *state * 6364136223846793005ULL + 1442695040888963407ULL;
    return *state >> 11;
  }
  static double Unit(uint64_t* state) { return static_cast<double>(Next(state)) * 0x1.0p-53; }

  void Pass() {
    uint64_t state = 0x2545f4914f6cdd1dULL;
    double checksum = 0.0;
    for (int i = 0; i < 8; ++i) {
      checksum += Eliminate(&state);
    }
    std::copy(sort_source_.begin(), sort_source_.end(), sort_buffer_.begin());
    std::sort(sort_buffer_.begin(), sort_buffer_.end());
    checksum += sort_buffer_[kSortSize / 2];
    sink_ = sink_ + checksum;
  }

  // Gaussian elimination with partial pivoting; returns log |det|.
  double Eliminate(uint64_t* state) {
    double* a = matrix_.data();
    for (double& x : matrix_) {
      x = Unit(state) - 0.5;
    }
    double log_det = 0.0;
    for (int k = 0; k < kDim; ++k) {
      int pivot = k;
      for (int i = k + 1; i < kDim; ++i) {
        if (std::fabs(a[i * kDim + k]) > std::fabs(a[pivot * kDim + k])) {
          pivot = i;
        }
      }
      if (pivot != k) {
        std::swap_ranges(a + k * kDim, a + (k + 1) * kDim, a + pivot * kDim);
      }
      const double p = a[k * kDim + k];
      log_det += std::log(std::fabs(p) + 1e-300);
      for (int i = k + 1; i < kDim; ++i) {
        const double f = a[i * kDim + k] / p;
        for (int j = k; j < kDim; ++j) {
          a[i * kDim + j] -= f * a[k * kDim + j];
        }
      }
    }
    return log_det;
  }

  std::vector<double> matrix_;
  std::vector<double> sort_source_;
  std::vector<double> sort_buffer_;
  volatile double sink_ = 0.0;
};

}  // namespace perfbench

#endif  // PERFBENCH_CALIBRATE_H_
