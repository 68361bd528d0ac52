#ifndef SEMANDAQ_TESTS_SLOW_MINE_H_
#define SEMANDAQ_TESTS_SLOW_MINE_H_

// A workload whose `mine` is still running when a cancel, a deadline or a
// competing request lands a few tens of ms after it started — the
// precondition of the server's cancellation and admission tests. A fixed
// size cannot serve every build: a Release mine of 30000 customer rows
// takes tens of ms, a sanitizer build's many times that. So the size is
// calibrated once per process against a floor.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>

#include "discovery/cfd_miner.h"
#include "relational/encoded_relation.h"
#include "workload/hospital_gen.h"

namespace semandaq::testing {

/// The shortest serial `mine` the fixture accepts: several times the
/// longest delay (100 ms) a test waits before it expects the mine in
/// flight.
constexpr int64_t kSlowMineFloorMs = 400;

/// `gen hospital N 10` with the smallest N (10000 doubled, up to 640000)
/// whose serial mine takes at least kSlowMineFloorMs here. It times the
/// very sweep the server's `mine hospital` runs: the same generated
/// relation (`gen` uses the generator's default seed), mined serially off
/// an encoding, as the server mines its pinned epoch's.
inline std::string SlowMineGenCommand() {
  static const size_t rows = [] {
    size_t n = 10000;
    for (; n < 640000; n *= 2) {
      workload::HospitalWorkloadOptions options;
      options.num_tuples = n;
      options.noise_rate = 0.10;
      const workload::HospitalWorkload wl =
          workload::HospitalGenerator::Generate(options);
      const relational::EncodedRelation encoded(&wl.dirty);
      const auto start = std::chrono::steady_clock::now();
      (void)discovery::CfdMiner(&encoded).Mine();
      const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::steady_clock::now() - start)
                          .count();
      if (ms >= kSlowMineFloorMs) break;
    }
    return n;
  }();
  return "gen hospital " + std::to_string(rows) + " 10";
}

}  // namespace semandaq::testing

#endif  // SEMANDAQ_TESTS_SLOW_MINE_H_
