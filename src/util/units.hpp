// Strong-ish unit conventions for the CINSP library.
//
// The paper mixes "GB", "Gbps" and "MB" loosely; this header is the single
// point of truth for the calibrated reading (docs/DESIGN.md §6):
//   - data sizes        : megabytes               (MB)
//   - bandwidths, rates : megabytes per second    (MB/s)
//   - operator work     : mega-operations         (Mops)
//   - compute speed     : mega-operations per sec (Mops/s); catalog GHz x1000
//   - money             : US dollars, integral cents never needed (catalog is
//                         whole dollars), stored as double for aggregation
//   - throughput rho    : results per second
#pragma once

#include <cmath>
#include <cstdint>

namespace insp {

/// Data size in megabytes.
using MegaBytes = double;
/// Bandwidth / transfer rate in megabytes per second.
using MBps = double;
/// Computational work in mega-operations (10^6 ops).
using MegaOps = double;
/// Compute speed in mega-operations per second.
using MopsPerSec = double;
/// Monetary cost in US dollars.
using Dollars = double;
/// Frequency in hertz (1/s).
using Hertz = double;
/// Application throughput in results per second.
using Throughput = double;

namespace units {

/// Convert a NIC bandwidth quoted in Gbps (paper Table 1) to MB/s.
constexpr MBps gbps(double g) { return g * 125.0; }

/// Convert an interconnect bandwidth quoted in GB/s (paper: "1 GB link",
/// "10 GB network card" on servers) to MB/s.
constexpr MBps gigabytes_per_sec(double g) { return g * 1000.0; }

/// Convert a CPU speed quoted in GHz (paper Table 1) to Mops/s.
constexpr MopsPerSec ghz(double g) { return g * 1000.0; }

} // namespace units

/// True for a usable rate, size or throughput: finite and > 0 (NaN and
/// +/-inf are not).
inline bool positive_finite(double v) { return std::isfinite(v) && v > 0.0; }

/// Relative/absolute tolerance used when comparing resource loads against
/// capacities.  Loads are sums of O(10^3) doubles, so a small epsilon avoids
/// spurious "capacity exceeded by 1e-12" failures without masking real
/// violations (all real violations in this problem are >= one object rate).
constexpr double kCapacityEpsilon = 1e-6;

/// `a <= b` up to kCapacityEpsilon, scaled by magnitude of b.
constexpr bool fits_within(double load, double capacity) {
  return load <= capacity + kCapacityEpsilon * (1.0 + (capacity > 0 ? capacity : 0.0));
}

/// The capacity verdict of a move (docs/DESIGN.md §5): the load after the
/// move, `now`, fits; or the load before it already did not fit and the move
/// did not make it grow.  A capacity that fit before the move must still fit
/// after it, so on a feasible state this is exactly fits_within(now,
/// capacity).
constexpr bool no_worse(double now, double before, double capacity) {
  return fits_within(now, capacity) ||
         (!fits_within(before, capacity) && fits_within(now, before));
}

} // namespace insp
