// Seeded inputs of the four benchmark workloads.
//
// Every input a workload hands to the library is generated here from the
// workload seed given on the command line; the library only ever sees the
// generated matrices and vectors. Each input family draws from its own
// stream of the seed, so changing how one family is drawn never shifts
// another.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sparse/csr.h"

namespace perfbench {

using spcg::Csr;
using spcg::index_t;

/// FNV-1a over the exact bytes of a matrix (dims, pattern, values) or a
/// vector: equal checksums mean bitwise-equal inputs.
std::uint64_t checksum(const Csr<double>& a);
std::uint64_t checksum(std::span<const double> v);

/// large_pde: variable-coefficient 2D diffusion, 1024 x 1024 grid
/// (1,048,576 rows), lognormal coefficient contrast 2.0, coefficient field
/// drawn from `field_seed`.
Csr<double> large_pde_matrix(std::uint64_t field_seed);
inline constexpr index_t kLargePdeEdge = 1024;

/// The field large_pde runs on. The field decides how many drop ratios
/// Algorithm 2 tries (1 to 3 across fields: 0.7 to 1.8 s of setup, 1059 to
/// 2047 levels), so a per-seed field would make setup_s and solve_s
/// bimodal across seeds. This field takes the common path (5% accepted on
/// the second ratio); the workload seed varies the right-hand sides.
inline constexpr std::uint64_t kLargePdeFieldSeed = 11;

/// dist_latency: 5-point Poisson on a 330 x 330 grid (108,900 rows). The
/// matrix is fixed; the seed enters through the right-hand sides.
Csr<double> dist_matrix();

/// Right-hand side number `k` of a workload: b = A x_true / ||A x_true||
/// with x_true drawn from (seed, k).
std::vector<double> workload_rhs(const Csr<double>& a, std::uint64_t seed,
                                 std::uint64_t k);

/// The right-hand side dist_latency solves: b = A x_true / ||A x_true||
/// with x_true uniform in [0, 1] from `seed`. Unlike workload_rhs's
/// zero-mean x_true, the mean of x_true puts a seed-independent share of b
/// on the smooth modes CG resolves last, so the iteration count (and the
/// work of a run) moves less with the seed: 286 to 315 iterations across
/// ten seeds, where a zero-mean x_true gave 209 to 280.
std::vector<double> dist_rhs(const Csr<double>& a, std::uint64_t seed);

/// The suite ids of the serve_mixed pool: 24 matrices, every fourth suite
/// id from 1, so the pool spans all application categories. The pool is
/// larger than the service's default setup-cache capacity of 16.
std::vector<index_t> serve_pool_ids();

/// Suite id of the matrix named `name`; throws when absent.
index_t suite_id(const std::string& name);

/// One serve_mixed request, drawn before it is submitted.
struct RequestPlan {
  index_t pool_slot = 0;       // index into serve_pool_ids()
  bool drift = false;          // values-only change of the pool matrix
  double drift_factor = 1.0;   // off-diagonal scale g in [0.8, 1) if drift
  std::uint64_t rhs_seed = 0;  // seed of this request's right-hand side
};

/// The seeded request stream of serve_mixed: uniform pool slot, 30% drift.
class RequestStream {
 public:
  RequestStream(std::uint64_t seed, std::size_t pool_size);
  RequestPlan next();

 private:
  std::uint64_t state_;
  std::size_t pool_size_;
};

/// A with every off-diagonal entry scaled by g (0 < g < 1). The result is
/// g*A + (1-g)*diag(A): SPD whenever A is, with A's pattern, so a service
/// holding A's setup answers it through the same-pattern refresh path.
Csr<double> drift_matrix(const Csr<double>& a, double g);

/// Checksum of the first `count` requests of a stream.
std::uint64_t checksum(const std::vector<RequestPlan>& plans);

}  // namespace perfbench
