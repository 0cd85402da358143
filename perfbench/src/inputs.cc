#include "inputs.h"

#include <cmath>

#include "gen/generators.h"
#include "gen/suite.h"
#include "sparse/ops.h"
#include "support/error.h"
#include "support/rng.h"

namespace perfbench {
namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

template <class V>
std::uint64_t fnv1a_vec(std::uint64_t h, const V& v) {
  return fnv1a(h, v.data(), v.size() * sizeof(v[0]));
}

// Input-family tags for derive_seed.
constexpr std::uint64_t kStreamRhs = 2;
constexpr std::uint64_t kStreamRequests = 3;
constexpr std::uint64_t kStreamDistRhs = 4;

constexpr double kDriftShare = 0.3;

/// Independent 64-bit seed for input family `stream` of workload seed
/// `seed`.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  return splitmix64(splitmix64(seed) ^ (stream * 0xd1b54a32d192ed03ULL));
}

}  // namespace

std::uint64_t checksum(const Csr<double>& a) {
  std::uint64_t h = fnv1a(kFnvOffset, &a.rows, sizeof(a.rows));
  h = fnv1a(h, &a.cols, sizeof(a.cols));
  h = fnv1a_vec(h, a.rowptr);
  h = fnv1a_vec(h, a.colind);
  return fnv1a_vec(h, a.values);
}

std::uint64_t checksum(std::span<const double> v) {
  return fnv1a_vec(kFnvOffset, v);
}

Csr<double> large_pde_matrix(std::uint64_t field_seed) {
  return spcg::gen_varcoef2d(kLargePdeEdge, kLargePdeEdge, 2.0, field_seed);
}

Csr<double> dist_matrix() { return spcg::gen_poisson2d(330, 330); }

std::vector<double> workload_rhs(const Csr<double>& a, std::uint64_t seed,
                                 std::uint64_t k) {
  return spcg::make_rhs(a, derive_seed(derive_seed(seed, kStreamRhs), k));
}

std::vector<double> dist_rhs(const Csr<double>& a, std::uint64_t seed) {
  spcg::Rng rng(derive_seed(seed, kStreamDistRhs));
  std::vector<double> x_true(static_cast<std::size_t>(a.rows));
  for (double& v : x_true) v = rng.uniform(0.0, 1.0);
  std::vector<double> b(x_true.size());
  spcg::spmv(a, std::span<const double>(x_true), std::span<double>(b));
  double bb = 0.0;
  for (const double v : b) bb += v * v;
  SPCG_CHECK(bb > 0.0);
  for (double& v : b) v /= std::sqrt(bb);
  return b;
}

std::vector<index_t> serve_pool_ids() {
  std::vector<index_t> ids;
  for (index_t i = 0; i < 24; ++i) ids.push_back(4 * i + 1);
  return ids;
}

index_t suite_id(const std::string& name) {
  for (const spcg::MatrixSpec& s : spcg::suite_specs())
    if (s.name == name) return s.id;
  throw spcg::Error("suite matrix '" + name + "' not found");
}

RequestStream::RequestStream(std::uint64_t seed, std::size_t pool_size)
    : state_(derive_seed(seed, kStreamRequests)), pool_size_(pool_size) {
  SPCG_CHECK(pool_size_ > 0);
}

RequestPlan RequestStream::next() {
  // One Rng per request keeps each request a pure function of (seed, index).
  state_ = splitmix64(state_);
  spcg::Rng rng(state_);
  RequestPlan p;
  p.pool_slot = static_cast<index_t>(rng.uniform_index(pool_size_));
  p.drift = rng.uniform() < kDriftShare;
  p.drift_factor = p.drift ? rng.uniform(0.8, 1.0) : 1.0;
  p.rhs_seed = rng.next_u64();
  return p;
}

Csr<double> drift_matrix(const Csr<double>& a, double g) {
  SPCG_CHECK(g > 0.0 && g < 1.0);
  Csr<double> d = a;
  for (index_t i = 0; i < d.rows; ++i) {
    const auto cols = d.row_cols(i);
    auto vals = d.row_vals_mut(i);
    for (std::size_t p = 0; p < cols.size(); ++p)
      if (cols[p] != i) vals[p] *= g;
  }
  return d;
}

std::uint64_t checksum(const std::vector<RequestPlan>& plans) {
  std::uint64_t h = kFnvOffset;
  for (const RequestPlan& p : plans) {
    h = fnv1a(h, &p.pool_slot, sizeof(p.pool_slot));
    const unsigned char drift = p.drift ? 1 : 0;
    h = fnv1a(h, &drift, 1);
    h = fnv1a(h, &p.drift_factor, sizeof(p.drift_factor));
    h = fnv1a(h, &p.rhs_seed, sizeof(p.rhs_seed));
  }
  return h;
}

}  // namespace perfbench
