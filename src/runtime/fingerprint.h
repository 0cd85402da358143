// Matrix and option fingerprints — the cache keys of the runtime layer.
//
// A fingerprint separates the *pattern* (rows/cols/rowptr/colind) from the
// *values* so callers can reason about the two invalidation granularities
// the setup pipeline actually has: a pattern change invalidates symbolic
// work (ILU(K) fill, level schedules), a value change invalidates numeric
// work (sparsification choice, factor values). The setup cache keys on
// both, plus a digest of the setup-relevant options, so two sessions with
// the same matrix but different fill levels never collide.
//
// Hashes are FNV-1a over the raw little-endian bytes — deterministic across
// runs of the same binary, which is all a process-local cache needs. The
// same construction underlies gen/suite.h's suite_checksum() idea: a
// changed generator changes the fingerprint and therefore invalidates any
// cached setup built from the old bits.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>

#include "core/spcg.h"
#include "sparse/csr.h"

namespace spcg {

namespace detail {

inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

inline std::uint64_t fnv1a_bytes(const void* data, std::size_t n,
                                 std::uint64_t h = kFnvOffset) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

template <class T>
std::uint64_t fnv1a_span(std::span<const T> xs, std::uint64_t h = kFnvOffset) {
  static_assert(std::is_trivially_copyable_v<T>);
  return fnv1a_bytes(xs.data(), xs.size() * sizeof(T), h);
}

template <class T>
std::uint64_t fnv1a_value(const T& x, std::uint64_t h = kFnvOffset) {
  static_assert(std::is_trivially_copyable_v<T>);
  return fnv1a_bytes(&x, sizeof(T), h);
}

}  // namespace detail

/// Identity of a CSR matrix for caching purposes.
struct MatrixFingerprint {
  std::uint64_t pattern_hash = 0;  // rows, cols, rowptr, colind
  std::uint64_t values_hash = 0;   // raw value bytes
  index_t rows = 0;
  index_t nnz = 0;

  friend bool operator==(const MatrixFingerprint& a,
                         const MatrixFingerprint& b) {
    return a.pattern_hash == b.pattern_hash &&
           a.values_hash == b.values_hash && a.rows == b.rows &&
           a.nnz == b.nnz;
  }

  /// Single 64-bit mix of both hashes (for hash tables / logs).
  [[nodiscard]] std::uint64_t combined() const {
    std::uint64_t h = detail::fnv1a_value(pattern_hash);
    h = detail::fnv1a_value(values_hash, h);
    h = detail::fnv1a_value(rows, h);
    return detail::fnv1a_value(nnz, h);
  }
};

/// Fingerprint a matrix: one pass over the pattern arrays, one over values.
template <class T>
MatrixFingerprint fingerprint(const Csr<T>& a) {
  MatrixFingerprint fp;
  fp.rows = a.rows;
  fp.nnz = a.nnz();
  std::uint64_t h = detail::fnv1a_value(a.rows);
  h = detail::fnv1a_value(a.cols, h);
  h = detail::fnv1a_span(std::span<const index_t>(a.rowptr), h);
  fp.pattern_hash = detail::fnv1a_span(std::span<const index_t>(a.colind), h);
  fp.values_hash = detail::fnv1a_span(std::span<const T>(a.values));
  return fp;
}

/// Digest of every option that changes the *setup* (sparsify decision,
/// factorization, schedules). Solve-phase options (pcg tolerances, executor
/// choice) are deliberately excluded: setups are shareable across them.
inline std::uint64_t setup_options_digest(const SpcgOptions& opt) {
  std::uint64_t h = detail::fnv1a_value(opt.sparsify_enabled);
  h = detail::fnv1a_span(std::span<const double>(opt.sparsify.ratios), h);
  h = detail::fnv1a_value(opt.sparsify.tau, h);
  h = detail::fnv1a_value(opt.sparsify.omega_percent, h);
  h = detail::fnv1a_value(static_cast<int>(opt.sparsify.estimator), h);
  h = detail::fnv1a_value(static_cast<int>(opt.sparsify.denominator), h);
  h = detail::fnv1a_value(opt.sparsify.lanczos_steps, h);
  h = detail::fnv1a_value(static_cast<int>(opt.preconditioner), h);
  h = detail::fnv1a_value(opt.fill_level, h);
  h = detail::fnv1a_value(opt.max_row_fill, h);
  h = detail::fnv1a_value(opt.ilu.boost_zero_pivots, h);
  h = detail::fnv1a_value(opt.ilu.pivot_floor, h);
  return h;
}

/// Composite cache key: matrix identity x setup-relevant options.
struct SetupKey {
  MatrixFingerprint matrix;
  std::uint64_t options_digest = 0;

  friend bool operator==(const SetupKey& a, const SetupKey& b) {
    return a.matrix == b.matrix && a.options_digest == b.options_digest;
  }
};

struct SetupKeyHash {
  std::size_t operator()(const SetupKey& k) const {
    return static_cast<std::size_t>(
        detail::fnv1a_value(k.options_digest, k.matrix.combined()));
  }
};

template <class T>
SetupKey make_setup_key(const Csr<T>& a, const SpcgOptions& opt) {
  return SetupKey{fingerprint(a), setup_options_digest(opt)};
}

/// Pattern-only projection of a SetupKey: everything except values_hash.
/// Two SetupKeys with equal pattern keys describe the same sparsity
/// structure under the same setup options — a cached setup for one is a
/// valid symbolic donor (ILU pattern, level schedules, sparsify pattern
/// decision) for the other; only factor numerics differ. This is the key of
/// SetupCache's secondary index behind the transient fast path.
struct SetupPatternKey {
  std::uint64_t pattern_hash = 0;
  index_t rows = 0;
  index_t nnz = 0;
  std::uint64_t options_digest = 0;

  friend bool operator==(const SetupPatternKey& a, const SetupPatternKey& b) {
    return a.pattern_hash == b.pattern_hash && a.rows == b.rows &&
           a.nnz == b.nnz && a.options_digest == b.options_digest;
  }
};

struct SetupPatternKeyHash {
  std::size_t operator()(const SetupPatternKey& k) const {
    std::uint64_t h = detail::fnv1a_value(k.pattern_hash);
    h = detail::fnv1a_value(k.rows, h);
    h = detail::fnv1a_value(k.nnz, h);
    return static_cast<std::size_t>(detail::fnv1a_value(k.options_digest, h));
  }
};

inline SetupPatternKey pattern_key_of(const SetupKey& k) {
  return SetupPatternKey{k.matrix.pattern_hash, k.matrix.rows, k.matrix.nnz,
                         k.options_digest};
}

/// Same, reusing an already-computed fingerprint (e.g. shared across the
/// fill-level candidates of tune_fill_level).
inline SetupKey make_setup_key(const MatrixFingerprint& fp,
                               const SpcgOptions& opt) {
  return SetupKey{fp, setup_options_digest(opt)};
}

}  // namespace spcg
