// Conjugate gradient solvers on one address space.
//
// pcg() is the left-preconditioned CG of the paper's Algorithm 1;
// pipelined_pcg() is the algebraically equivalent pipelined recurrence with
// one fused reduction per iteration (the single-synchronization schedule a
// distributed solve needs; numerically it admits slightly more rounding
// drift, which is why the classic version remains the default). cg() is the
// unpreconditioned special case. Each is a thin call into the shared loops
// of solver/cg_engine.h over a LocalSpace.
//
// Two extensions serve the transient-solve subsystem (src/transient/):
//   * an optional initial guess x0 (warm start). When omitted the solver is
//     bitwise identical to the historical x0 = 0 behavior — the residual is
//     initialized directly from b with no SpMV.
//   * an optional caller-owned PcgWorkspace. Repeated solves through one
//     workspace reuse every scratch vector's capacity, so a steady-state
//     solve performs zero heap allocations (the contract bench/transient and
//     SPCG_ALLOC_AUDIT enforce).
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "precond/preconditioner.h"
#include "solver/cg_engine.h"
#include "sparse/csr.h"
#include "support/trace.h"

namespace spcg {

namespace detail {

/// One engine loop over a LocalSpace.
template <class T>
using LocalLoop = SolveResult<T> (*)(LocalSpace<T>&, std::span<const T>,
                                     const PcgOptions&, std::span<const T>,
                                     PcgWorkspace<T>&);

/// Run `loop` over a LocalSpace inside the solve's top-level span.
template <class T>
SolveResult<T> local_solve(const char* name, const Csr<T>& a,
                           std::span<const T> b, const Preconditioner<T>& m,
                           const PcgOptions& opt, std::span<const T> x0,
                           std::type_identity_t<PcgWorkspace<T>*> ws,
                           LocalLoop<T> loop) {
  LocalSpace<T> vs(a, m);
  Span span(name, "solve");
  span.arg("rows", static_cast<std::int64_t>(a.rows));
  span.arg("nnz", static_cast<std::int64_t>(a.nnz()));
  PcgWorkspace<T> local;
  SolveResult<T> res = loop(vs, b, opt, x0, ws != nullptr ? *ws : local);
  span.arg("iterations", res.iterations);
  span.arg("converged", res.converged());
  return res;
}

}  // namespace detail

/// Left-preconditioned conjugate gradient (Algorithm 1 of the paper).
///
/// `x0`: optional initial guess; empty = start from zero. When provided,
/// x0.size() must equal a.rows and must not alias the workspace.
/// `ws`: optional caller-owned scratch (see PcgWorkspace); null = private
/// scratch allocated per call.
template <class T>
SolveResult<T> pcg(const Csr<T>& a, std::span<const T> b,
                   const Preconditioner<T>& m, const PcgOptions& opt = {},
                   std::span<const T> x0 = {}, PcgWorkspace<T>* ws = nullptr) {
  return detail::local_solve("pcg", a, b, m, opt, x0, ws,
                             &classic_cg<T, LocalSpace<T>>);
}

/// Pipelined PCG. Same options, initial guess and result as pcg().
template <class T>
SolveResult<T> pipelined_pcg(const Csr<T>& a, std::span<const T> b,
                             const Preconditioner<T>& m,
                             const PcgOptions& opt = {},
                             std::span<const T> x0 = {}) {
  return detail::local_solve("pipelined_pcg", a, b, m, opt, x0, nullptr,
                             &pipelined_cg<T, LocalSpace<T>>);
}

/// Unpreconditioned CG.
template <class T>
SolveResult<T> cg(const Csr<T>& a, std::span<const T> b,
                  const PcgOptions& opt = {}) {
  IdentityPreconditioner<T> identity(a.rows);
  return pcg(a, b, identity, opt);
}

/// Vector-argument conveniences (span<const T> cannot be deduced from
/// std::vector<T> in template argument deduction).
template <class T>
SolveResult<T> pcg(const Csr<T>& a, const std::vector<T>& b,
                   const Preconditioner<T>& m, const PcgOptions& opt = {}) {
  return pcg(a, std::span<const T>(b), m, opt);
}

template <class T>
SolveResult<T> pipelined_pcg(const Csr<T>& a, const std::vector<T>& b,
                             const Preconditioner<T>& m,
                             const PcgOptions& opt = {}) {
  return pipelined_pcg(a, std::span<const T>(b), m, opt);
}

template <class T>
SolveResult<T> cg(const Csr<T>& a, const std::vector<T>& b,
                  const PcgOptions& opt = {}) {
  return cg(a, std::span<const T>(b), opt);
}

}  // namespace spcg
