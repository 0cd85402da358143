// Symbolic phase of ILU(K): level-of-fill pattern computation.
//
// Row by row in the style of SPARSKIT's iluk / Saad Alg. 10.6: row i starts
// as A's row i at level 0; eliminating against each k < i in ascending order
// fans out the U-part of row k, giving fill at column j the level
//   lev(i,j) = min over k of lev(i,k) + lev(k,j) + 1
// and keeping it only when that does not exceed K.
//
// Only the fan-out that can produce a kept entry is walked:
//   * When row k finishes, only its U entries with level < K are stored (an
//     entry at level K gives every later row a level > K), in flat arrays
//     and ordered by level. Eliminating with lev(i,k) = L walks the prefix
//     with level <= K - 1 - L and stops; L == K walks nothing.
//   * The working row is a presence bitset over the columns plus a dense
//     lev[]. The L-part is walked in ascending column order by scanning the
//     bitset past the last pivot; fill lands at columns above the pivot that
//     creates it, so the walk still meets every fill pivot. The finished row
//     is gathered sorted by scanning the words between its first and last
//     column, clearing them on the way.
// Levels are a min, which does not depend on the update order, and lev(i,k)
// is final before k is walked (only pivots k' < k update it), so pattern and
// levels equal those of the classic sorted-linked-list merge. Cost: the
// useful fan-out plus the bitset words a row spans (at most n/64 per row).

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>

#include "precond/ilu.h"

namespace spcg {

namespace {

constexpr index_t kWordBits = 64;

/// Smallest set bit in [from, end) of `bits`, or `end` when there is none.
index_t next_set(const std::vector<std::uint64_t>& bits, index_t from,
                 index_t end) {
  if (from >= end) return end;
  auto w = static_cast<std::size_t>(from / kWordBits);
  const auto last = static_cast<std::size_t>((end - 1) / kWordBits);
  std::uint64_t word = bits[w] & (~std::uint64_t{0} << (from % kWordBits));
  while (word == 0) {
    if (++w > last) return end;
    word = bits[w];
  }
  const index_t j = static_cast<index_t>(w) * kWordBits +
                    static_cast<index_t>(std::countr_zero(word));
  return std::min(j, end);
}

/// Per-row cap: keep the diagonal plus the max_row_fill - 1 lowest
/// (level, column) pairs of the other entries, in column order.
void cap_row(index_t i, index_t max_row_fill, std::vector<index_t>& cols,
             std::vector<index_t>& levs,
             std::vector<std::pair<index_t, index_t>>& keep) {
  keep.clear();
  index_t diag_lev = 0;
  for (std::size_t t = 0; t < cols.size(); ++t) {
    if (cols[t] == i)
      diag_lev = levs[t];
    else
      keep.emplace_back(levs[t], cols[t]);
  }
  const auto others = static_cast<std::size_t>(max_row_fill - 1);
  std::nth_element(keep.begin(), keep.begin() + static_cast<std::ptrdiff_t>(others),
                   keep.end());
  keep.resize(others);
  keep.emplace_back(diag_lev, i);
  std::sort(keep.begin(), keep.end(),
            [](const auto& x, const auto& y) { return x.second < y.second; });
  cols.clear();
  levs.clear();
  for (const auto& [l, j] : keep) {
    cols.push_back(j);
    levs.push_back(l);
  }
}

}  // namespace

IlukSymbolic iluk_symbolic(index_t n, std::span<const index_t> rowptr,
                           std::span<const index_t> colind, index_t k,
                           index_t max_row_fill) {
  SPCG_CHECK_MSG(k >= 0, "fill level must be >= 0, got " << k);
  SPCG_CHECK_MSG(max_row_fill >= 0,
                 "max_row_fill must be >= 0 (0 = unlimited), got "
                     << max_row_fill);
  SPCG_CHECK(rowptr.size() == static_cast<std::size_t>(n) + 1);

  IlukSymbolic out;
  out.pattern.rows = n;
  out.pattern.cols = n;
  out.pattern.rowptr.assign(static_cast<std::size_t>(n) + 1, 0);

  // Fan-out store: the U entries of finished rows that can still create
  // fill (level < k), per row ordered by level.
  std::vector<index_t> fan_ptr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<index_t> fan_col;
  std::vector<index_t> fan_lev;

  std::vector<std::uint64_t> bits(
      static_cast<std::size_t>((n + kWordBits - 1) / kWordBits), 0);
  std::vector<index_t> lev(static_cast<std::size_t>(n), 0);

  std::vector<index_t> row_cols;
  std::vector<index_t> row_levs;
  std::vector<index_t> level_start;
  std::vector<std::pair<index_t, index_t>> keep;  // (level, col) for capping

  auto set_bit = [&](index_t j) {
    std::uint64_t& word = bits[static_cast<std::size_t>(j / kWordBits)];
    const std::uint64_t mask = std::uint64_t{1} << (j % kWordBits);
    const bool was_set = (word & mask) != 0;
    word |= mask;
    return was_set;
  };

  for (index_t i = 0; i < n; ++i) {
    // Seed the row with A's row i at level 0.
    index_t lo = n;
    index_t hi = -1;
    bool has_diag = false;
    for (index_t p = rowptr[static_cast<std::size_t>(i)];
         p < rowptr[static_cast<std::size_t>(i) + 1]; ++p) {
      const index_t j = colind[static_cast<std::size_t>(p)];
      set_bit(j);
      lev[static_cast<std::size_t>(j)] = 0;
      lo = std::min(lo, j);
      hi = std::max(hi, j);
      has_diag |= (j == i);
    }
    SPCG_CHECK_MSG(has_diag, "iluk_symbolic: row " << i << " has no diagonal");

    // Eliminate against rows kk < i in ascending column order.
    for (index_t kk = next_set(bits, lo, i); kk < i;
         kk = next_set(bits, kk + 1, i)) {
      const index_t lev_ik = lev[static_cast<std::size_t>(kk)];
      const index_t budget = k - 1 - lev_ik;  // max lev(kk,j) still kept
      for (index_t t = fan_ptr[static_cast<std::size_t>(kk)];
           t < fan_ptr[static_cast<std::size_t>(kk) + 1] &&
           fan_lev[static_cast<std::size_t>(t)] <= budget;
           ++t) {
        const index_t j = fan_col[static_cast<std::size_t>(t)];
        const index_t new_lev = lev_ik + fan_lev[static_cast<std::size_t>(t)] + 1;
        index_t& lj = lev[static_cast<std::size_t>(j)];
        if (set_bit(j)) {
          lj = std::min(lj, new_lev);
        } else {
          lj = new_lev;
          hi = std::max(hi, j);
        }
      }
    }

    // Gather the row in column order, clearing the bitset.
    row_cols.clear();
    row_levs.clear();
    for (auto w = static_cast<std::size_t>(lo / kWordBits);
         w <= static_cast<std::size_t>(hi / kWordBits); ++w) {
      for (std::uint64_t word = bits[w]; word != 0; word &= word - 1) {
        const index_t j = static_cast<index_t>(w) * kWordBits +
                          static_cast<index_t>(std::countr_zero(word));
        row_cols.push_back(j);
        row_levs.push_back(lev[static_cast<std::size_t>(j)]);
      }
      bits[w] = 0;
    }

    if (max_row_fill > 0 &&
        static_cast<index_t>(row_cols.size()) > max_row_fill) {
      cap_row(i, max_row_fill, row_cols, row_levs, keep);
      ++out.truncated_rows;
    }

    // Persist the row into the output pattern.
    out.pattern.colind.insert(out.pattern.colind.end(), row_cols.begin(),
                              row_cols.end());
    out.levels.insert(out.levels.end(), row_levs.begin(), row_levs.end());
    out.pattern.rowptr[static_cast<std::size_t>(i) + 1] =
        static_cast<index_t>(out.pattern.colind.size());

    // Store the U entries that can still create fill, counting-sorted by
    // level (stable, so columns ascend within a level).
    index_t count = 0;
    index_t top = -1;
    for (std::size_t t = 0; t < row_cols.size(); ++t) {
      if (row_cols[t] > i && row_levs[t] < k) {
        ++count;
        top = std::max(top, row_levs[t]);
      }
    }
    const auto base = static_cast<index_t>(fan_col.size());
    fan_ptr[static_cast<std::size_t>(i) + 1] = base + count;
    if (count == 0) continue;
    fan_col.resize(static_cast<std::size_t>(base + count));
    fan_lev.resize(static_cast<std::size_t>(base + count));
    level_start.assign(static_cast<std::size_t>(top) + 2, 0);
    for (std::size_t t = 0; t < row_cols.size(); ++t)
      if (row_cols[t] > i && row_levs[t] < k)
        ++level_start[static_cast<std::size_t>(row_levs[t]) + 1];
    for (index_t l = 0; l <= top; ++l)
      level_start[static_cast<std::size_t>(l) + 1] +=
          level_start[static_cast<std::size_t>(l)];
    for (std::size_t t = 0; t < row_cols.size(); ++t) {
      if (row_cols[t] > i && row_levs[t] < k) {
        const auto slot = static_cast<std::size_t>(
            base + level_start[static_cast<std::size_t>(row_levs[t])]++);
        fan_col[slot] = row_cols[t];
        fan_lev[slot] = row_levs[t];
      }
    }
  }

  out.pattern.values.assign(out.pattern.colind.size(), char{1});
  return out;
}

}  // namespace spcg
