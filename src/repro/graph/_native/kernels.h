/* Native word-matrix kernels for the packed uint64 graph tier.
 *
 * Every function operates on the same little-endian packed layout the
 * numpy tier uses (repro/graph/bitset_np.py): a vertex bitmask is a row
 * of `words` uint64 values, bit i of the mask living in bit (i % 64) of
 * word (i / 64).  A matrix is `rows` such rows, C-contiguous.  All
 * pointers come straight from numpy buffers via cffi; nothing here owns
 * or resizes memory except short-lived internal scratch.
 *
 * Functions returning int use 0 for success and -1 for scratch
 * allocation failure; callers fall back to the numpy tier on -1.
 *
 * Keep these declarations in sync with the _CDEF string in native.py —
 * the loader checks repro_kernels_abi_version() after dlopen and
 * rebuilds on mismatch.
 */

#ifndef REPRO_NATIVE_KERNELS_H
#define REPRO_NATIVE_KERNELS_H

#include <stdint.h>

#define REPRO_KERNELS_ABI_VERSION 3

int repro_kernels_abi_version(void);

/* Per-row popcounts of an (m, words) matrix into out[m]. */
void popcount_rows(const uint64_t *rows, int64_t m, int64_t words,
                   int64_t *out);

/* Batched separator crossing: out[i] = 1 iff remainder row i intersects
 * at least two of the k component rows.  Early-exits per remainder once
 * two components are touched; no temporaries. */
void crossing_batch(const uint64_t *components, int64_t k,
                    const uint64_t *remainders, int64_t m, int64_t words,
                    uint8_t *out);

/* Fused gather variant: remainder i is matrix[ids[i]] & ~v_row,
 * computed word-by-word on the fly — the AND/ANDN, the gather and the
 * component test run in one pass with no remainder matrix ever
 * materialised. */
void crossing_batch_gather(const uint64_t *components, int64_t k,
                           const uint64_t *matrix, int64_t words,
                           const int64_t *ids, int64_t m,
                           const uint64_t *v_row, uint8_t *out);

/* OR-reduce the m selected rows of the matrix into out[words]
 * (out must be zeroed by the caller). */
void union_rows(const uint64_t *matrix, int64_t words,
                const int64_t *indices, int64_t m, uint64_t *out);

/* Reachability fixpoint: component[] starts as the seed mask and ends
 * as the seed's component within `available`.  The whole BFS — every
 * frontier round — runs natively.  Returns -1 on scratch alloc
 * failure (component is then untouched beyond the seed). */
int frontier_sweep(const uint64_t *matrix, int64_t words,
                   uint64_t *component, const uint64_t *available);

/* Missing pairs (u, v) with u < v inside the clique candidate
 * `mask_row`, whose k member indices are idx[] (ascending).  Pair
 * order matches the numpy kernel: u-major in idx order, v ascending.
 * saturate_count only counts; saturate_fill writes u_out/v_out, which
 * must hold saturate_count() entries. */
int64_t saturate_count(const uint64_t *matrix, int64_t words,
                       const uint64_t *mask_row, const int64_t *idx,
                       int64_t k);
void saturate_fill(const uint64_t *matrix, int64_t words,
                   const uint64_t *mask_row, const int64_t *idx, int64_t k,
                   int64_t *u_out, int64_t *v_out);

/* Set the (u, v) and (v, u) bits of a packed adjacency in place. */
void set_edge_bits(uint64_t *matrix, int64_t words, const int64_t *u_arr,
                   const int64_t *v_arr, int64_t m);

/* Rose–Tarjan–Lueker PEO test over the packed adjacency.  order[] holds
 * k vertex indices; n_slots bounds every vertex index (words * 64).
 * Returns 1 (PEO), 0 (not) or -1 (scratch alloc failure). */
int is_peo_packed(const uint64_t *matrix, int64_t words,
                  const int64_t *order, int64_t k, int64_t n_slots);

/* Group m (index, weight) pairs into packed byte rows by ascending
 * distinct weight — the native twin of bitset_np.weight_level_rows.
 * out must hold m rows of words*8 bytes, pre-zeroed.  Returns the
 * number of levels written, or -1 on scratch alloc failure. */
int64_t weight_level_rows(const int64_t *indices, const int64_t *weights,
                          int64_t m, int64_t words, uint8_t *out);

/* Index of the first maximum of key[0..n) (np.argmax tie rule). */
int64_t argmax_i64(const int64_t *key, int64_t n);

/* PackedMCSQueue bump: for every set bit i of mask_row, add 1 to
 * weights[i] and stride to key[i]. */
void queue_bump_mask(int64_t *key, int64_t *weights,
                     const uint64_t *mask_row, int64_t words,
                     int64_t stride);

/* Set-bit indices of a packed row, ascending, into out (which must
 * hold the row's popcount).  Returns the count written. */
int64_t mask_row_indices(const uint64_t *mask_row, int64_t words,
                         int64_t *out);

/* Sum over set bits u of mask_row of popcount(matrix[u] & mask_row) —
 * the number of adjacency bits present inside a clique candidate. */
int64_t masked_rows_popcount(const uint64_t *matrix, int64_t words,
                             const uint64_t *mask_row);

/* ---- Fused layer steps (dense numbering, see kernels.c) ----
 *
 * adj is the (k, wk) adjacency of the k live vertices numbered by
 * label rank.  Rows crossing the boundary (phi, removed, out) are in
 * the caller's index space, w_out words each; live_sorted[] holds the
 * live caller indices ascending with live_dense[] their dense numbers,
 * and order[d] is the caller index of dense vertex d.  The three steps
 * return -2 on scratch allocation failure and free all scratch before
 * returning.
 */

/* Translate m caller-space rows into dense rows (out: m x wk). */
void dense_rows(const uint64_t *rows, int64_t m, int64_t w_out,
                const int64_t *live_sorted, const int64_t *live_dense,
                int64_t k, uint64_t *out, int64_t wk);

/* Extend (paper Fig. 3) with MCS-M: saturate the m separator rows of
 * phi on a scratch copy, run MCS-M, then the MCS clique-forest scan of
 * g[phi] + fill.  Writes one separator row per non-root clique to out
 * (at most k - 1 rows, clique creation order, duplicates kept), the
 * number of clique-tree roots to *roots_out, and returns the number of
 * rows written — or -1 when a chordality invariant of the scan fails. */
int64_t extend_mcs_m(const uint64_t *adj, int64_t k, int64_t wk,
                     const int64_t *live_sorted, const int64_t *live_dense,
                     const int64_t *order, int64_t w_out,
                     const uint64_t *phi, int64_t m, uint64_t *out,
                     int64_t *roots_out);

/* Answer materialisation: saturate the m separator rows of phi on a
 * scratch copy and write the fill of g[phi] as dense pairs
 * (lo_out[i], hi_out[i]), lo < hi, in lexicographic order; then run
 * the MCS clique scan of g[phi] and store its width (largest clique
 * size minus one) in *width_out.  Returns the number of fill pairs —
 * when that exceeds capacity nothing is written and the scan is
 * skipped — or -1 when a chordality invariant of the scan fails. */
int64_t materialise_fill(const uint64_t *adj, int64_t k, int64_t wk,
                         const int64_t *live_sorted,
                         const int64_t *live_dense, int64_t w_out,
                         const uint64_t *phi, int64_t m, int64_t *lo_out,
                         int64_t *hi_out, int64_t capacity,
                         int64_t *width_out);

/* N(C) for every component C of g minus the removed row, components
 * in order of their smallest label rank; out holds at most k rows.
 * Returns the number of rows written. */
int64_t component_neighbourhoods(const uint64_t *adj, int64_t k, int64_t wk,
                                 const int64_t *live_sorted,
                                 const int64_t *live_dense,
                                 const int64_t *order, int64_t w_out,
                                 const uint64_t *removed, uint64_t *out);

#endif /* REPRO_NATIVE_KERNELS_H */
