/* Native word-matrix kernels — see kernels.h for the layout contract.
 *
 * The per-step kernels mirror the numpy implementations in
 * repro/graph/bitset_np.py bit for bit; those stay the reference
 * oracles (pinned by tests/test_native_kernels.py and the --check
 * gates of the microbenchmarks).  What the C tier removes is the numpy
 * per-call dispatch and every intermediate array: each kernel is one
 * pass over the packed words with the loop fused end to end.
 *
 * The three fused layer steps at the bottom (extend_mcs_m,
 * materialise_fill, component_neighbourhoods) have no numpy twin: they
 * mirror the int-mask Python pipelines they replace
 * (repro/core/extend.py and repro/chordal/minimal_separators.py),
 * which stay their oracles (tests/test_extend_kernels.py,
 * microbench_extend.py --check).
 */

#include <stdlib.h>
#include <string.h>

#include "kernels.h"

int repro_kernels_abi_version(void) { return REPRO_KERNELS_ABI_VERSION; }

void popcount_rows(const uint64_t *rows, int64_t m, int64_t words,
                   int64_t *out) {
    for (int64_t i = 0; i < m; i++) {
        const uint64_t *row = rows + i * words;
        int64_t total = 0;
        for (int64_t w = 0; w < words; w++) {
            total += __builtin_popcountll(row[w]);
        }
        out[i] = total;
    }
}

void crossing_batch(const uint64_t *components, int64_t k,
                    const uint64_t *remainders, int64_t m, int64_t words,
                    uint8_t *out) {
    for (int64_t i = 0; i < m; i++) {
        const uint64_t *rem = remainders + i * words;
        int touched = 0;
        for (int64_t c = 0; c < k && touched < 2; c++) {
            const uint64_t *comp = components + c * words;
            for (int64_t w = 0; w < words; w++) {
                if (rem[w] & comp[w]) {
                    touched++;
                    break;
                }
            }
        }
        out[i] = (uint8_t)(touched >= 2);
    }
}

void crossing_batch_gather(const uint64_t *components, int64_t k,
                           const uint64_t *matrix, int64_t words,
                           const int64_t *ids, int64_t m,
                           const uint64_t *v_row, uint8_t *out) {
    for (int64_t i = 0; i < m; i++) {
        const uint64_t *cand = matrix + ids[i] * words;
        int touched = 0;
        for (int64_t c = 0; c < k && touched < 2; c++) {
            const uint64_t *comp = components + c * words;
            for (int64_t w = 0; w < words; w++) {
                if ((cand[w] & ~v_row[w]) & comp[w]) {
                    touched++;
                    break;
                }
            }
        }
        out[i] = (uint8_t)(touched >= 2);
    }
}

void union_rows(const uint64_t *matrix, int64_t words,
                const int64_t *indices, int64_t m, uint64_t *out) {
    for (int64_t j = 0; j < m; j++) {
        const uint64_t *row = matrix + indices[j] * words;
        for (int64_t w = 0; w < words; w++) {
            out[w] |= row[w];
        }
    }
}

int frontier_sweep(const uint64_t *matrix, int64_t words,
                   uint64_t *component, const uint64_t *available) {
    uint64_t *frontier = malloc((size_t)words * 16);
    if (frontier == NULL) {
        return -1;
    }
    uint64_t *reached = frontier + words;
    memcpy(frontier, component, (size_t)words * 8);
    for (;;) {
        int any = 0;
        memset(reached, 0, (size_t)words * 8);
        for (int64_t w = 0; w < words; w++) {
            uint64_t bits = frontier[w];
            while (bits) {
                int64_t v = (w << 6) + __builtin_ctzll(bits);
                bits &= bits - 1;
                const uint64_t *row = matrix + v * words;
                for (int64_t x = 0; x < words; x++) {
                    reached[x] |= row[x];
                }
            }
        }
        for (int64_t w = 0; w < words; w++) {
            uint64_t grown = reached[w] & available[w] & ~component[w];
            frontier[w] = grown;
            component[w] |= grown;
            any |= grown != 0;
        }
        if (!any) {
            break;
        }
    }
    free(frontier);
    return 0;
}

/* Shared missing-pair walk: counts pairs, and fills u_out/v_out when
 * given.  Keeping bits strictly above u drops both the diagonal and
 * the reversed orientation, matching the numpy kernel's order. */
static int64_t saturate_pairs(const uint64_t *matrix, int64_t words,
                              const uint64_t *mask_row, const int64_t *idx,
                              int64_t k, int64_t *u_out, int64_t *v_out) {
    int64_t count = 0;
    for (int64_t i = 0; i < k; i++) {
        int64_t u = idx[i];
        const uint64_t *row = matrix + u * words;
        int64_t w0 = u >> 6;
        for (int64_t w = w0; w < words; w++) {
            uint64_t missing = mask_row[w] & ~row[w];
            if (w == w0) {
                /* Drop bits 0..(u % 64): unsigned wrap makes the mask
                 * all-ones at shift 63, exactly what is needed. */
                missing &= ~((2ULL << (u & 63)) - 1ULL);
            }
            while (missing) {
                int64_t v = (w << 6) + __builtin_ctzll(missing);
                missing &= missing - 1;
                if (u_out != NULL) {
                    u_out[count] = u;
                    v_out[count] = v;
                }
                count++;
            }
        }
    }
    return count;
}

int64_t saturate_count(const uint64_t *matrix, int64_t words,
                       const uint64_t *mask_row, const int64_t *idx,
                       int64_t k) {
    return saturate_pairs(matrix, words, mask_row, idx, k, NULL, NULL);
}

void saturate_fill(const uint64_t *matrix, int64_t words,
                   const uint64_t *mask_row, const int64_t *idx, int64_t k,
                   int64_t *u_out, int64_t *v_out) {
    saturate_pairs(matrix, words, mask_row, idx, k, u_out, v_out);
}

void set_edge_bits(uint64_t *matrix, int64_t words, const int64_t *u_arr,
                   const int64_t *v_arr, int64_t m) {
    for (int64_t i = 0; i < m; i++) {
        int64_t u = u_arr[i];
        int64_t v = v_arr[i];
        matrix[u * words + (v >> 6)] |= 1ULL << (v & 63);
        matrix[v * words + (u >> 6)] |= 1ULL << (u & 63);
    }
}

int is_peo_packed(const uint64_t *matrix, int64_t words,
                  const int64_t *order, int64_t k, int64_t n_slots) {
    if (k == 0) {
        return 1;
    }
    uint64_t *madj = calloc((size_t)(k * words), 8);
    uint64_t *later = calloc((size_t)words, 8);
    int64_t *pos = malloc((size_t)n_slots * 8);
    if (madj == NULL || later == NULL || pos == NULL) {
        free(madj);
        free(later);
        free(pos);
        return -1;
    }
    for (int64_t i = 0; i < k; i++) {
        pos[order[i]] = i;
    }
    /* madj rows back to front: row i = adj(order[i]) restricted to
     * vertices ordered after i. */
    for (int64_t i = k - 1; i >= 0; i--) {
        int64_t v = order[i];
        const uint64_t *row = matrix + v * words;
        uint64_t *mrow = madj + i * words;
        for (int64_t w = 0; w < words; w++) {
            mrow[w] = row[w] & later[w];
        }
        later[v >> 6] |= 1ULL << (v & 63);
    }
    int ok = 1;
    for (int64_t i = 0; i < k && ok; i++) {
        const uint64_t *mrow = madj + i * words;
        /* Parent: the earliest-ordered member of madj (min position). */
        int64_t parent = -1;
        int64_t parent_pos = k;
        for (int64_t w = 0; w < words; w++) {
            uint64_t bits = mrow[w];
            while (bits) {
                int64_t v = (w << 6) + __builtin_ctzll(bits);
                bits &= bits - 1;
                if (pos[v] < parent_pos) {
                    parent_pos = pos[v];
                    parent = v;
                }
            }
        }
        if (parent < 0) {
            continue;
        }
        const uint64_t *prow = madj + parent_pos * words;
        for (int64_t w = 0; w < words; w++) {
            uint64_t violation = mrow[w] & ~prow[w];
            if (w == (parent >> 6)) {
                violation &= ~(1ULL << (parent & 63));
            }
            if (violation) {
                ok = 0;
                break;
            }
        }
    }
    free(madj);
    free(later);
    free(pos);
    return ok;
}

static int compare_i64(const void *a, const void *b) {
    int64_t lhs = *(const int64_t *)a;
    int64_t rhs = *(const int64_t *)b;
    return (lhs > rhs) - (lhs < rhs);
}

int64_t weight_level_rows(const int64_t *indices, const int64_t *weights,
                          int64_t m, int64_t words, uint8_t *out) {
    if (m == 0) {
        return 0;
    }
    int64_t *distinct = malloc((size_t)m * 8);
    if (distinct == NULL) {
        return -1;
    }
    memcpy(distinct, weights, (size_t)m * 8);
    qsort(distinct, (size_t)m, 8, compare_i64);
    int64_t levels = 0;
    for (int64_t i = 0; i < m; i++) {
        if (levels == 0 || distinct[i] != distinct[levels - 1]) {
            distinct[levels++] = distinct[i];
        }
    }
    int64_t row_bytes = words * 8;
    for (int64_t j = 0; j < m; j++) {
        /* Binary search: weights[j] is always present in distinct. */
        int64_t lo = 0;
        int64_t hi = levels - 1;
        while (lo < hi) {
            int64_t mid = (lo + hi) >> 1;
            if (distinct[mid] < weights[j]) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        int64_t bit = indices[j];
        out[lo * row_bytes + (bit >> 3)] |= (uint8_t)(1u << (bit & 7));
    }
    free(distinct);
    return levels;
}

int64_t argmax_i64(const int64_t *key, int64_t n) {
    int64_t best = 0;
    for (int64_t i = 1; i < n; i++) {
        if (key[i] > key[best]) {
            best = i;
        }
    }
    return best;
}

void queue_bump_mask(int64_t *key, int64_t *weights,
                     const uint64_t *mask_row, int64_t words,
                     int64_t stride) {
    for (int64_t w = 0; w < words; w++) {
        uint64_t bits = mask_row[w];
        while (bits) {
            int64_t i = (w << 6) + __builtin_ctzll(bits);
            bits &= bits - 1;
            weights[i] += 1;
            key[i] += stride;
        }
    }
}

int64_t mask_row_indices(const uint64_t *mask_row, int64_t words,
                         int64_t *out) {
    int64_t count = 0;
    for (int64_t w = 0; w < words; w++) {
        uint64_t bits = mask_row[w];
        while (bits) {
            out[count++] = (w << 6) + __builtin_ctzll(bits);
            bits &= bits - 1;
        }
    }
    return count;
}

int64_t masked_rows_popcount(const uint64_t *matrix, int64_t words,
                             const uint64_t *mask_row) {
    int64_t total = 0;
    for (int64_t w = 0; w < words; w++) {
        uint64_t bits = mask_row[w];
        while (bits) {
            int64_t u = (w << 6) + __builtin_ctzll(bits);
            bits &= bits - 1;
            const uint64_t *row = matrix + u * words;
            for (int64_t x = 0; x < words; x++) {
                total += __builtin_popcountll(row[x] & mask_row[x]);
            }
        }
    }
    return total;
}

/* ------------------------------------------------------------------
 * Fused layer steps over a dense vertex numbering.
 *
 * A graph's k live vertices are renumbered 0..k-1 by label rank, so
 * "lowest set bit" is "smallest label rank" and every scratch row is
 * ceil(k / 64) words however sparse the caller's index space is.
 * Rows crossing the boundary stay in the caller's index space
 * (w_out words): live_sorted/live_dense translate them in (ascending
 * caller indices and their dense numbers), order translates them out
 * (order[d] = caller index of dense vertex d).
 * ------------------------------------------------------------------ */

#define ROW(matrix, i, words) ((matrix) + (int64_t)(i) * (words))

static void dense_row_in(const uint64_t *row, int64_t w_out,
                         const int64_t *live_sorted,
                         const int64_t *live_dense, int64_t k,
                         uint64_t *dense, int64_t wk) {
    memset(dense, 0, (size_t)wk * 8);
    int64_t lo = 0;
    for (int64_t w = 0; w < w_out && lo < k; w++) {
        uint64_t bits = row[w];
        while (bits) {
            int64_t index = (w << 6) + __builtin_ctzll(bits);
            bits &= bits - 1;
            /* Bits ascend, so the search window only shrinks. */
            int64_t hi = k;
            while (lo < hi) {
                int64_t mid = (lo + hi) >> 1;
                if (live_sorted[mid] < index) {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            if (lo == k) {
                return;
            }
            if (live_sorted[lo] == index) {
                int64_t d = live_dense[lo];
                dense[d >> 6] |= 1ULL << (d & 63);
            }
        }
    }
}

static void dense_row_out(const uint64_t *dense, int64_t wk,
                          const int64_t *order, uint64_t *row,
                          int64_t w_out) {
    memset(row, 0, (size_t)w_out * 8);
    for (int64_t w = 0; w < wk; w++) {
        uint64_t bits = dense[w];
        while (bits) {
            int64_t index = order[(w << 6) + __builtin_ctzll(bits)];
            bits &= bits - 1;
            row[index >> 6] |= 1ULL << (index & 63);
        }
    }
}

void dense_rows(const uint64_t *rows, int64_t m, int64_t w_out,
                const int64_t *live_sorted, const int64_t *live_dense,
                int64_t k, uint64_t *out, int64_t wk) {
    for (int64_t i = 0; i < m; i++) {
        dense_row_in(ROW(rows, i, w_out), w_out, live_sorted, live_dense, k,
                     ROW(out, i, wk), wk);
    }
}

static int rows_equal(const uint64_t *a, const uint64_t *b, int64_t wk) {
    for (int64_t w = 0; w < wk; w++) {
        if (a[w] != b[w]) {
            return 0;
        }
    }
    return 1;
}

static int64_t first_bit(const uint64_t *a, int64_t wk) {
    for (int64_t w = 0; w < wk; w++) {
        if (a[w]) {
            return (w << 6) + __builtin_ctzll(a[w]);
        }
    }
    return -1;
}

/* Vertices bucketed by small integer weight: bucket rows, member
 * counts and the running maximum, as in repro.graph.core's
 * MaxWeightBuckets. */
typedef struct {
    uint64_t *rows;     /* (k + 1) x wk */
    int64_t *count;     /* k + 1 */
    int64_t *weight;    /* k */
    int64_t max_weight;
    int64_t wk;
} buckets_t;

static void buckets_reset(buckets_t *b, int64_t k) {
    int64_t wk = b->wk;
    memset(b->rows, 0, (size_t)((k + 1) * wk) * 8);
    memset(b->count, 0, (size_t)(k + 1) * 8);
    memset(b->weight, 0, (size_t)k * 8);
    for (int64_t d = 0; d < k; d++) {
        b->rows[d >> 6] |= 1ULL << (d & 63);
    }
    b->count[0] = k;
    b->max_weight = 0;
}

/* Remove and return the smallest-rank vertex of the heaviest bucket. */
static int64_t buckets_pop_max(buckets_t *b) {
    while (b->count[b->max_weight] == 0) {
        b->max_weight--;
    }
    uint64_t *row = ROW(b->rows, b->max_weight, b->wk);
    int64_t v = first_bit(row, b->wk);
    row[v >> 6] &= ~(1ULL << (v & 63));
    b->count[b->max_weight]--;
    return v;
}

static void buckets_bump_all(buckets_t *b, const uint64_t *mask) {
    int64_t wk = b->wk;
    for (int64_t w = 0; w < wk; w++) {
        uint64_t bits = mask[w];
        while (bits) {
            uint64_t low = bits & -bits;
            int64_t u = (w << 6) + __builtin_ctzll(bits);
            bits ^= low;
            int64_t old = b->weight[u];
            ROW(b->rows, old, wk)[w] &= ~low;
            ROW(b->rows, old + 1, wk)[w] |= low;
            b->count[old]--;
            b->count[old + 1]++;
            b->weight[u] = old + 1;
            if (old + 1 > b->max_weight) {
                b->max_weight = old + 1;
            }
        }
    }
}

/* OR the adjacency rows of every vertex of `members` into acc. */
static void or_rows(const uint64_t *adj, int64_t wk, const uint64_t *members,
                    uint64_t *acc) {
    for (int64_t w = 0; w < wk; w++) {
        uint64_t bits = members[w];
        while (bits) {
            const uint64_t *row = ROW(adj, (w << 6) + __builtin_ctzll(bits), wk);
            bits &= bits - 1;
            for (int64_t x = 0; x < wk; x++) {
                acc[x] |= row[x];
            }
        }
    }
}

/* The MCS-M update set of v (the threshold sweep of
 * repro.chordal.triangulate._mcs_m_update_mask): unnumbered u reached
 * from v through unnumbered vertices all lighter than u.  scratch
 * holds 5 * wk words. */
static void mcs_m_update(const uint64_t *adj, int64_t wk, const buckets_t *b,
                         const uint64_t *avail, int64_t v, uint64_t *update,
                         uint64_t *scratch) {
    uint64_t *reached = scratch;
    uint64_t *processed = scratch + wk;
    uint64_t *weight_le = scratch + 2 * wk;
    uint64_t *frontier = scratch + 3 * wk;
    uint64_t *grown = scratch + 4 * wk;
    const uint64_t *row_v = ROW(adj, v, wk);
    int any = 0;
    int full = 1;
    for (int64_t w = 0; w < wk; w++) {
        reached[w] = row_v[w] & avail[w];
        update[w] = reached[w];
        any |= reached[w] != 0;
        full &= reached[w] == avail[w];
        processed[w] = 0;
        weight_le[w] = 0;
    }
    if (!any || full) {
        return;
    }
    for (int64_t t = 0; t <= b->max_weight; t++) {
        if (b->count[t] == 0) {
            continue;
        }
        const uint64_t *bucket = ROW(b->rows, t, wk);
        for (int64_t w = 0; w < wk; w++) {
            weight_le[w] |= bucket[w];
        }
        for (;;) {
            int grow = 0;
            for (int64_t w = 0; w < wk; w++) {
                frontier[w] = reached[w] & weight_le[w] & ~processed[w];
                processed[w] |= frontier[w];
                grow |= frontier[w] != 0;
            }
            if (!grow) {
                break;
            }
            memset(grown, 0, (size_t)wk * 8);
            or_rows(adj, wk, frontier, grown);
            for (int64_t w = 0; w < wk; w++) {
                uint64_t fresh = grown[w] & avail[w] & ~reached[w];
                reached[w] |= fresh;
                update[w] |= fresh & ~weight_le[w];
            }
        }
        if (rows_equal(reached, avail, wk)) {
            break;
        }
    }
}

/* g[phi]: copy adj into sat and make each of the m caller-space
 * separator rows of phi a clique.  row is wk words of scratch. */
static void saturate_phi(const uint64_t *adj, int64_t k, int64_t wk,
                         const int64_t *live_sorted,
                         const int64_t *live_dense, int64_t w_out,
                         const uint64_t *phi, int64_t m, uint64_t *sat,
                         uint64_t *row) {
    memcpy(sat, adj, (size_t)(k * wk) * 8);
    for (int64_t s = 0; s < m; s++) {
        dense_row_in(ROW(phi, s, w_out), w_out, live_sorted, live_dense, k,
                     row, wk);
        for (int64_t w = 0; w < wk; w++) {
            uint64_t bits = row[w];
            while (bits) {
                int64_t u = (w << 6) + __builtin_ctzll(bits);
                bits &= bits - 1;
                uint64_t *sat_u = ROW(sat, u, wk);
                for (int64_t x = 0; x < wk; x++) {
                    sat_u[x] |= row[x];
                }
                sat_u[u >> 6] &= ~(1ULL << (u & 63));
            }
        }
    }
}

/* Scratch of clique_scan: the clique rows, the weight buckets and four
 * wk-word rows.  ints holds 4 * k + 1 words. */
typedef struct {
    uint64_t *cliques;  /* k x wk */
    buckets_t b;        /* (k + 1) x wk rows, counts and weights */
    int64_t *stamp;     /* k */
    int64_t *clique_of; /* k */
    uint64_t *open;     /* unvisited */
    uint64_t *seen;     /* visited */
    uint64_t *nbrs;
    uint64_t *update;
} scan_t;

static void scan_init(scan_t *s, int64_t k, int64_t wk, uint64_t *cliques,
                      uint64_t *bucket_rows, int64_t *ints, uint64_t *rows) {
    s->cliques = cliques;
    s->b = (buckets_t){bucket_rows, ints, ints + k + 1, 0, wk};
    s->stamp = ints + 2 * k + 1;
    s->clique_of = ints + 3 * k + 1;
    s->open = rows;
    s->seen = rows + wk;
    s->nbrs = rows + 2 * wk;
    s->update = rows + 3 * wk;
}

/* The MCS clique-forest scan of the chordal graph h (k x wk dense rows;
 * repro.chordal.cliques.clique_forest_masks), keeping both chordality
 * invariants.  When out is not NULL, the separator of each non-root
 * clique is written to it in caller space (through order, w_out words
 * a row).  Returns the number of non-root cliques, or -1 when an
 * invariant fails (h is not chordal); *roots_out counts the roots and
 * *width_out is the largest clique size minus one. */
static int64_t clique_scan(const uint64_t *h, int64_t k, int64_t wk,
                           scan_t *s, const int64_t *order, int64_t w_out,
                           uint64_t *out, int64_t *roots_out,
                           int64_t *width_out) {
    buckets_reset(&s->b, k);
    memcpy(s->open, s->b.rows, (size_t)wk * 8);
    memset(s->seen, 0, (size_t)wk * 8);
    uint64_t *nbrs = s->nbrs;
    int64_t n_cliques = 0;
    int64_t current = -1;
    int64_t prev_card = -1;
    int64_t n_out = 0;
    int64_t roots = 0;
    int64_t width = -1;
    for (int64_t step = 0; step < k; step++) {
        int64_t node = buckets_pop_max(&s->b);
        const uint64_t *row = ROW(h, node, wk);
        int64_t card = 0;
        for (int64_t w = 0; w < wk; w++) {
            nbrs[w] = row[w] & s->seen[w];
            card += __builtin_popcountll(nbrs[w]);
        }
        if (card == prev_card + 1 && current >= 0) {
            uint64_t *clique = ROW(s->cliques, current, wk);
            if (!rows_equal(nbrs, clique, wk)) {
                return -1;  /* clique-continuation invariant */
            }
            clique[node >> 6] |= 1ULL << (node & 63);
        } else {
            if (card > 0) {
                int64_t last = -1;
                for (int64_t w = 0; w < wk; w++) {
                    uint64_t bits = nbrs[w];
                    while (bits) {
                        int64_t u = (w << 6) + __builtin_ctzll(bits);
                        bits &= bits - 1;
                        if (last < 0 || s->stamp[u] > s->stamp[last]) {
                            last = u;
                        }
                    }
                }
                const uint64_t *parent =
                    ROW(s->cliques, s->clique_of[last], wk);
                for (int64_t w = 0; w < wk; w++) {
                    if (nbrs[w] & ~parent[w]) {
                        return -1;  /* parent-clique invariant */
                    }
                }
                if (out != NULL) {
                    dense_row_out(nbrs, wk, order, ROW(out, n_out, w_out),
                                  w_out);
                }
                n_out++;
            } else {
                roots++;
            }
            uint64_t *clique = ROW(s->cliques, n_cliques, wk);
            memcpy(clique, nbrs, (size_t)wk * 8);
            clique[node >> 6] |= 1ULL << (node & 63);
            current = n_cliques++;
        }
        /* The clique holding node is M(node) + node. */
        if (card > width) {
            width = card;
        }
        s->clique_of[node] = current;
        s->stamp[node] = step;
        s->seen[node >> 6] |= 1ULL << (node & 63);
        s->open[node >> 6] &= ~(1ULL << (node & 63));
        prev_card = card;
        for (int64_t w = 0; w < wk; w++) {
            s->update[w] = row[w] & s->open[w];
        }
        buckets_bump_all(&s->b, s->update);
    }
    *roots_out = roots;
    *width_out = width;
    return n_out;
}

/* Scratch shared by the two fused steps below: `matrices` k x wk
 * matrices, the buckets and the scan's integer arrays, and `n_rows`
 * wk-word rows.  Returns 0, or -2 (everything freed) when malloc
 * fails. */
typedef struct {
    uint64_t *matrices;
    uint64_t *bucket_rows;
    int64_t *ints;
    uint64_t *rows;
} scratch_t;

static void scratch_free(scratch_t *s) {
    free(s->matrices);
    free(s->bucket_rows);
    free(s->ints);
    free(s->rows);
}

static int scratch_alloc(scratch_t *s, int64_t k, int64_t wk,
                         int64_t matrices, int64_t n_rows) {
    s->matrices = malloc((size_t)(matrices * k * wk) * 8);
    s->bucket_rows = malloc((size_t)((k + 1) * wk) * 8);
    s->ints = malloc((size_t)(4 * k + 1) * 8);
    s->rows = malloc((size_t)(n_rows * wk) * 8);
    if (!s->matrices || !s->bucket_rows || !s->ints || !s->rows) {
        scratch_free(s);
        return -2;
    }
    return 0;
}

int64_t extend_mcs_m(const uint64_t *adj, int64_t k, int64_t wk,
                     const int64_t *live_sorted, const int64_t *live_dense,
                     const int64_t *order, int64_t w_out,
                     const uint64_t *phi, int64_t m, uint64_t *out,
                     int64_t *roots_out) {
    *roots_out = 0;
    if (k == 0) {
        return 0;
    }
    scratch_t mem;
    if (scratch_alloc(&mem, k, wk, 3, 10) < 0) {
        return -2;
    }
    size_t matrix_words = (size_t)(k * wk);
    uint64_t *sat = mem.matrices;
    uint64_t *filled = sat + matrix_words;
    scan_t scan;
    scan_init(&scan, k, wk, filled + matrix_words, mem.bucket_rows,
              mem.ints, mem.rows);
    uint64_t *update = mem.rows + 4 * wk;
    uint64_t *sweep = mem.rows + 5 * wk;  /* 5 * wk words */
    uint64_t *open = scan.open;
    buckets_t *b = &scan.b;

    saturate_phi(adj, k, wk, live_sorted, live_dense, w_out, phi, m, sat,
                 update);

    /* MCS-M on g[phi]; the fill goes into a second copy. */
    memcpy(filled, sat, matrix_words * 8);
    buckets_reset(b, k);
    memcpy(open, b->rows, (size_t)wk * 8);
    for (int64_t step = 0; step < k; step++) {
        int64_t v = buckets_pop_max(b);
        open[v >> 6] &= ~(1ULL << (v & 63));
        mcs_m_update(sat, wk, b, open, v, update, sweep);
        buckets_bump_all(b, update);
        const uint64_t *row_v = ROW(sat, v, wk);
        uint64_t *fill_v = ROW(filled, v, wk);
        for (int64_t w = 0; w < wk; w++) {
            uint64_t bits = update[w] & ~row_v[w];
            fill_v[w] |= bits;
            while (bits) {
                int64_t u = (w << 6) + __builtin_ctzll(bits);
                bits &= bits - 1;
                ROW(filled, u, wk)[v >> 6] |= 1ULL << (v & 63);
            }
        }
    }

    /* Clique-forest scan of g[phi] + fill. */
    int64_t width;
    int64_t n_out = clique_scan(filled, k, wk, &scan, order, w_out, out,
                                roots_out, &width);
    scratch_free(&mem);
    return n_out;
}

int64_t materialise_fill(const uint64_t *adj, int64_t k, int64_t wk,
                         const int64_t *live_sorted,
                         const int64_t *live_dense, int64_t w_out,
                         const uint64_t *phi, int64_t m, int64_t *lo_out,
                         int64_t *hi_out, int64_t capacity,
                         int64_t *width_out) {
    *width_out = -1;
    if (k == 0) {
        return 0;
    }
    scratch_t mem;
    if (scratch_alloc(&mem, k, wk, 2, 4) < 0) {
        return -2;
    }
    uint64_t *sat = mem.matrices;
    scan_t scan;
    scan_init(&scan, k, wk, sat + (size_t)(k * wk), mem.bucket_rows,
              mem.ints, mem.rows);
    saturate_phi(adj, k, wk, live_sorted, live_dense, w_out, phi, m, sat,
                 scan.nbrs);

    /* The fill, row by row: v > u in sat[u] but not in adj[u]. */
    int64_t count = 0;
    for (int64_t u = 0; u < k; u++) {
        const uint64_t *sat_u = ROW(sat, u, wk);
        const uint64_t *adj_u = ROW(adj, u, wk);
        for (int64_t w = u >> 6; w < wk; w++) {
            uint64_t bits = sat_u[w] & ~adj_u[w];
            if (w == u >> 6) {
                bits &= ~((2ULL << (u & 63)) - 1);
            }
            while (bits) {
                if (count < capacity) {
                    lo_out[count] = u;
                    hi_out[count] = (w << 6) + __builtin_ctzll(bits);
                }
                count++;
                bits &= bits - 1;
            }
        }
    }
    if (count > capacity) {
        scratch_free(&mem);
        return count;
    }
    int64_t roots;
    if (clique_scan(sat, k, wk, &scan, NULL, 0, NULL, &roots, width_out) < 0) {
        count = -1;
    }
    scratch_free(&mem);
    return count;
}

int64_t component_neighbourhoods(const uint64_t *adj, int64_t k, int64_t wk,
                                 const int64_t *live_sorted,
                                 const int64_t *live_dense,
                                 const int64_t *order, int64_t w_out,
                                 const uint64_t *removed, uint64_t *out) {
    if (k == 0) {
        return 0;
    }
    uint64_t *rows = malloc((size_t)wk * 5 * 8);
    if (rows == NULL) {
        return -2;
    }
    uint64_t *remaining = rows;
    uint64_t *component = rows + wk;
    uint64_t *frontier = rows + 2 * wk;
    uint64_t *reach = rows + 3 * wk;
    uint64_t *grown = rows + 4 * wk;
    dense_row_in(removed, w_out, live_sorted, live_dense, k, component, wk);
    for (int64_t w = 0; w < wk; w++) {
        int64_t low = w << 6;
        uint64_t live = k - low >= 64 ? ~0ULL : (1ULL << (k - low)) - 1;
        remaining[w] = live & ~component[w];
    }
    int64_t n_out = 0;
    int64_t seed;
    while ((seed = first_bit(remaining, wk)) >= 0) {
        /* Components start at their smallest label rank. */
        memset(component, 0, (size_t)wk * 8);
        memset(reach, 0, (size_t)wk * 8);
        component[seed >> 6] = 1ULL << (seed & 63);
        memcpy(frontier, component, (size_t)wk * 8);
        for (;;) {
            memset(grown, 0, (size_t)wk * 8);
            or_rows(adj, wk, frontier, grown);
            int any = 0;
            for (int64_t w = 0; w < wk; w++) {
                reach[w] |= grown[w];
                frontier[w] = grown[w] & remaining[w] & ~component[w];
                component[w] |= frontier[w];
                any |= frontier[w] != 0;
            }
            if (!any) {
                break;
            }
        }
        for (int64_t w = 0; w < wk; w++) {
            remaining[w] &= ~component[w];
            reach[w] &= ~component[w];
        }
        dense_row_out(reach, wk, order, ROW(out, n_out, w_out), w_out);
        n_out++;
    }
    free(rows);
    return n_out;
}
