/* Sparse products of SparseMatrix, cosine top k and rankings, one row at a
 * time.
 *
 * Row i of A @ B is summed into a dense accumulator in the order of scipy's
 * csr_matmat, the reference the tests compare with: A's row i entries in
 * order, each times its B row's entries in order, starting from 0 (add_row);
 * build with -ffp-contract=off so that no multiply-add is fused.
 *
 * product_rows: each row is summed by add_row and read by one scan of its
 * dense sums, as in rank_users. Each column's sum must be finite (else the
 * call returns -1) and is kept when its magnitude is at least zero_epsilon,
 * so a column that no term lands in, or whose terms cancel, drops out.
 * Plain mode (top_k == 0) writes the kept columns: the canonical product.
 * Cosine mode (top_k >= 1) divides each kept sum g of column j by
 * (norms[i] * norms[j] + shrink) when normalize is set and applies the same
 * finiteness and zero rules again, drops the diagonal, and keeps the best
 * top_k by value descending, then column ascending. The item x item product
 * never exists: the scratch is a few arrays of n_cols entries. Each row is
 * written in ascending column order. A call writes the rows from first_row
 * on into an output buffer of a given capacity and stops before the first
 * row whose bound (the most entries it can keep) no longer fits, so the
 * caller copies out each block and goes on from the row returned.
 *
 * The 32-bit index arrays are read in place, as SparseMatrix stores them.
 */
#include <math.h>
#include <stdint.h>

/* The k-th largest of x[0..n), 1 <= k <= n, none of them NaN; x is
 * reordered. */
static double kth_largest(double *x, int64_t n, int64_t k)
{
    int64_t lo = 0, hi = n - 1;
    const int64_t want = k - 1;
    while (lo < hi) {
        const double pivot = x[lo + (hi - lo) / 2];
        int64_t i = lo, j = hi;
        while (i <= j) {
            while (x[i] > pivot)
                i++;
            while (x[j] < pivot)
                j--;
            if (i <= j) {
                const double held = x[i];
                x[i++] = x[j];
                x[j--] = held;
            }
        }
        if (want <= j)
            hi = j;
        else if (want >= i)
            lo = i;
        else
            return x[want];
    }
    return x[lo];
}

/* Add row i of A @ B into acc, in csr_matmat's order. */
static inline void add_row(int64_t i, const int32_t *a_indptr, const int32_t *a_indices,
                           const double *a_data, const int32_t *b_indptr,
                           const int32_t *b_indices, const double *b_data, double *acc)
{
    for (int64_t jj = a_indptr[i]; jj < a_indptr[i + 1]; jj++) {
        const int64_t j = a_indices[jj];
        const double v = a_data[jj];
        for (int64_t kk = b_indptr[j]; kk < b_indptr[j + 1]; kk++)
            acc[b_indices[kk]] += v * b_data[kk];
    }
}

/* norms (n_rows, read only when normalize is set) are A's row norms, and
 * B's column norms too as cosine mode runs on A @ A^T. acc (n_cols, zeros),
 * cols, vals and sel (n_cols) are scratch, kept from one call to the next.
 * out_indptr (n_rows + 1, with out_indptr[first_row] set) receives the row
 * pointers of the rows written; their entries fill out_indices and out_data
 * from 0 on, capacity entries at most. A row's bound is min(n_cols, the
 * row's terms), and at most top_k in cosine mode. Returns the first row not
 * written (n_rows when all are), or -1 when a sum or a normalised value is
 * not finite. */
int64_t product_rows(int64_t n_rows, int64_t n_cols, int64_t top_k, int64_t normalize,
                     double shrink, double zero_epsilon, int64_t first_row, int64_t capacity,
                     const int32_t *a_indptr, const int32_t *a_indices, const double *a_data,
                     const int32_t *b_indptr, const int32_t *b_indices, const double *b_data,
                     const double *norms,
                     double *acc, int32_t *cols, double *vals, double *sel,
                     int64_t *out_indptr, int32_t *out_indices, double *out_data)
{
    const int64_t base = out_indptr[first_row];
    int64_t nnz = 0;
    for (int64_t i = first_row; i < n_rows; i++) {
        int64_t terms = 0;
        for (int64_t jj = a_indptr[i]; jj < a_indptr[i + 1]; jj++)
            terms += b_indptr[a_indices[jj] + 1] - b_indptr[a_indices[jj]];
        int64_t bound = terms < n_cols ? terms : n_cols;
        if (top_k && bound > top_k)
            bound = top_k;
        if (nnz + bound > capacity)
            return i;
        /* sum the row, then find the nonzero sums by a scan */
        add_row(i, a_indptr, a_indices, a_data, b_indptr, b_indices, b_data, acc);
        int64_t n = 0;
        for (int32_t c = 0; c < n_cols; c++) {
            cols[n] = c;
            n += acc[c] != 0.0;
        }
        /* keep cols[0..m) with their values, in place */
        int64_t m = 0;
        for (int64_t t = 0; t < n; t++) {
            const int32_t c = cols[t];
            double g = acc[c];
            acc[c] = 0.0;
            if (!isfinite(g))
                return -1;
            if (fabs(g) < zero_epsilon)
                continue;
            if (top_k) {
                if (normalize) {
                    g = g / (norms[i] * norms[c] + shrink);
                    if (!isfinite(g))
                        return -1;
                    if (fabs(g) < zero_epsilon)
                        continue;
                }
                if (c == i)
                    continue;
            }
            cols[m] = c;
            vals[m] = g;
            m++;
        }
        /* the best top_k: the values above the top_k-th largest, and as
         * many of the values equal to it as are missing, lowest column first */
        double kth = -INFINITY;
        int64_t ties = m;
        if (top_k && m > top_k) {
            for (int64_t t = 0; t < m; t++)
                sel[t] = vals[t];
            kth = kth_largest(sel, m, top_k);
            ties = top_k;
            for (int64_t t = 0; t < m; t++)
                ties -= vals[t] > kth;
        }
        for (int64_t t = 0; t < m; t++) {
            if (vals[t] < kth || (vals[t] == kth && ties-- <= 0))
                continue;
            out_indices[nnz] = cols[t];
            out_data[nnz] = vals[t];
            nnz++;
        }
        out_indptr[i + 1] = base + nnz;
    }
    return n_rows;
}

/* The ranking of models.score_and_rank: a user's scores are their profile
 * row times the similarity, which holds the candidate columns only. One pass
 * over them checks each score, applies the zero rule (|s| < zero_epsilon
 * counts as 0), skips the items the user has seen (profile value > 0) and
 * keeps the best k by score descending, then column ascending. Returns 0, or
 * 1 when a score is not finite. position[item] is the item's candidate
 * column, -1 for the others, and candidates[column] the item. out holds
 * n_users rows of k items, of which the first lengths[u] are user u's list;
 * acc (n_cand, zeros), seen_by (n_cand, negative), best_score and best_col
 * (k) are scratch. */
int64_t rank_users(int64_t n_users, int64_t n_cand, int64_t k, double zero_epsilon,
                   const int32_t *p_indptr, const int32_t *p_indices, const double *p_data,
                   const int32_t *s_indptr, const int32_t *s_indices, const double *s_data,
                   const int64_t *position, const int64_t *candidates,
                   double *acc, int64_t *seen_by, double *best_score, int64_t *best_col,
                   int64_t *out, int64_t *lengths)
{
    for (int64_t u = 0; u < n_users; u++) {
        add_row(u, p_indptr, p_indices, p_data, s_indptr, s_indices, s_data, acc);
        for (int64_t jj = p_indptr[u]; jj < p_indptr[u + 1]; jj++)
            if (p_data[jj] > 0 && position[p_indices[jj]] >= 0)
                seen_by[position[p_indices[jj]]] = u;
        /* a score must beat kth, the k-th best score so far, to enter: a later
         * column ties below an earlier one */
        int64_t m = 0;
        double kth = -INFINITY;
        for (int64_t c = 0; c < n_cand; c++) {
            double s = acc[c];
            acc[c] = 0.0;
            if (!isfinite(s))
                return 1;
            if (fabs(s) < zero_epsilon)
                s = 0.0;
            if (!(s > kth) || seen_by[c] == u)
                continue;
            int64_t i = m < k ? m++ : k - 1;
            for (; i > 0 && s > best_score[i - 1]; i--) {
                best_score[i] = best_score[i - 1];
                best_col[i] = best_col[i - 1];
            }
            best_score[i] = s;
            best_col[i] = c;
            if (m == k)
                kth = best_score[k - 1];
        }
        for (int64_t i = 0; i < m; i++)
            out[u * k + i] = candidates[best_col[i]];
        lengths[u] = m;
    }
    return 0;
}
