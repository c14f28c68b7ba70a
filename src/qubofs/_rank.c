/* Ranking of models.score_and_rank, one user at a time.
 *
 * A user's scores are their CSR profile row times the CSR similarity, which
 * holds the candidate columns only, summed into one dense accumulator. The
 * terms are added in the order scipy's csr_matmat adds them: the profile's
 * entries in order, each times its similarity row's entries in order; build
 * with -ffp-contract=off so that no multiply-add is fused. Then one pass over
 * the candidate columns checks each score, applies the zero rule
 * (|s| < zero_epsilon counts as 0), skips the items the user has seen
 * (profile value > 0) and keeps the best k in a buffer ordered by score
 * descending, then column ascending.
 *
 * Each matrix's 32-bit index arrays are read in place, as SparseMatrix
 * stores them.
 */
#include <math.h>
#include <stdint.h>

/* 0, or 1 when a score is not finite. position[item] is the item's candidate
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
        for (int64_t jj = p_indptr[u]; jj < p_indptr[u + 1]; jj++) {
            const int64_t j = p_indices[jj];
            const double v = p_data[jj];
            for (int64_t kk = s_indptr[j]; kk < s_indptr[j + 1]; kk++)
                acc[s_indices[kk]] += v * s_data[kk];
            if (v > 0 && position[j] >= 0)
                seen_by[position[j]] = u;
        }
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

