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
 * Each matrix's index arrays are read in place, 32- or 64-bit (wide) as
 * scipy stores them; rank_users runs the loop compiled for each pair.
 */
#include <math.h>
#include <stdint.h>

static inline int64_t at(const void *index, int wide, int64_t i)
{
    return wide ? ((const int64_t *)index)[i] : ((const int32_t *)index)[i];
}

static inline __attribute__((always_inline)) int64_t
rank(int64_t n_users, int64_t n_cand, int64_t k, double zero_epsilon,
     int p_wide, const void *p_indptr, const void *p_indices, const double *p_data,
     int s_wide, const void *s_indptr, const void *s_indices, const double *s_data,
     const int64_t *position, const int64_t *candidates,
     double *acc, int64_t *seen_by, double *best_score, int64_t *best_col,
     int64_t *out, int64_t *lengths)
{
    for (int64_t u = 0; u < n_users; u++) {
        const int64_t jj_end = at(p_indptr, p_wide, u + 1);
        for (int64_t jj = at(p_indptr, p_wide, u); jj < jj_end; jj++) {
            const int64_t j = at(p_indices, p_wide, jj);
            const double v = p_data[jj];
            const int64_t kk_end = at(s_indptr, s_wide, j + 1);
            for (int64_t kk = at(s_indptr, s_wide, j); kk < kk_end; kk++)
                acc[at(s_indices, s_wide, kk)] += v * s_data[kk];
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

/* 0, or 1 when a score is not finite. position[item] is the item's candidate
 * column, -1 for the others, and candidates[column] the item. out holds
 * n_users rows of k items, of which the first lengths[u] are user u's list;
 * acc (n_cand, zeros), seen_by (n_cand, negative), best_score and best_col
 * (k) are scratch. */
int64_t rank_users(int64_t n_users, int64_t n_cand, int64_t k, double zero_epsilon,
                   int64_t p_wide, const void *p_indptr, const void *p_indices, const double *p_data,
                   int64_t s_wide, const void *s_indptr, const void *s_indices, const double *s_data,
                   const int64_t *position, const int64_t *candidates,
                   double *acc, int64_t *seen_by, double *best_score, int64_t *best_col,
                   int64_t *out, int64_t *lengths)
{
#define RANK(pw, sw) rank(n_users, n_cand, k, zero_epsilon, pw, p_indptr, p_indices, p_data, \
                          sw, s_indptr, s_indices, s_data, position, candidates, \
                          acc, seen_by, best_score, best_col, out, lengths)
    if (p_wide)
        return s_wide ? RANK(1, 1) : RANK(1, 0);
    return s_wide ? RANK(0, 1) : RANK(0, 0);
#undef RANK
}
