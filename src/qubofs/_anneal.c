/* Single-flip Metropolis sweeps of solvers.solve_sa_many, one row at a time.
 *
 * Row r is restart r % num_samples of problem r / num_samples; bitgens[2r] and
 * bitgens[2r + 1] are its orders and coins generators. It starts from
 * the state numpy set up (x, its field x @ q and its energy) and reads its two
 * PCG64 streams in sequence, exactly as the numpy path does: per sweep, the
 * orders stream shuffles the identity as Generator.permuted does
 * (Fisher-Yates from the end, a masked rejection draw in [0, i] on 32 bits),
 * and the coins stream gives one next_double per flip. The arithmetic is the
 * numpy path's, term by term; build with -ffp-contract=off so that no
 * multiply-add is fused.
 */
#include <math.h>
#include <stdint.h>

/* numpy/random/bitgen.h */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* numpy's random_interval for max < 2**32: n variables never reach that */
static int64_t random_interval(bitgen_t *gen, uint32_t max)
{
    uint32_t mask = max, value;
    mask |= mask >> 1;
    mask |= mask >> 2;
    mask |= mask >> 4;
    mask |= mask >> 8;
    mask |= mask >> 16;
    while ((value = gen->next_uint32(gen->state) & mask) > max)
        ;
    return value;
}

void anneal_rows(int64_t n_rows, int64_t n, int64_t sweeps, int64_t num_samples,
                 const double *q_stack, const double *neg_betas,
                 bitgen_t *const *bitgens,
                 double *x_all, double *field_all, double *current,
                 double *best_energy, int8_t *best_x_all, int64_t *order)
{
    for (int64_t r = 0; r < n_rows; r++) {
        const int64_t p = r / num_samples;
        const double *q = q_stack + p * n * n;
        const double *neg_beta = neg_betas + p * sweeps;
        double *x = x_all + r * n;
        double *field = field_all + r * n;
        int8_t *best_x = best_x_all + r * n;
        bitgen_t *orders = bitgens[2 * r], *coins = bitgens[2 * r + 1];
        for (int64_t t = 0; t < sweeps; t++) {
            for (int64_t i = 0; i < n; i++)
                order[i] = i;
            for (int64_t i = n - 1; i > 0; i--) {
                int64_t j = random_interval(orders, (uint32_t)i);
                int64_t swap = order[i];
                order[i] = order[j];
                order[j] = swap;
            }
            for (int64_t pos = 0; pos < n; pos++) {
                const int64_t f = order[pos];
                const double u = coins->next_double(coins->state);
                const double xf = x[f];
                const double df = q[f * n + f];
                const double delta = 1.0 - 2.0 * xf;
                const double d_energy = delta * (df + 2.0 * (field[f] - df * xf));
                /* u < 1 = exp(0): every downhill move is accepted */
                if (!(d_energy <= 0.0 || u < exp(neg_beta[t] * d_energy)))
                    continue;
                x[f] += delta;
                current[r] += d_energy;
                const double *q_f = q + f * n;
                for (int64_t k = 0; k < n; k++)
                    field[k] += q_f[k] * delta;
                if (current[r] < best_energy[r]) {
                    best_energy[r] = current[r];
                    for (int64_t k = 0; k < n; k++)
                        best_x[k] = (int8_t)x[k];
                }
            }
        }
    }
}
