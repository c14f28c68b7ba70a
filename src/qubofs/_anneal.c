/* Single-flip Metropolis sweeps of solvers.solve_sa_many, one row at a time.
 *
 * Row r is restart r % num_samples of problem r / num_samples. It owns two
 * PCG64 streams, its orders and its coins, which this file seeds and draws
 * itself with an inlined copy of numpy's PCG64 (numpy/random/src/pcg64):
 * 128-bit LCG steps with XSL-RR output, seeded as pcg64_set_seed does from
 * the four SeedSequence words solvers._stream_words gives, a 32-bit draw
 * handing out the low half of a 64-bit one and keeping the high half for the
 * next, and a double taking the top 53 bits. seed_rows seeds every stream and
 * draws each row's initial assignment from its coins; numpy then sets up the
 * field x @ q and the energy, and anneal_rows continues both streams from
 * there, exactly as the numpy path reads its Generators: per sweep, the
 * orders stream shuffles the identity as Generator.permuted does
 * (Fisher-Yates from the end, a masked rejection draw in [0, i] on 32 bits),
 * and the coins stream gives one double per flip. The arithmetic is the numpy
 * path's, term by term; build with -ffp-contract=off so that no multiply-add
 * is fused.
 */
#include <math.h>
#include <stdint.h>

typedef unsigned __int128 u128;

typedef struct {
    u128 state, inc;
    int has_uint32;
    uint32_t uinteger;
} pcg64_t;

static const u128 PCG64_MULTIPLIER = ((u128)0x2360ed051fc65da4ULL << 64) | 0x4385df649fccf645ULL;

static inline void pcg64_step(pcg64_t *rng)
{
    rng->state = rng->state * PCG64_MULTIPLIER + rng->inc;
}

static inline uint64_t next_uint64(pcg64_t *rng)
{
    pcg64_step(rng);
    const uint64_t value = (uint64_t)(rng->state >> 64) ^ (uint64_t)rng->state;
    const unsigned rot = (unsigned)(rng->state >> 122);
    return (value >> rot) | (value << ((-rot) & 63));
}

static inline uint32_t next_uint32(pcg64_t *rng)
{
    if (rng->has_uint32) {
        rng->has_uint32 = 0;
        return rng->uinteger;
    }
    const uint64_t next = next_uint64(rng);
    rng->has_uint32 = 1;
    rng->uinteger = (uint32_t)(next >> 32);
    return (uint32_t)next;
}

static inline double next_double(pcg64_t *rng)
{
    return (double)(next_uint64(rng) >> 11) * (1.0 / 9007199254740992.0);
}

/* a stream stored as four words: state high, state low, inc high, inc low */
static pcg64_t load(const uint64_t *words)
{
    pcg64_t rng = {((u128)words[0] << 64) | words[1], ((u128)words[2] << 64) | words[3], 0, 0};
    return rng;
}

/* numpy's random_interval for max < 2**32: n variables never reach that */
static int64_t random_interval(pcg64_t *rng, uint32_t max)
{
    uint32_t mask = max, value;
    mask |= mask >> 1;
    mask |= mask >> 2;
    mask |= mask >> 4;
    mask |= mask >> 8;
    mask |= mask >> 16;
    while ((value = next_uint32(rng) & mask) > max)
        ;
    return value;
}

/* streams[8r..8r+3] and [8r+4..8r+7] hold row r's orders and coins seed
 * words, generate_state(4, uint64) of their SeedSequence; each is replaced by
 * its stream's state once seeded and, for the coins, once they have drawn
 * the row's initial assignment x[k] = (uniform < 0.5). */
void seed_rows(int64_t n_rows, int64_t n, uint64_t *streams, double *x_all)
{
    for (int64_t s = 0; s < 2 * n_rows; s++) {
        uint64_t *words = streams + 4 * s;
        const u128 seed = ((u128)words[0] << 64) | words[1];
        pcg64_t rng = {0, ((((u128)words[2] << 64) | words[3]) << 1) | 1, 0, 0};
        pcg64_step(&rng);
        rng.state += seed;
        pcg64_step(&rng);
        if (s % 2) {
            double *x = x_all + (s / 2) * n;
            for (int64_t k = 0; k < n; k++)
                x[k] = next_double(&rng) < 0.5;
        }
        words[0] = (uint64_t)(rng.state >> 64);
        words[1] = (uint64_t)rng.state;
        words[2] = (uint64_t)(rng.inc >> 64);
        words[3] = (uint64_t)rng.inc;
    }
}

void anneal_rows(int64_t n_rows, int64_t n, int64_t sweeps, int64_t num_samples,
                 const double *q_stack, const double *neg_betas, const uint64_t *streams,
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
        pcg64_t orders = load(streams + 8 * r);
        pcg64_t coins = load(streams + 8 * r + 4);
        double cur = current[r], best = best_energy[r];
        for (int64_t t = 0; t < sweeps; t++) {
            for (int64_t i = 0; i < n; i++)
                order[i] = i;
            for (int64_t i = n - 1; i > 0; i--) {
                int64_t j = random_interval(&orders, (uint32_t)i);
                int64_t swap = order[i];
                order[i] = order[j];
                order[j] = swap;
            }
            for (int64_t pos = 0; pos < n; pos++) {
                const int64_t f = order[pos];
                const double u = next_double(&coins);
                const double xf = x[f];
                const double df = q[f * n + f];
                const double delta = 1.0 - 2.0 * xf;
                const double d_energy = delta * (df + 2.0 * (field[f] - df * xf));
                /* u < 1 = exp(0): every downhill move is accepted */
                if (!(d_energy <= 0.0 || u < exp(neg_beta[t] * d_energy)))
                    continue;
                x[f] += delta;
                cur += d_energy;
                const double *q_f = q + f * n;
                for (int64_t k = 0; k < n; k++)
                    field[k] += q_f[k] * delta;
                if (cur < best) {
                    best = cur;
                    for (int64_t k = 0; k < n; k++)
                        best_x[k] = (int8_t)x[k];
                }
            }
        }
        current[r] = cur;
        best_energy[r] = best;
    }
}
