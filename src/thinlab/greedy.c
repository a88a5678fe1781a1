/* thinlab's per-ball loops, built once and cached by thinlab.core._kernels.
 *
 * PLACE and THIN share one protocol: a call places balls t..k-1 of one pool
 * block, in ball order, and returns the index where it stopped: k, or, on
 * one-byte loads, the first ball that could lift a load past 255.  The
 * caller then widens the loads to int64, once, and resumes the wide loop
 * from that ball.
 *
 * place_narrow, place_wide: one block of greedy d-choice
 * (thinlab.core.run_greedy_d_choice).  Ball t is offered bins offers[j][t]
 * for j < d and goes to its least-loaded offer, the lowest bin on ties.  The
 * least (load, bin) pair is selected with masks, not branches, since which
 * offer is least is close to a coin flip, and the least load is kept in a
 * local.  Ball t's first offer is marked in seen.
 *
 * thin_narrow, thin_wide: one block of a thinning round (thinlab.core's
 * rule path), on the round's counts in row and the trial's in loads.
 * tally[0] is the trial of ball t and tally[1] that trial's balls left in
 * the round; then come waiting[trials], each trial's balls in the round, and
 * rejected[trials].  Ball t's key is trial*n + bins[t].  It is accepted if
 * the key's round count is at most cap, or if coins is given and its coin
 * coins[t] is at least beta: then row[key] and loads[key] count it.
 * Otherwise rejected[trial] counts it.
 *
 * tally: a trial's load histogram (thinlab.core._summary), from one-byte
 * loads.  Adds each of the n loads to its entry of counts[256], which is
 * zeroed, and returns the top load: the last nonzero entry, or 0.  A row of
 * at least LONG_ROW loads is read in strides of four, each load of a stride
 * into its own partial tally, so that equal neighbours do not wait on each
 * other's store; the loads past the last full stride are counted directly,
 * as a short row is.  Int64 loads are counted by numpy.
 */
#include <stdint.h>

#define PLACE(name, load_t, full)                                                        \
int64_t name(load_t *loads, uint8_t *seen, const int64_t *const *offers, int64_t d,      \
             int64_t t, int64_t k)                                                       \
{                                                                                        \
    for (; t < k; t++) {                                                                 \
        int64_t best = offers[0][t];                                                     \
        load_t least = loads[best];                                                      \
        seen[best] = 1;                                                                  \
        for (int64_t j = 1; j < d; j++) {                                                \
            int64_t bin = offers[j][t];                                                  \
            load_t load = loads[bin];                                                    \
            int64_t take = -(int64_t)((load < least)                                     \
                                      | ((load == least) & (bin < best)));               \
            best ^= (best ^ bin) & take;                                                 \
            least ^= (least ^ load) & take;                                              \
        }                                                                                \
        if (least == (full))                                                             \
            break;                                                                       \
        loads[best] = least + 1;                                                         \
    }                                                                                    \
    return t;                                                                            \
}

PLACE(place_narrow, uint8_t, UINT8_MAX)
PLACE(place_wide, int64_t, INT64_MAX)

#define THIN(name, count_t, full)                                                        \
int64_t name(count_t *row, count_t *loads, const int64_t *bins, const double *coins,     \
             int64_t t, int64_t k, int64_t n, int64_t trials, int64_t *tally,            \
             int64_t cap, double beta)                                                   \
{                                                                                        \
    const int64_t *waiting = tally + 2;                                                  \
    int64_t *rejected = tally + 2 + trials;                                              \
    int64_t trial = tally[0], left = tally[1];                                           \
    for (; t < k; t++) {                                                                 \
        while (left == 0)                                                                \
            left = waiting[++trial];                                                     \
        int64_t key = trial * n + bins[t];                                               \
        if (loads[key] == (full))                                                        \
            break;                                                                       \
        if (row[key] <= cap || (coins && coins[t] >= beta)) {                            \
            row[key]++;                                                                  \
            loads[key]++;                                                                \
        } else {                                                                         \
            rejected[trial]++;                                                           \
        }                                                                                \
        left--;                                                                          \
    }                                                                                    \
    tally[0] = trial;                                                                    \
    tally[1] = left;                                                                     \
    return t;                                                                            \
}

THIN(thin_narrow, uint8_t, UINT8_MAX)
THIN(thin_wide, int64_t, INT64_MAX)

#define LONG_ROW 1024

int64_t tally(const uint8_t *loads, int64_t n, int64_t *counts)
{
    int64_t i = 0, top = 255;
    if (n >= LONG_ROW) {
        int64_t part[4][256] = {{0}};
        for (; i + 4 <= n; i += 4) {
            part[0][loads[i]]++;
            part[1][loads[i + 1]]++;
            part[2][loads[i + 2]]++;
            part[3][loads[i + 3]]++;
        }
        for (int64_t v = 0; v < 256; v++)
            counts[v] += part[0][v] + part[1][v] + part[2][v] + part[3][v];
    }
    for (; i < n; i++)
        counts[loads[i]]++;
    while (top > 0 && counts[top] == 0)
        top--;
    return top;
}
