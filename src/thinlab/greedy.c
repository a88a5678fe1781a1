/* Greedy d-choice placement, one ball at a time (thinlab.core.run_greedy_d_choice).
 *
 * Places k balls in ball order: ball t is offered bins offers[j*k + t] for
 * j < d and goes to its least-loaded offer, the lowest bin on ties.  Ball t's
 * first offer is marked in seen.  Returns the largest load, starting from
 * top, the largest before the block.
 */
#include <stdint.h>

int64_t place_least_loaded(int64_t *loads, uint8_t *seen, const int64_t *offers,
                           int64_t d, int64_t k, int64_t top)
{
    for (int64_t t = 0; t < k; t++) {
        int64_t best = offers[t];
        seen[best] = 1;
        for (int64_t j = 1; j < d; j++) {
            int64_t bin = offers[j * k + t];
            if (loads[bin] < loads[best] || (loads[bin] == loads[best] && bin < best))
                best = bin;
        }
        if (++loads[best] > top)
            top = loads[best];
    }
    return top;
}
