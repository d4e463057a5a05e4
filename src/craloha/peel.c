/* The compiled loops of a run, each called once per run: craloha_place by
 * craloha.placement.place_replicas, and craloha_peel by craloha.decoder.peel.
 * The Python callers check every input these loops trust and allocate every
 * buffer.
 *
 * craloha_place draws from the caller's numpy Generator through numpy's
 * public bitgen_t interface, with the same calls in the same order as
 * Generator.integers, so its output and the generator's state afterwards are
 * those of the numpy column loop it replaces, bit for bit.
 *
 * craloha_peel is the receiver. Each slot keeps the number of its undecoded
 * instances and the XOR of their packet ids, so a slot holding one instance
 * names its packet. Packet p resolves at the end of slot t only while
 * t <= last[p]. Slots are visited in order; at slot t the peel is a sequence
 * of ascending scans (passes), the first over the candidates of a cascade
 * the cap cut off at t - 1 and over t itself if it holds one restorable
 * instance when ingested. Every decodable singleton met resolves its packet
 * and cancels its replicas in every slot, future ones included; a slot left
 * with one restorable instance ahead of the scan position joins this scan,
 * one behind it waits for the next. At most i_max passes run per slot; a
 * cascade still pending then resumes at slot t + 1, without the packets
 * whose deadline has passed, and counts as one cap hit.
 */
#include <stdint.h>
#include <string.h>

/* numpy's bitgen_t (numpy/random/bitgen.h), which a Generator's
 * bit_generator.ctypes.bit_generator points to. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* A uniform draw from 0 .. r, as numpy's random_bounded_uint64_fill makes it
 * for Generator.integers: nothing drawn at r = 0; Lemire's multiply-shift
 * with rejection on 32-bit words below r = 2^32 - 1; a bare 32-bit word at
 * it; the 128-bit product on 64-bit words above. */
static uint64_t bounded(bitgen_t *g, uint64_t r)
{
    if (r == 0)
        return 0;
    if (r < UINT32_MAX) {
        uint32_t excl = (uint32_t)r + 1;
        uint64_t m = (uint64_t)g->next_uint32(g->state) * excl;
        if ((uint32_t)m < excl) {
            uint32_t threshold = (UINT32_MAX - (uint32_t)r) % excl;
            while ((uint32_t)m < threshold)
                m = (uint64_t)g->next_uint32(g->state) * excl;
        }
        return m >> 32;
    }
    if (r == UINT32_MAX)
        return g->next_uint32(g->state);
    __uint128_t m = (__uint128_t)g->next_uint64(g->state) * (r + 1);
    if ((uint64_t)m < r + 1) {
        uint64_t threshold = (UINT64_MAX - r) % (r + 1);
        while ((uint64_t)m < threshold)
            m = (__uint128_t)g->next_uint64(g->state) * (r + 1);
    }
    return m >> 64;
}

/* Packet p gets degrees[p] (1 .. n_window) replica slots in flat[offsets[p]
 * .. offsets[p+1]), ascending: start[p] plus offsets from low .. n_window -
 * 1, where low is 0 (FR: the frame that starts at start[p]) or 1 (SW: offset
 * 0 is the ready slot start[p] itself, and the other slots draw).
 *
 * Floyd's subset sampling (Bentley & Floyd, CACM 30(9), 1987): column i from
 * low to d - 1 draws t uniform on low .. n_window - d + i and takes n_window -
 * d + i where t is already in the row. The draws are those of numpy's
 * Generator.integers(low, n_window - d + i + 1, size) over each degree d in
 * ascending order, a column at a time over that degree's packets in packet
 * order. by_degree holds n entries, counts max_degree + 1, zeroed, and draws
 * one degree's draws. */
void craloha_place(const int64_t *start, const int64_t *degrees, const int64_t *offsets, int64_t n,
                   int64_t n_window, int64_t low, bitgen_t *g, int64_t max_degree, int64_t *counts,
                   int64_t *by_degree, int64_t *draws, int64_t *flat)
{
    int64_t next = 0;
    /* by_degree lists the packets by degree, ascending, each degree's in
     * packet order; counts[d] ends degree d's run */
    for (int64_t p = 0; p < n; p++)
        counts[degrees[p]]++;
    for (int64_t d = 0; d <= max_degree; d++) {
        int64_t c = counts[d];
        counts[d] = next;
        next += c;
    }
    for (int64_t p = 0; p < n; p++)
        by_degree[counts[degrees[p]]++] = p;
    /* Degree d's columns low + c, c = 0 .. w - 1, fill draws column by column
     * over its m packets, like numpy's column loop: Floyd's fix and the
     * insertion of each column into the sorted ones before it are sweeps over
     * whole columns, with no branch on the drawn values. */
    for (int64_t d = 1, begin = 0; d <= max_degree; begin = counts[d++]) {
        int64_t m = counts[d] - begin, w = d - low;
        for (int64_t c = 0; c < w && m; c++) {
            int64_t *col = draws + c * m, top = n_window - d + low + c;
            for (int64_t k = 0; k < m; k++)
                col[k] = low + bounded(g, top - low);
            for (int64_t e = 0; e < c; e++)
                for (int64_t k = 0; k < m; k++)
                    col[k] = col[k] == draws[e * m + k] ? top : col[k];
            for (int64_t e = c; e > 0; e--) {
                int64_t *x = draws + (e - 1) * m, *y = draws + e * m;
                for (int64_t k = 0; k < m; k++) {
                    int64_t lo = x[k] < y[k] ? x[k] : y[k], hi = x[k] < y[k] ? y[k] : x[k];
                    x[k] = lo;
                    y[k] = hi;
                }
            }
        }
        for (int64_t k = 0; k < m; k++) {
            int64_t p = by_degree[begin + k], *row = flat + offsets[p];
            if (low)
                row[0] = start[p];
            for (int64_t c = 0; c < w; c++)
                row[low + c] = start[p] + draws[c * m + k];
        }
    }
}

static void sift_down(int64_t *heap, int64_t n, int64_t i)
{
    int64_t v = heap[i];
    for (int64_t c = 2 * i + 1; c < n; c = 2 * i + 1) {
        if (c + 1 < n && heap[c + 1] < heap[c])
            c++;
        if (heap[c] >= v)
            break;
        heap[i] = heap[c];
        i = c;
    }
    heap[i] = v;
}

static void push(int64_t *heap, int64_t *n, int64_t v)
{
    int64_t i = (*n)++;
    while (i > 0 && heap[(i - 1) / 2] > v) {
        heap[i] = heap[(i - 1) / 2];
        i = (i - 1) / 2;
    }
    heap[i] = v;
}

static int64_t pop(int64_t *heap, int64_t *n)
{
    int64_t top = heap[0];
    if (--*n > 0) {
        heap[0] = heap[*n];
        sift_down(heap, *n, 0);
    }
    return top;
}

/* Packet p's replica slots are flat[offsets[p] .. offsets[p+1]), strictly
 * ascending and non-negative, with last[p] >= the first of them. Slots
 * 0 .. n_slots-1 are streamed. size is at most n_slots and past the last
 * replica slot to stream; replicas from slot size on are never read. count,
 * xor and queue hold size slots, count and xor zeroed; decode comes filled
 * with -1 and clean zeroed. The decoded packets' ids are written to order in
 * resolution order. Returns the number of cap hits. */
int64_t craloha_peel(const int64_t *flat, const int64_t *offsets, const int64_t *last, int64_t n,
                     int64_t n_slots, int64_t i_max, int64_t size, int64_t *count, int64_t *xor,
                     int64_t *queue, int64_t *decode, int64_t *order, uint8_t *clean)
{
    int64_t n_order = 0, nq = 0, cap_hits = 0;
    for (int64_t p = 0; p < n; p++)
        for (int64_t j = offsets[p]; j < offsets[p + 1] && flat[j] < size; j++) {
            count[flat[j]]++;
            xor[flat[j]] ^= p;
        }
    /* The heap grows up from queue[0] and the next pass's slots down from
     * queue[size-1]. A slot enters either only while it holds one instance,
     * and counts only fall, so no slot enters twice and together they never
     * hold more than size slots. */
    for (int64_t t = 0; t < n_slots && (t < size || nq > 0); t++) {
        int64_t kept = 0;
        for (int64_t i = 0; i < nq; i++)
            if (count[queue[i]] == 1 && last[xor[queue[i]]] >= t)
                queue[kept++] = queue[i];
        nq = kept;
        int born = t < size && count[t] == 1 && last[xor[t]] >= t;
        if (born)
            queue[nq++] = t;
        for (int64_t passes = 0; nq > 0 && passes < i_max; passes++) {
            int64_t carry = 0;
            for (int64_t i = nq / 2 - 1; i >= 0; i--)
                sift_down(queue, nq, i);
            while (nq > 0) {
                int64_t s = pop(queue, &nq);
                if (count[s] != 1)
                    continue; /* emptied meanwhile */
                int64_t p = xor[s]; /* restorable: checked when s was queued */
                decode[p] = t;
                order[n_order++] = p;
                if (s == t && born)
                    clean[p] = 1;
                for (int64_t j = offsets[p]; j < offsets[p + 1] && flat[j] < size; j++) {
                    int64_t r = flat[j];
                    xor[r] ^= p;
                    /* a future slot is visited when ingested; a dead
                     * instance is interference, never decodable */
                    if (--count[r] != 1 || r > t || last[xor[r]] < t)
                        continue;
                    if (r > s)
                        push(queue, &nq, r);
                    else
                        queue[size - ++carry] = r;
                }
            }
            memmove(queue, queue + size - carry, carry * sizeof *queue);
            nq = carry;
        }
        cap_hits += nq > 0;
    }
    return cap_hits;
}
