/* The receiver's peeling loop, called once per run by craloha.decoder.peel,
 * which checks every input this file trusts and allocates every buffer.
 *
 * Each slot keeps the number of its undecoded instances and the XOR of their
 * packet ids, so a slot holding one instance names its packet. Packet p
 * resolves at the end of slot t only while t <= last[p]. Slots are visited in
 * order; at slot t the peel is a sequence of ascending scans (passes), the
 * first over the candidates of a cascade the cap cut off at t - 1 and over t
 * itself if it holds one restorable instance when ingested. Every decodable
 * singleton met resolves its packet and cancels its replicas in every slot,
 * future ones included; a slot left with one restorable instance ahead of the
 * scan position joins this scan, one behind it waits for the next. At most
 * i_max passes run per slot; a cascade still pending then resumes at slot
 * t + 1, without the packets whose deadline has passed, and counts as one cap
 * hit.
 */
#include <stdint.h>
#include <string.h>

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
