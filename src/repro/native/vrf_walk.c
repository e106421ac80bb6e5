/*
 * Exact scalar walk of one PE's vector register file (VRF).
 *
 * A literal transcription of repro.core.vectorized._run_vrf_stream (the
 * inlined form of VectorRegisterFile.access): a fully associative LRU
 * tag CAM of `cap` lines, where a hit moves the line to MRU, a miss
 * evicts the LRU head, and an access that lifts the dirty count past
 * `high` makes the Write-back Manager drain the oldest dirty lines
 * (which stay resident, clean) until `low` remain.
 *
 * State: a node pool of `cap` entries threaded on a doubly linked LRU
 * list (head = oldest), indexed by an open-addressing hash table
 * (Fibonacci hashing, linear probing, backward-shift deletion).
 *
 * Emissions, in the scalar order per access: the miss load (when the
 * access's emit op is >= 0), the dirty victim's store, then the drain
 * stores.  Each carries the index of the access that produced it.
 */

#include <stdint.h>
#include <stdlib.h>

typedef struct {
    int64_t line;
    int32_t prev, next;
    uint8_t dirty;
} Node;

typedef struct {
    Node *node;
    int32_t *slot; /* node index + 1; 0 = empty */
    uint64_t mask;
    int shift;
    int32_t head, tail;
} Vrf;

static inline uint64_t home(const Vrf *v, int64_t line)
{
    return ((uint64_t)line * 0x9E3779B97F4A7C15ull) >> v->shift;
}

/* Table position holding `line`, or the empty slot where it belongs. */
static inline uint64_t probe(const Vrf *v, int64_t line)
{
    uint64_t i = home(v, line);
    while (v->slot[i] && v->node[v->slot[i] - 1].line != line)
        i = (i + 1) & v->mask;
    return i;
}

static void table_remove(Vrf *v, uint64_t i)
{
    uint64_t j = i;
    for (;;) {
        j = (j + 1) & v->mask;
        int32_t s = v->slot[j];
        if (!s)
            break;
        uint64_t k = home(v, v->node[s - 1].line);
        /* Move s back into the hole unless its home lies cyclically
           in (i, j]. */
        if (j > i ? (k <= i || k > j) : (k <= i && k > j)) {
            v->slot[i] = s;
            i = j;
        }
    }
    v->slot[i] = 0;
}

static inline void list_unlink(Vrf *v, int32_t x)
{
    Node *n = &v->node[x];
    if (n->prev >= 0)
        v->node[n->prev].next = n->next;
    else
        v->head = n->next;
    if (n->next >= 0)
        v->node[n->next].prev = n->prev;
    else
        v->tail = n->prev;
}

static inline void list_append(Vrf *v, int32_t x)
{
    Node *n = &v->node[x];
    n->prev = v->tail;
    n->next = -1;
    if (v->tail >= 0)
        v->node[v->tail].next = x;
    else
        v->head = x;
    v->tail = x;
}

/*
 * counters: in [5] = dirty count; out [hits, misses, evictions,
 * eviction_writebacks, manager_writebacks, dirty_count].
 * tag_lines / tag_dirty (room for `cap`): in the *n_tags resident lines
 * in LRU order (oldest first, at most cap, pairwise distinct), out the
 * final ones.  The e_* buffers hold e_cap emissions.
 * Returns the emission count, -1 when allocation fails, -2 when the
 * emissions would overflow e_cap.
 */
int64_t repro_vrf_walk(
    int64_t cap, int64_t high, int64_t low,
    int64_t *tag_lines, uint8_t *tag_dirty, int64_t *n_tags,
    const int64_t *lines, const uint8_t *dirty, const int64_t *emit,
    int64_t n, int64_t op_store,
    int64_t *e_lines, int64_t *e_ops, int64_t *e_pos, int64_t e_cap,
    int64_t *counters)
{
    Vrf v;
    /* A sparse table (at most 1/32 full) keeps nearly every probe and
       removal to one slot: on the benchmark's VRF streams (x86-64,
       gcc 12 -O2) 15 ns per access against 60 ns half full, for
       8 KiB at 64 registers. */
    uint64_t tsize = 64;
    int bits = 6;
    while (tsize < 32 * (uint64_t)cap) {
        tsize <<= 1;
        bits++;
    }
    v.node = malloc((size_t)cap * sizeof(Node));
    v.slot = calloc((size_t)tsize, sizeof(int32_t));
    if (!v.node || !v.slot) {
        free(v.node);
        free(v.slot);
        return -1;
    }
    v.mask = tsize - 1;
    v.shift = 64 - bits;
    v.head = v.tail = -1;

    int64_t size = *n_tags;
    for (int32_t x = 0; x < size; x++) {
        v.node[x].line = tag_lines[x];
        v.node[x].dirty = tag_dirty[x];
        list_append(&v, x);
        v.slot[probe(&v, tag_lines[x])] = x + 1;
    }

    int64_t hits = 0, misses = 0, evc = 0, evw = 0, mwb = 0;
    int64_t dc = counters[5];
    int64_t ne = 0;

#define EMIT(ln, op, p)                                                   \
    do {                                                                  \
        if (ne >= e_cap)                                                  \
            goto overflow;                                                \
        e_lines[ne] = (ln);                                               \
        e_ops[ne] = (op);                                                 \
        e_pos[ne] = (p);                                                  \
        ne++;                                                             \
    } while (0)

/* Write-back Manager: clean the oldest dirty lines down to `low`. */
#define DRAIN(p)                                                          \
    do {                                                                  \
        int64_t to_drain = dc - low, drained = 0;                         \
        for (int32_t y = v.head; y >= 0 && drained < to_drain;            \
             y = v.node[y].next) {                                        \
            if (v.node[y].dirty) {                                        \
                v.node[y].dirty = 0;                                      \
                EMIT(v.node[y].line, op_store, (p));                      \
                drained++;                                                \
            }                                                             \
        }                                                                 \
        dc -= drained;                                                    \
        mwb += drained;                                                   \
    } while (0)

    for (int64_t p = 0; p < n; p++) {
        int64_t line = lines[p];
        uint8_t dm = dirty[p] != 0;
        uint64_t i = probe(&v, line);
        int32_t x;
        if (v.slot[i]) {
            hits++;
            x = v.slot[i] - 1;
            if (x != v.tail) {
                list_unlink(&v, x);
                list_append(&v, x);
            }
            if (v.node[x].dirty)
                continue;
            v.node[x].dirty = dm;
        } else {
            misses++;
            if (emit[p] >= 0)
                EMIT(line, emit[p], p);
            if (size >= cap) {
                evc++;
                x = v.head;
                list_unlink(&v, x);
                table_remove(&v, probe(&v, v.node[x].line));
                if (v.node[x].dirty) {
                    dc--;
                    evw++;
                    EMIT(v.node[x].line, op_store, p);
                }
                i = probe(&v, line); /* the removal may shift entries */
            } else {
                x = (int32_t)size++;
            }
            v.node[x].line = line;
            v.node[x].dirty = dm;
            list_append(&v, x);
            v.slot[i] = x + 1;
        }
        if (dm) {
            dc++;
            if (dc > high)
                DRAIN(p);
        }
    }
#undef DRAIN
#undef EMIT

    {
        int64_t k = 0;
        for (int32_t y = v.head; y >= 0; y = v.node[y].next, k++) {
            tag_lines[k] = v.node[y].line;
            tag_dirty[k] = v.node[y].dirty;
        }
        *n_tags = k;
    }
    counters[0] = hits;
    counters[1] = misses;
    counters[2] = evc;
    counters[3] = evw;
    counters[4] = mwb;
    counters[5] = dc;
    free(v.node);
    free(v.slot);
    return ne;

overflow:
    free(v.node);
    free(v.slot);
    return -2;
}
