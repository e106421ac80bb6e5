/*
 * Exact scalar walk of one cache level over an event stream.
 *
 * A literal transcription of repro.memory.cache.Cache.access applied to
 * each event in order: per-set LRU, where a hit moves the line to MRU
 * and ORs the write flag into its dirty bit, and a miss evicts the
 * set's LRU line when the set is full, then allocates the new line with
 * the write flag (write-allocate).
 *
 * State: vrf_walk.c's structure generalised to sets.  A node pool holds
 * one doubly linked LRU list per touched set (head = oldest), and one
 * open-addressing table (Fibonacci hashing, linear probing,
 * backward-shift deletion) maps a line to its node; a line lives in one
 * set, so one table serves them all.  A one-set 1,536-way structure
 * costs no more per access than an 8-way set.
 *
 * Emissions, in stream order: an access's dirty victim (a write), then
 * its own fill read when it missed and fills (isfill[p], or every miss
 * when isfill is NULL).  Each carries the index of the access that
 * produced it, so there are at most 2n.
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
} Table;

static inline uint64_t home(const Table *t, int64_t line)
{
    return ((uint64_t)line * 0x9E3779B97F4A7C15ull) >> t->shift;
}

/* Table position holding `line`, or the empty slot where it belongs. */
static inline uint64_t probe(const Table *t, int64_t line)
{
    uint64_t i = home(t, line);
    while (t->slot[i] && t->node[t->slot[i] - 1].line != line)
        i = (i + 1) & t->mask;
    return i;
}

static void table_remove(Table *t, uint64_t i)
{
    uint64_t j = i;
    for (;;) {
        j = (j + 1) & t->mask;
        int32_t s = t->slot[j];
        if (!s)
            break;
        uint64_t k = home(t, t->node[s - 1].line);
        /* Move s back into the hole unless its home lies cyclically
           in (i, j]. */
        if (j > i ? (k <= i || k > j) : (k <= i && k > j)) {
            t->slot[i] = s;
            i = j;
        }
    }
    t->slot[i] = 0;
}

/* One LRU list per touched set. */
typedef struct {
    int32_t head, tail, size;
} Set;

static inline void list_unlink(Node *node, Set *s, int32_t x)
{
    Node *n = &node[x];
    if (n->prev >= 0)
        node[n->prev].next = n->next;
    else
        s->head = n->next;
    if (n->next >= 0)
        node[n->next].prev = n->prev;
    else
        s->tail = n->prev;
}

static inline void list_append(Node *node, Set *s, int32_t x)
{
    Node *n = &node[x];
    n->prev = s->tail;
    n->next = -1;
    if (s->tail >= 0)
        node[s->tail].next = x;
    else
        s->head = x;
    s->tail = x;
}

/*
 * touched: the n_touched distinct set ids the stream and its residents
 * live in.  res_lines / res_dirty (room for n_touched * ways): in, each
 * touched set's res_count[k] resident lines in LRU order (oldest first,
 * at most ways, pairwise distinct), packed set after set; out, the
 * final residents in the same layout.  isfill may be NULL.  The e_*
 * buffers hold e_cap emissions.  counters out: [hits, misses,
 * writebacks].
 * Returns the emission count, -1 when allocation fails, -2 when the
 * emissions would overflow e_cap, -3 when an access's set is not in
 * touched.
 */
int64_t repro_cache_walk(
    int64_t num_sets, int64_t ways,
    const int64_t *touched, int64_t n_touched,
    int64_t *res_lines, uint8_t *res_dirty, int64_t *res_count,
    const int64_t *lines, const uint8_t *writes, const uint8_t *isfill,
    int64_t n,
    int64_t *e_lines, uint8_t *e_write, int64_t *e_pos, int64_t e_cap,
    int64_t *counters)
{
    int64_t nres = 0;
    for (int64_t k = 0; k < n_touched; k++)
        nres += res_count[k];
    /* Every node holds a resident or a line some access allocated. */
    int64_t cap = nres + n;
    if (cap > n_touched * ways)
        cap = n_touched * ways;
    /* A sparse table keeps most probes and removals to one slot: 16
       slots per node while the table stays within 256 KiB, else 4 (a
       table that large misses the CPU caches either way).  On the
       benchmark's RMAT level streams (x86-64, gcc 12 -O2) the L1 walks
       take 16 ms at 1/16 load against 38 ms at 1/4, and the L2 walks
       are no faster with a sparser table. */
    uint64_t want = 16 * (uint64_t)cap;
    if (want > ((uint64_t)1 << 16))
        want = 4 * (uint64_t)cap;
    uint64_t tsize = 64;
    int bits = 6;
    while (tsize < want) {
        tsize <<= 1;
        bits++;
    }
    Table t;
    t.node = malloc((size_t)(cap ? cap : 1) * sizeof(Node));
    t.slot = calloc((size_t)tsize, sizeof(int32_t));
    t.mask = tsize - 1;
    t.shift = 64 - bits;
    Set *set = malloc((size_t)(n_touched ? n_touched : 1) * sizeof(Set));
    int32_t *set_of = malloc((size_t)num_sets * sizeof(int32_t));
    int64_t ne = -1;
    if (!t.node || !t.slot || !set || !set_of)
        goto done;

    for (int64_t s = 0; s < num_sets; s++)
        set_of[s] = -1;
    int32_t used = 0;
    for (int64_t k = 0, r = 0; k < n_touched; k++) {
        set_of[touched[k]] = (int32_t)k;
        set[k].head = set[k].tail = -1;
        set[k].size = (int32_t)res_count[k];
        for (int64_t j = 0; j < res_count[k]; j++, r++) {
            int32_t x = used++;
            t.node[x].line = res_lines[r];
            t.node[x].dirty = res_dirty[r];
            list_append(t.node, &set[k], x);
            t.slot[probe(&t, res_lines[r])] = x + 1;
        }
    }

    /* A power-of-two set count takes a mask instead of a division. */
    int pow2 = (num_sets & (num_sets - 1)) == 0;
    int64_t hits = 0, misses = 0, wbs = 0;
    ne = 0;
    for (int64_t p = 0; p < n; p++) {
        int64_t line = lines[p];
        uint8_t w = writes[p] != 0;
        uint64_t i = probe(&t, line);
        int32_t k = set_of[pow2 ? line & (num_sets - 1) : line % num_sets];
        if (k < 0) {
            ne = -3;
            goto done;
        }
        Set *s = &set[k];
        int32_t x;
        if (t.slot[i]) {
            hits++;
            x = t.slot[i] - 1;
            if (x != s->tail) {
                list_unlink(t.node, s, x);
                list_append(t.node, s, x);
            }
            t.node[x].dirty |= w;
            continue;
        }
        misses++;
        if (s->size >= ways) {
            x = s->head;
            list_unlink(t.node, s, x);
            table_remove(&t, probe(&t, t.node[x].line));
            if (t.node[x].dirty) {
                wbs++;
                if (ne >= e_cap)
                    goto overflow;
                e_lines[ne] = t.node[x].line;
                e_write[ne] = 1;
                e_pos[ne] = p;
                ne++;
            }
            i = probe(&t, line); /* the removal may shift entries */
        } else {
            x = used++;
            s->size++;
        }
        t.node[x].line = line;
        t.node[x].dirty = w;
        list_append(t.node, s, x);
        t.slot[i] = x + 1;
        if (!isfill || isfill[p]) {
            if (ne >= e_cap)
                goto overflow;
            e_lines[ne] = line;
            e_write[ne] = 0;
            e_pos[ne] = p;
            ne++;
        }
    }

    for (int64_t k = 0, r = 0; k < n_touched; k++) {
        res_count[k] = set[k].size;
        for (int32_t y = set[k].head; y >= 0; y = t.node[y].next, r++) {
            res_lines[r] = t.node[y].line;
            res_dirty[r] = t.node[y].dirty;
        }
    }
    counters[0] = hits;
    counters[1] = misses;
    counters[2] = wbs;
    goto done;

overflow:
    ne = -2;
done:
    free(t.node);
    free(t.slot);
    free(set);
    free(set_of);
    return ne;
}
