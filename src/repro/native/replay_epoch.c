/*
 * One epoch of trace replay through the whole memory hierarchy.
 *
 * repro_replay_epoch replays an epoch's dispatch runs (pe, lo, hi),
 * which tile the trace in order, through every LRU structure of
 * repro.memory.hierarchy.MemorySystem: each L2 group's STLB, each PE's
 * L1, each group's L2, the LLC, and each PE's BBF victim cache and
 * stream buffer.  It writes every access's service level, every
 * structure's counters, the DRAM reads and writes per region, and the
 * final residents of every set it touched.  Its reference is the
 * scalar oracle, MemorySystem.replay_trace_scalar, run after run;
 * DESIGN.md section 10 gives the argument that the two agree.
 *
 * Every structure walks once, over its own event stream, through
 * walk(): a transcription of repro.memory.cache.Cache.access applied to
 * each event in order.  Per-set LRU, where a hit moves the line to MRU
 * and ORs the write flag into its dirty bit, and a miss evicts the
 * set's LRU line when the set is full, then allocates the new line
 * with the write flag (write-allocate).  Its state is a node pool
 * holding one doubly linked LRU list per touched set (head = oldest)
 * and one open-addressing table (Fibonacci hashing, linear probing,
 * backward-shift deletion) mapping a line to its node; a line lives in
 * one set, so one table serves them all, and a one-set 1,536-way
 * structure costs no more per access than an 8-way set.  A walk emits
 * the next level's events in stream order: an event's dirty victim (a
 * write), then its own fill read when it missed and fills.  Every
 * event carries the trace position of the access responsible (its
 * trigger), which sets service levels and DRAM regions.
 *
 * The streams:
 * - STLB g: the pages of group g's accesses, run after run;
 * - L1 p, victim cache p, stream buffer p: PE p's accesses on the
 *   dense-cached, dense-bypass and stream paths;
 * - L2 g: its PEs' L1 events, each run's slice of its PE's events,
 *   run after run; only reads fill;
 * - LLC: every group's L2 events merged the same way; only reads fill.
 * The first five are run-length deduped first: a repeat of the previous
 * line is an MRU hit that only ORs its write flag into the line.
 *
 * Resident state stays with the caller.  Before a walk the entry asks
 * the caller's fetch callback for the residents of exactly the sets
 * the walk will touch (its stream's sets, in first-touch order), and
 * after the walk hands their final residents to the store callback,
 * in the same layout: a count per set, then the lines and dirty bits
 * set after set in LRU order, oldest first.  The caller applies what
 * it was given only once the whole call has succeeded.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

/* The trace op layout and service levels of repro.memory.hierarchy. */
#define OP_PATH_MASK 3
#define OP_WRITE 4
#define OP_REGION_SHIFT 3
enum { PATH_DENSE, PATH_BYPASS, PATH_STREAM, N_PATHS };
enum { LV_L1, LV_VICTIM, LV_BBF, LV_L2, LV_LLC, LV_DRAM };

/* Error returns: allocation failed, a callback failed, an input
   (resident, run, op or line) is malformed. */
enum { ERR_ALLOC = -1, ERR_CALLBACK = -2, ERR_INPUT = -3 };

/* fetch(structure, set ids, n sets, counts, &lines, &dirty): write the
   resident count of each set to counts and point lines / dirty at the
   residents, set after set, LRU first; they stay valid until the next
   callback.  Returns the number of residents, or < 0 on failure.
   store(structure, set ids, counts, n sets, lines, dirty, n lines):
   take the final residents of the sets a walk touched (valid during
   the call only).  Returns < 0 on failure. */
typedef int64_t (*fetch_fn)(int64_t, const int64_t *, int64_t, int64_t *,
                            const int64_t **, const uint8_t **);
typedef int64_t (*store_fn)(int64_t, const int64_t *, const int64_t *,
                            int64_t, const int64_t *, const uint8_t *,
                            int64_t);

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

/* An event stream: lines, write flags and each event's trigger. */
typedef struct {
    int64_t *line;
    uint8_t *write;
    int32_t *trig;
    int64_t n;
} Events;

static int events_alloc(Events *e, int64_t cap)
{
    size_t k = (size_t)(cap > 0 ? cap : 1);
    e->line = malloc(k * sizeof(int64_t));
    e->write = malloc(k);
    e->trig = malloc(k * sizeof(int32_t));
    e->n = 0;
    return e->line && e->write && e->trig;
}

static void events_free(Events *e)
{
    free(e->line);
    free(e->write);
    free(e->trig);
    e->line = NULL;
    e->write = NULL;
    e->trig = NULL;
    e->n = 0;
}

/* A walked stream is a list of slices [a, b) of event buffers, in
   order: one slice of a deduped stream, or one run's slice of each
   unit's events for the L2s and the LLC. */
typedef struct {
    const Events *src;
    int64_t a, b;
} Slice;

/* Cut the next run's slice off `src`: its events from *at on whose
   trigger is below the run's end `hi`. */
static int64_t cut(Slice *sl, int64_t n_sl, const Events *src, int64_t *at,
                   int64_t hi)
{
    int64_t b = *at;
    while (b < src->n && src->trig[b] < hi)
        b++;
    if (b > *at) {
        sl[n_sl].src = src;
        sl[n_sl].a = *at;
        sl[n_sl++].b = b;
        *at = b;
    }
    return n_sl;
}

/* One structure: its index, geometry and the caller's callbacks. */
typedef struct {
    int64_t id, num_sets, ways;
    fetch_fn fetch;
    store_fn store;
} Cache;

static inline int64_t set_of_line(int64_t line, int64_t ns, int pow2)
{
    return pow2 ? line & (ns - 1) : line % ns;
}

/*
 * Walk the events of the n_sl slices `sl` in order through cache `c`
 * and append its emissions to `out` (room for two per event), each
 * carrying its event's trigger:
 * a dirty victim (a write), then the event's own fill read when it
 * missed and fills (every miss, or only reads when reads_fill).  `out`
 * may be NULL.  The touched sets' residents come from c->fetch and
 * their final residents go to c->store.  Adds [hits, misses,
 * writebacks] to counters.  Returns 0 or an error code.
 */
static int64_t walk(const Cache *c, const Slice *sl, int64_t n_sl,
                    int reads_fill, Events *out, int64_t *counters)
{
    const int64_t ns = c->num_sets, ways = c->ways;
    int64_t n = 0;
    for (int64_t k = 0; k < n_sl; k++)
        n += sl[k].b - sl[k].a;
    const int pow2 = (ns & (ns - 1)) == 0;
    int64_t rc = ERR_ALLOC;
    Table t = {NULL, NULL, 0, 0};
    Set *set = NULL;
    int64_t *touched = NULL, *counts = NULL, *res_line = NULL;
    uint8_t *res_dirty = NULL;
    /* Set id -> 1 + its index among the touched sets. */
    int32_t *set_of = calloc((size_t)ns, sizeof(int32_t));
    int64_t max_touched = n < ns ? n : ns;
    touched = malloc((size_t)(max_touched + 1) * sizeof(int64_t));
    counts = malloc((size_t)(max_touched + 1) * sizeof(int64_t));
    if (!set_of || !touched || !counts)
        goto done;

    /* The touched sets, in first-touch order. */
    rc = ERR_INPUT;
    int64_t n_touched = 0;
    for (int64_t k = 0; k < n_sl; k++) {
        const int64_t *lines = sl[k].src->line;
        for (int64_t p = sl[k].a; p < sl[k].b; p++) {
            if (lines[p] < 0)
                goto done;
            int64_t s = set_of_line(lines[p], ns, pow2);
            if (!set_of[s]) {
                touched[n_touched++] = s;
                set_of[s] = (int32_t)n_touched;
            }
        }
    }
    const int64_t *in_line;
    const uint8_t *in_dirty;
    int64_t nres = c->fetch(c->id, touched, n_touched, counts, &in_line,
                            &in_dirty);
    rc = ERR_CALLBACK;
    if (nres < 0)
        goto done;
    rc = ERR_INPUT;
    for (int64_t k = 0, sum = 0; k <= n_touched; k++) {
        if (k == n_touched) {
            if (sum != nres)
                goto done;
            break;
        }
        if (counts[k] < 0 || counts[k] > ways)
            goto done;
        sum += counts[k];
    }

    /* Every node holds a resident or a line some event allocated. */
    int64_t cap = nres + n;
    if (n_touched <= cap / ways && n_touched * ways < cap)
        cap = n_touched * ways;
    rc = ERR_ALLOC;
    if (cap >= INT32_MAX)
        goto done;
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
    t.node = malloc((size_t)(cap ? cap : 1) * sizeof(Node));
    t.slot = calloc((size_t)tsize, sizeof(int32_t));
    t.mask = tsize - 1;
    t.shift = 64 - bits;
    set = malloc((size_t)(n_touched ? n_touched : 1) * sizeof(Set));
    if (!t.node || !t.slot || !set)
        goto done;

    rc = ERR_INPUT;
    int32_t used = 0;
    for (int64_t k = 0, r = 0; k < n_touched; k++) {
        set[k].head = set[k].tail = -1;
        set[k].size = (int32_t)counts[k];
        for (int64_t end = r + counts[k]; r < end; r++) {
            int64_t line = in_line[r];
            if (line < 0 || set_of_line(line, ns, pow2) != touched[k])
                goto done; /* a resident outside its set */
            uint64_t i = probe(&t, line);
            if (t.slot[i])
                goto done; /* a line twice in one set */
            int32_t x = used++;
            t.node[x].line = line;
            t.node[x].dirty = in_dirty[r] != 0;
            list_append(t.node, &set[k], x);
            t.slot[i] = x + 1;
        }
    }

    /* Locals, so that no store through one buffer forces a reload of
       another's pointer or count. */
    int64_t *e_line = out ? out->line : NULL;
    uint8_t *e_write = out ? out->write : NULL;
    int32_t *e_trig = out ? out->trig : NULL;
    int64_t ne = out ? out->n : 0;
    Node *node = t.node;
    int64_t hits = 0, misses = 0, wbs = 0;
    for (int64_t k = 0; k < n_sl; k++) {
        const int64_t *lines = sl[k].src->line;
        const uint8_t *writes = sl[k].src->write;
        const int32_t *trig = sl[k].src->trig;
        for (int64_t p = sl[k].a; p < sl[k].b; p++) {
            int64_t line = lines[p];
            uint8_t w = writes[p] != 0;
            uint64_t i = probe(&t, line);
            Set *s = &set[set_of[set_of_line(line, ns, pow2)] - 1];
            int32_t x;
            if (t.slot[i]) {
                hits++;
                x = t.slot[i] - 1;
                if (x != s->tail) {
                    list_unlink(node, s, x);
                    list_append(node, s, x);
                }
                node[x].dirty |= w;
                continue;
            }
            misses++;
            if (s->size >= ways) {
                x = s->head;
                list_unlink(node, s, x);
                table_remove(&t, probe(&t, node[x].line));
                if (node[x].dirty) {
                    wbs++;
                    if (e_line) {
                        e_line[ne] = node[x].line;
                        e_write[ne] = 1;
                        e_trig[ne++] = trig[p];
                    }
                }
                i = probe(&t, line); /* the removal may shift entries */
            } else {
                x = used++;
                s->size++;
            }
            node[x].line = line;
            node[x].dirty = w;
            list_append(node, s, x);
            t.slot[i] = x + 1;
            if (e_line && !(reads_fill && w)) {
                e_line[ne] = line;
                e_write[ne] = 0;
                e_trig[ne++] = trig[p];
            }
        }
    }
    if (out)
        out->n = ne;

    rc = ERR_ALLOC;
    res_line = malloc((size_t)(used ? used : 1) * sizeof(int64_t));
    res_dirty = malloc((size_t)(used ? used : 1));
    if (!res_line || !res_dirty)
        goto done;
    int64_t n_res = 0;
    for (int64_t k = 0; k < n_touched; k++) {
        counts[k] = set[k].size;
        for (int32_t y = set[k].head; y >= 0; y = node[y].next) {
            res_line[n_res] = node[y].line;
            res_dirty[n_res++] = node[y].dirty;
        }
    }
    rc = ERR_CALLBACK;
    if (c->store(c->id, touched, counts, n_touched, res_line, res_dirty,
                 n_res) < 0)
        goto done;
    counters[0] += hits;
    counters[1] += misses;
    counters[2] += wbs;
    rc = 0;

done:
    free(t.node);
    free(t.slot);
    free(set);
    free(touched);
    free(counts);
    free(res_line);
    free(res_dirty);
    free(set_of);
    return rc;
}

/* Run-length dedup of the accesses at trace positions pos[0..k) into
   s: consecutive repeats of one line OR their write flags into the
   first, which is the trigger.  Returns the repeats dropped. */
static int64_t dedup(const int32_t *pos, int64_t k, const int64_t *lines,
                     const int64_t *ops, Events *s)
{
    int64_t *line = s->line, m = 0;
    uint8_t *write = s->write;
    int32_t *trig = s->trig;
    for (int64_t j = 0; j < k; j++) {
        int32_t i = pos[j];
        uint8_t w = (ops[i] & OP_WRITE) != 0;
        if (m && line[m - 1] == lines[i]) {
            write[m - 1] |= w;
        } else {
            line[m] = lines[i];
            write[m] = w;
            trig[m++] = i;
        }
    }
    s->n = m;
    return k - m;
}

static int64_t now_ns(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

/*
 * lines/ops: the n-access trace.  runs: n_runs (pe, lo, hi) triples
 * that tile [0, n) in order.  Structures, indexed in this order (P
 * PEs, G = ceil(P / pes_per_l2) groups): L1 0..P-1, victim cache
 * 0..P-1, stream buffer 0..P-1, L2 0..G-1, STLB 0..G-1, the LLC.
 * geometry: (num_sets, ways) per structure.  fetch, store: the
 * resident callbacks, called with the structure's index.
 *
 * Out: levels (n service levels); counters, zeroed by the caller:
 * [hits, misses, writebacks] per structure; dram, zeroed by the
 * caller: (2 + 4P) slots of n_regions counts each, indexed by the
 * region id of the trigger: dense reads, dense writes, then per PE
 * victim-cache reads and writes, then per PE stream reads and writes;
 * walks: (structure, events walked, nanoseconds) per walked stream.
 *
 * Returns the number of walks, or an error code: nothing the caller
 * reads is meaningful then.
 */
int64_t repro_replay_epoch(
    const int64_t *lines, const int64_t *ops, int64_t n,
    const int64_t *runs, int64_t n_runs,
    int64_t num_pes, int64_t pes_per_l2, int64_t lines_per_page,
    int64_t n_regions,
    const int64_t *geometry, fetch_fn fetch, store_fn store,
    uint8_t *levels, int64_t *counters, int64_t *dram, int64_t *walks)
{
    if (num_pes < 1 || pes_per_l2 < 1 || lines_per_page < 1 ||
        n_regions < 1 || n < 0 || n >= INT32_MAX)
        return ERR_INPUT;
    const int64_t P = num_pes, G = (num_pes + pes_per_l2 - 1) / pes_per_l2;
    const int64_t n_caches = 3 * P + 2 * G + 1;
    const int64_t L1 = 0, VICTIM = P, STREAM = 2 * P, L2 = 3 * P,
                  STLB = 3 * P + G, LLC = 3 * P + 2 * G;

    for (int64_t k = 0, end = 0; k <= n_runs; k++) {
        if (k == n_runs) {
            if (end != n)
                return ERR_INPUT;
            break;
        }
        const int64_t *r = &runs[3 * k];
        if (r[0] < 0 || r[0] >= P || r[1] != end || r[2] < r[1])
            return ERR_INPUT;
        end = r[2];
    }
    for (int64_t i = 0; i < n; i++)
        if (lines[i] < 0 || ops[i] < 0 ||
            (ops[i] & OP_PATH_MASK) >= N_PATHS ||
            (ops[i] >> OP_REGION_SHIFT) >= n_regions)
            return ERR_INPUT;

    int64_t rc = ERR_ALLOC, n_walks = 0;
    Cache *cache = malloc((size_t)n_caches * sizeof(Cache));
    int64_t *bucket = calloc((size_t)(N_PATHS * P + 1), sizeof(int64_t));
    int64_t *cursor = malloc((size_t)(N_PATHS * P) * sizeof(int64_t));
    int32_t *pos = malloc((size_t)(n ? n : 1) * sizeof(int32_t));
    Events *l1 = calloc((size_t)P, sizeof(Events));
    Events *l2 = calloc((size_t)G, sizeof(Events));
    Events s = {NULL, NULL, NULL, 0}, out = s;
    Slice *sl = malloc((size_t)(n_runs + 1) * sizeof(Slice));
    if (!cache || !bucket || !cursor || !pos || !l1 || !l2 || !sl ||
        !events_alloc(&s, n))
        goto done;

    for (int64_t c = 0; c < n_caches; c++) {
        cache[c] = (Cache){c, geometry[2 * c], geometry[2 * c + 1], fetch,
                           store};
        if (cache[c].num_sets < 1 || cache[c].ways < 1) {
            rc = ERR_INPUT;
            goto done;
        }
    }

    /* Each PE's trace positions per path, in trace order. */
    for (int64_t k = 0; k < n_runs; k++)
        for (int64_t i = runs[3 * k + 1]; i < runs[3 * k + 2]; i++)
            bucket[1 + N_PATHS * runs[3 * k] + (ops[i] & OP_PATH_MASK)]++;
    for (int64_t b = 0; b < N_PATHS * P; b++) {
        bucket[b + 1] += bucket[b];
        cursor[b] = bucket[b];
    }
    for (int64_t k = 0; k < n_runs; k++)
        for (int64_t i = runs[3 * k + 1]; i < runs[3 * k + 2]; i++)
            pos[cursor[N_PATHS * runs[3 * k] + (ops[i] & OP_PATH_MASK)]++] =
                (int32_t)i;
    memset(levels, LV_L1, (size_t)n);

#define WALK(c, n_sl, reads_fill, emit)                                    \
    do {                                                                   \
        rc = walk(&cache[c], sl, (n_sl), (reads_fill), (emit),             \
                  &counters[3 * (c)]);                                     \
        if (rc < 0)                                                        \
            goto done;                                                     \
    } while (0)
#define RECORD(c, events, t0)                                              \
    do {                                                                   \
        walks[3 * n_walks] = (c);                                          \
        walks[3 * n_walks + 1] = (events);                                 \
        walks[3 * n_walks + 2] = now_ns() - (t0);                          \
        n_walks++;                                                         \
    } while (0)

    /* STLB: each group's pages, run after run, deduped.  A page is a
       shift of the line where lines_per_page is a power of two. */
    int page_shift = -1;
    for (int b = 0; b < 62; b++)
        if ((int64_t)1 << b == lines_per_page)
            page_shift = b;
    for (int64_t g = 0; g < G; g++) {
        int64_t t0 = now_ns(), total = 0, m = 0;
        for (int64_t k = 0; k < n_runs; k++) {
            const int64_t *r = &runs[3 * k];
            if (r[0] / pes_per_l2 != g)
                continue;
            total += r[2] - r[1];
            for (int64_t i = r[1]; i < r[2]; i++) {
                int64_t page = page_shift >= 0 ? lines[i] >> page_shift
                                              : lines[i] / lines_per_page;
                if (!m || s.line[m - 1] != page) {
                    s.line[m] = page;
                    s.write[m] = 0;
                    s.trig[m++] = (int32_t)i;
                }
            }
        }
        s.n = m;
        if (!m)
            continue;
        sl[0] = (Slice){&s, 0, m};
        WALK(STLB + g, 1, 0, NULL);
        counters[3 * (STLB + g)] += total - m;
        RECORD(STLB + g, m, t0);
    }

    /* L1: each PE's dense-cached accesses; a fill reaches the L2. */
    for (int64_t p = 0; p < P; p++) {
        int64_t t0 = now_ns(), b = N_PATHS * p + PATH_DENSE;
        int64_t repeats = dedup(pos + bucket[b], bucket[b + 1] - bucket[b],
                                lines, ops, &s);
        if (!s.n)
            continue;
        if (!events_alloc(&l1[p], 2 * s.n)) {
            rc = ERR_ALLOC;
            goto done;
        }
        sl[0] = (Slice){&s, 0, s.n};
        WALK(L1 + p, 1, 0, &l1[p]);
        counters[3 * (L1 + p)] += repeats;
        for (int64_t e = 0; e < l1[p].n; e++)
            if (!l1[p].write[e])
                levels[l1[p].trig[e]] = LV_L2;
        RECORD(L1 + p, s.n, t0);
    }

    /* L2: each group over its PEs' L1 events, merged along the runs. */
    memset(cursor, 0, (size_t)(N_PATHS * P) * sizeof(int64_t));
    for (int64_t g = 0; g < G; g++) {
        int64_t t0 = now_ns(), total = 0;
        for (int64_t p = g * pes_per_l2; p < P && p < (g + 1) * pes_per_l2;
             p++)
            total += l1[p].n;
        if (!total)
            continue;
        if (!events_alloc(&l2[g], 2 * total)) {
            rc = ERR_ALLOC;
            goto done;
        }
        int64_t n_sl = 0;
        for (int64_t k = 0; k < n_runs; k++) {
            const int64_t *r = &runs[3 * k];
            if (r[0] / pes_per_l2 == g)
                n_sl = cut(sl, n_sl, &l1[r[0]], &cursor[r[0]], r[2]);
        }
        WALK(L2 + g, n_sl, 1, &l2[g]);
        for (int64_t e = 0; e < l2[g].n; e++)
            if (!l2[g].write[e])
                levels[l2[g].trig[e]] = LV_LLC;
        RECORD(L2 + g, total, t0);
        for (int64_t p = g * pes_per_l2; p < P && p < (g + 1) * pes_per_l2;
             p++)
            events_free(&l1[p]);
    }

    /* LLC: every group's L2 events, merged along the runs; its fills
       and dirty victims are the dense path's DRAM traffic. */
    {
        int64_t t0 = now_ns(), total = 0;
        for (int64_t g = 0; g < G; g++)
            total += l2[g].n;
        if (total) {
            if (!events_alloc(&out, 2 * total)) {
                rc = ERR_ALLOC;
                goto done;
            }
            memset(cursor, 0, (size_t)(N_PATHS * P) * sizeof(int64_t));
            int64_t n_sl = 0;
            for (int64_t k = 0; k < n_runs; k++) {
                int64_t g = runs[3 * k] / pes_per_l2;
                n_sl = cut(sl, n_sl, &l2[g], &cursor[g], runs[3 * k + 2]);
            }
            WALK(LLC, n_sl, 1, &out);
            for (int64_t e = 0; e < out.n; e++) {
                int32_t i = out.trig[e];
                int64_t rid = ops[i] >> OP_REGION_SHIFT;
                if (out.write[e]) {
                    dram[n_regions + rid]++;
                } else {
                    levels[i] = LV_DRAM;
                    dram[rid]++;
                }
            }
            RECORD(LLC, total, t0);
            events_free(&out);
            for (int64_t g = 0; g < G; g++)
                events_free(&l2[g]);
        }
    }

    /* Bypass paths: each PE's victim cache, then each stream buffer.
       A miss goes to DRAM: a read unless the access writes.  A dirty
       victim-cache eviction is a DRAM write; a stream miss that
       writes is charged as a DRAM write when it happens, so a dirty
       stream-buffer victim only counts as a writeback. */
    for (int64_t kind = PATH_BYPASS; kind <= PATH_STREAM; kind++) {
        int64_t base = kind == PATH_BYPASS ? VICTIM : STREAM;
        uint8_t hit_level = kind == PATH_BYPASS ? LV_VICTIM : LV_BBF;
        int64_t *slots = dram + n_regions * (kind == PATH_BYPASS ? 2 : 2 + 2 * P);
        for (int64_t p = 0; p < P; p++) {
            int64_t t0 = now_ns(), b = N_PATHS * p + kind;
            int64_t k = bucket[b + 1] - bucket[b];
            int64_t repeats = dedup(pos + bucket[b], k, lines, ops, &s);
            if (!s.n)
                continue;
            if (!events_alloc(&out, 2 * s.n)) {
                rc = ERR_ALLOC;
                goto done;
            }
            sl[0] = (Slice){&s, 0, s.n};
            WALK(base + p, 1, 0, &out);
            counters[3 * (base + p)] += repeats;
            for (int64_t j = bucket[b]; j < bucket[b + 1]; j++)
                levels[pos[j]] = hit_level;
            int64_t *reads = slots + 2 * p * n_regions;
            int64_t *writes = reads + n_regions;
            for (int64_t e = 0; e < out.n; e++) {
                int32_t i = out.trig[e];
                int64_t rid = ops[i] >> OP_REGION_SHIFT;
                if (!out.write[e]) {
                    levels[i] = LV_DRAM;
                    if (ops[i] & OP_WRITE) {
                        if (kind == PATH_STREAM)
                            writes[rid]++;
                    } else {
                        reads[rid]++;
                    }
                } else if (kind == PATH_BYPASS) {
                    writes[rid]++;
                }
            }
            RECORD(base + p, s.n, t0);
            events_free(&out);
        }
    }
    rc = n_walks;

done:
    if (l1)
        for (int64_t p = 0; p < P; p++)
            events_free(&l1[p]);
    if (l2)
        for (int64_t g = 0; g < G; g++)
            events_free(&l2[g]);
    events_free(&s);
    events_free(&out);
    free(sl);
    free(l1);
    free(l2);
    free(pos);
    free(cursor);
    free(bucket);
    free(cache);
    return rc;
#undef WALK
#undef RECORD
}
