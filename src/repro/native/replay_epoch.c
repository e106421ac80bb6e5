/*
 * One epoch of trace replay through the whole memory hierarchy.
 *
 * repro_replay_epoch replays an epoch's dispatch runs (pe, lo, hi),
 * which tile the epoch's trace positions in order, through every LRU
 * structure of repro.memory.hierarchy.MemorySystem: each L2 group's
 * STLB, each PE's L1, each group's L2, the LLC, and each PE's BBF
 * victim cache and stream buffer.  It writes every access's service
 * level, every structure's counters and the DRAM reads and writes per
 * region.  Each run's lines and ops are read in place through a table
 * of pointers; the trace they stand for is never concatenated.  Its
 * reference is the scalar oracle, MemorySystem.replay_trace_scalar, run
 * after run; DESIGN.md section 10 gives the argument that the two
 * agree.  Before it returns it folds the service levels into each PE's
 * per-level tallies (tally_runs).
 *
 * Resident state lives here.  Each structure is a State: one doubly
 * linked LRU list per set (head = oldest) threaded through a node pool,
 * and one open-addressing table (Fibonacci hashing, linear probing,
 * backward-shift deletion) mapping a line to its node; a line lives in
 * one set, so one table serves them all, and a one-set 1,536-way
 * structure costs no more per access than an 8-way set.  The nodes in
 * use are exactly the residents.  A State persists from one epoch to
 * the next; the binding creates it from the structure's per-set dicts
 * (repro_state_import) and turns it back into dicts when Python reads
 * them (repro_state_export).
 *
 * Every structure walks once, over its own event stream, through
 * walk(): a transcription of repro.memory.cache.Cache.access applied to
 * each event in order.  Per-set LRU, where a hit moves the line to MRU
 * and ORs the write flag into its dirty bit, and a miss evicts the
 * set's LRU line when the set is full, then allocates the new line
 * with the write flag (write-allocate).  A walk emits the next level's
 * events in stream order: an event's dirty victim (a write), then its
 * own fill read when it missed and fills.  Every event carries the
 * trace position of the access responsible (its trigger), which sets
 * service levels and DRAM regions.
 *
 * The streams:
 * - STLB g: the pages of group g's accesses, run after run;
 * - L1 p, victim cache p, stream buffer p: PE p's accesses on the
 *   dense-cached, dense-bypass and stream paths;
 * - L2 g: its PEs' L1 events, each run's slice of its PE's events,
 *   run after run; only reads fill;
 * - LLC: every group's L2 events merged the same way; only reads fill.
 * The first five are run-length deduped first: a repeat of the previous
 * line is an MRU hit that only ORs its write flag into the line.  Each
 * PE's three paths are bucketed and deduped in one pass over its runs.
 *
 * A call either succeeds or changes no State and no tally: the entry
 * checks the run table, then every run's lines and ops in the pass
 * that counts its accesses per path (check_run; the first failing run
 * is reported), and every node pool, table and event buffer a walk can
 * need is allocated, to a bound, before the first walk.  So each run's
 * ops are read three times (that pass, the bucketing and the tally) and
 * its lines three times (that pass, the STLB's and the bucketing).
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
enum { LV_L1, LV_VICTIM, LV_BBF, LV_L2, LV_LLC, LV_DRAM, N_LEVELS };

/* Error returns: allocation failed; a malformed run table; a resident
   outside its set (or negative); a set holding more residents than
   ways; a line twice. */
enum {
    ERR_ALLOC = -1, ERR_INPUT = -2, ERR_OUTSIDE = -3, ERR_OVERFULL = -4,
    ERR_TWICE = -5
};
/* A run's lines or ops fail check_run: ERR_TRACE - its code (1-4). */
#define ERR_TRACE (-10)

/* The most nodes one State holds: node indices are int32. */
#define NODE_LIMIT ((int64_t)INT32_MAX - 1)

typedef struct {
    int64_t line;
    int32_t prev, next;
    uint8_t dirty;
} Node;

/* One LRU list per set. */
typedef struct {
    int32_t head, tail, size;
} Set;

typedef struct {
    int64_t num_sets, ways;
    int64_t capacity; /* num_sets * ways, saturated */
    int pow2;
    Set *set;
    Node *node;
    int64_t cap, used; /* nodes allocated; nodes in use = residents */
    int32_t *slot;     /* node index + 1; 0 = empty */
    uint64_t mask;
    int shift;
} State;

static int64_t live_states;

static inline uint64_t home(const State *st, int64_t line)
{
    return ((uint64_t)line * 0x9E3779B97F4A7C15ull) >> st->shift;
}

/* Table position holding `line`, or the empty slot where it belongs. */
static inline uint64_t probe(const State *st, int64_t line)
{
    uint64_t i = home(st, line);
    while (st->slot[i] && st->node[st->slot[i] - 1].line != line)
        i = (i + 1) & st->mask;
    return i;
}

static void table_remove(State *st, uint64_t i)
{
    uint64_t j = i;
    for (;;) {
        j = (j + 1) & st->mask;
        int32_t s = st->slot[j];
        if (!s)
            break;
        uint64_t k = home(st, st->node[s - 1].line);
        /* Move s back into the hole unless its home lies cyclically
           in (i, j]. */
        if (j > i ? (k <= i || k > j) : (k <= i && k > j)) {
            st->slot[i] = s;
            i = j;
        }
    }
    st->slot[i] = 0;
}

/* Lines are non-negative (the caller checks); the unsigned remainder
   keeps even an unchecked line inside the set array. */
static inline Set *set_of(const State *st, int64_t line)
{
    uint64_t x = (uint64_t)line, ns = (uint64_t)st->num_sets;
    return &st->set[st->pow2 ? x & (ns - 1) : x % ns];
}

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

/* An empty structure of num_sets sets of `ways` lines, or NULL when it
   cannot be allocated.  Its pool and table grow on demand. */
State *repro_state_new(int64_t num_sets, int64_t ways)
{
    if (num_sets < 1 || ways < 1 ||
        (uint64_t)num_sets > SIZE_MAX / sizeof(Set))
        return NULL;
    State *st = calloc(1, sizeof(State));
    if (!st)
        return NULL;
    st->set = malloc((size_t)num_sets * sizeof(Set));
    if (!st->set) {
        free(st);
        return NULL;
    }
    for (int64_t s = 0; s < num_sets; s++)
        st->set[s] = (Set){-1, -1, 0};
    st->num_sets = num_sets;
    st->ways = ways;
    st->capacity = num_sets > INT64_MAX / ways ? INT64_MAX : num_sets * ways;
    st->pow2 = (num_sets & (num_sets - 1)) == 0;
    __atomic_add_fetch(&live_states, 1, __ATOMIC_RELAXED);
    return st;
}

void repro_state_free(State *st)
{
    if (!st)
        return;
    free(st->set);
    free(st->node);
    free(st->slot);
    free(st);
    __atomic_sub_fetch(&live_states, 1, __ATOMIC_RELAXED);
}

/* States allocated and not yet freed, process-wide. */
int64_t repro_state_live(void)
{
    return __atomic_load_n(&live_states, __ATOMIC_RELAXED);
}

/* Make room for `extra` more residents (at most the capacity).  A
   sparse table keeps most probes and removals to one slot: 16 slots
   per node while the table stays within 256 KiB, else 4 (a table that
   large misses the CPU caches either way).  On the benchmark's RMAT
   level streams (x86-64, gcc 12 -O3, traced, two runs each) the L1
   walks take 22-26 ms per kernel call at 1/16 load against 31-32 ms at
   1/4, and the L2 walks 13.0-13.7 ms against 10.6-10.9 ms.  Returns 0
   when the memory is not there; the residents are untouched either
   way. */
static int reserve(State *st, int64_t extra)
{
    int64_t want = st->capacity - st->used <= extra ? st->capacity
                                                    : st->used + extra;
    if (want <= st->cap)
        return 1;
    if (want > NODE_LIMIT)
        return 0;
    /* Doubling, so that a structure filling up over many epochs
       reallocates and rehashes only a few times. */
    int64_t cap = 2 * st->cap > want ? 2 * st->cap : want;
    if (cap > st->capacity)
        cap = st->capacity;
    if (cap > NODE_LIMIT)
        cap = NODE_LIMIT;
    Node *node = realloc(st->node, (size_t)cap * sizeof(Node));
    if (!node)
        return 0;
    st->node = node;
    uint64_t slots = 16 * (uint64_t)cap;
    if (slots > ((uint64_t)1 << 16))
        slots = 4 * (uint64_t)cap;
    int bits = 6;
    while (((uint64_t)1 << bits) < slots)
        bits++;
    if (!st->slot || bits != 64 - st->shift) {
        int32_t *slot = calloc((size_t)1 << bits, sizeof(int32_t));
        if (!slot)
            return 0;
        free(st->slot);
        st->slot = slot;
        st->mask = ((uint64_t)1 << bits) - 1;
        st->shift = 64 - bits;
        for (int64_t x = 0; x < st->used; x++)
            st->slot[probe(st, node[x].line)] = (int32_t)(x + 1);
    }
    st->cap = cap;
    return 1;
}

/*
 * Fill an empty State with residents: counts[s] lines for each set s,
 * then the lines and dirty flags set after set, oldest first.  Returns
 * 0, or an error code when a set holds more lines than ways, a line is
 * negative or outside its set, or a line comes twice; the State is
 * then to be freed.
 */
int64_t repro_state_import(State *st, const int64_t *counts,
                           const int64_t *lines, const uint8_t *dirty)
{
    int64_t total = 0;
    for (int64_t s = 0; s < st->num_sets; s++) {
        if (counts[s] < 0 || counts[s] > st->ways)
            return ERR_OVERFULL;
        total += counts[s];
    }
    if (!total)
        return 0;
    if (!reserve(st, total))
        return ERR_ALLOC;
    for (int64_t s = 0, r = 0; s < st->num_sets; s++) {
        for (int64_t end = r + counts[s]; r < end; r++) {
            if (lines[r] < 0 || set_of(st, lines[r]) != &st->set[s])
                return ERR_OUTSIDE;
            uint64_t i = probe(st, lines[r]);
            if (st->slot[i])
                return ERR_TWICE;
            int32_t x = (int32_t)st->used++;
            st->node[x].line = lines[r];
            st->node[x].dirty = dirty[r] != 0;
            list_append(st->node, &st->set[s], x);
            st->set[s].size++;
            st->slot[i] = x + 1;
        }
    }
    return 0;
}

/* The number of residents. */
int64_t repro_state_size(const State *st)
{
    return st->used;
}

/* The number of dirty residents. */
int64_t repro_state_dirty(const State *st)
{
    int64_t d = 0;
    for (int64_t x = 0; x < st->used; x++)
        d += st->node[x].dirty;
    return d;
}

/* The residents in repro_state_import's layout: counts has num_sets
   slots, lines and dirty repro_state_size each. */
void repro_state_export(const State *st, int64_t *counts, int64_t *lines,
                        uint8_t *dirty)
{
    int64_t r = 0;
    for (int64_t s = 0; s < st->num_sets; s++) {
        counts[s] = st->set[s].size;
        for (int32_t y = st->set[s].head; y >= 0; y = st->node[y].next) {
            lines[r] = st->node[y].line;
            dirty[r++] = st->node[y].dirty;
        }
    }
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

/*
 * Walk the events of the n_sl slices `sl` in order through `st` and
 * append its emissions to `out` (room for two per event), each
 * carrying its event's trigger: a dirty victim (a write), then the
 * event's own fill read when it missed and fills (every miss, or only
 * reads when reads_fill).  `out` may be NULL.  The State must have room
 * for one more resident per event (reserve).  Adds [hits, misses,
 * writebacks] to counters.
 */
static void walk(State *st, const Slice *sl, int64_t n_sl, int reads_fill,
                 Events *out, int64_t *counters)
{
    const int64_t ways = st->ways;
    /* Locals, so that no store through one buffer forces a reload of
       another's pointer or count. */
    int64_t *e_line = out ? out->line : NULL;
    uint8_t *e_write = out ? out->write : NULL;
    int32_t *e_trig = out ? out->trig : NULL;
    int64_t ne = out ? out->n : 0;
    Node *node = st->node;
    int32_t used = (int32_t)st->used;
    int64_t hits = 0, misses = 0, wbs = 0;
    for (int64_t k = 0; k < n_sl; k++) {
        const int64_t *lines = sl[k].src->line;
        const uint8_t *writes = sl[k].src->write;
        const int32_t *trig = sl[k].src->trig;
        for (int64_t p = sl[k].a; p < sl[k].b; p++) {
            int64_t line = lines[p];
            uint8_t w = writes[p] != 0;
            uint64_t i = probe(st, line);
            Set *s = set_of(st, line);
            int32_t x;
            if (st->slot[i]) {
                hits++;
                x = st->slot[i] - 1;
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
                table_remove(st, probe(st, node[x].line));
                if (node[x].dirty) {
                    wbs++;
                    if (e_line) {
                        e_line[ne] = node[x].line;
                        e_write[ne] = 1;
                        e_trig[ne++] = trig[p];
                    }
                }
                i = probe(st, line); /* the removal may shift entries */
            } else {
                x = used++;
                s->size++;
            }
            node[x].line = line;
            node[x].dirty = w;
            list_append(node, s, x);
            st->slot[i] = x + 1;
            if (e_line && !(reads_fill && w)) {
                e_line[ne] = line;
                e_write[ne] = 0;
                e_trig[ne++] = trig[p];
            }
        }
    }
    st->used = used;
    if (out)
        out->n = ne;
    counters[0] += hits;
    counters[1] += misses;
    counters[2] += wbs;
}

/* The epoch's trace as its runs: (pe, lo, hi) triples over the trace
   positions, and each run's hi - lo lines and ops. */
typedef struct {
    const int64_t *run;
    const int64_t *const *line;
    const int64_t *const *op;
    int64_t n_runs;
} Trace;

/* The op at trace position i, for positions asked in increasing order:
   *k is the cursor, the run holding the last position asked. */
static inline int64_t op_at(const Trace *tr, int64_t *k, int64_t i)
{
    while (tr->run[3 * *k + 2] <= i)
        ++*k;
    return tr->op[*k][i - tr->run[3 * *k + 1]];
}

/* Bucket PE p's accesses (its runs are prun[0..m), in order) by path
   into s, each path's events at its own offset at[path], run-length
   deduped on the way: consecutive repeats of one line on a path OR
   their write flags into the first, which is the trigger.  Each
   access's level is set to its path's first level.  Leaves each path's
   end in at[path]. */
static void bucket(const Trace *tr, const int64_t *prun, int64_t m,
                   uint8_t *levels, Events *s, int64_t *at)
{
    static const uint8_t first_level[N_PATHS] = {LV_L1, LV_VICTIM, LV_BBF};
    int64_t *line = s->line;
    uint8_t *write = s->write;
    int32_t *trig = s->trig;
    const int64_t start[N_PATHS] = {at[0], at[1], at[2]};
    int64_t end[N_PATHS] = {at[0], at[1], at[2]};
    for (int64_t r = 0; r < m; r++) {
        int64_t k = prun[r], lo = tr->run[3 * k + 1];
        int64_t len = tr->run[3 * k + 2] - lo;
        const int64_t *lines = tr->line[k], *ops = tr->op[k];
        for (int64_t j = 0; j < len; j++) {
            const int64_t path = ops[j] & OP_PATH_MASK, e = end[path];
            const uint8_t w = (ops[j] & OP_WRITE) != 0;
            levels[lo + j] = first_level[path];
            if (e > start[path] && line[e - 1] == lines[j]) {
                write[e - 1] |= w;
            } else {
                line[e] = lines[j];
                write[e] = w;
                trig[e] = (int32_t)(lo + j);
                end[path] = e + 1;
            }
        }
    }
    for (int path = 0; path < N_PATHS; path++)
        at[path] = end[path];
}

static int64_t now_ns(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
}

/* Check a run table: PEs below num_pes, runs tiling [0, n) in order.
   Returns n, or ERR_INPUT. */
static int64_t check_runs(const int64_t *runs, int64_t n_runs,
                          int64_t num_pes)
{
    int64_t end = 0;
    for (int64_t k = 0; k < n_runs; k++) {
        const int64_t *r = &runs[3 * k];
        if (r[0] < 0 || r[0] >= num_pes || r[1] != end || r[2] < r[1])
            return ERR_INPUT;
        end = r[2];
    }
    return end < INT32_MAX ? end : ERR_INPUT;
}

/*
 * Check one run's n lines and ops and count its accesses on the dense
 * and bypass paths (the rest are on the stream path).  Returns 0, or
 * the run's failure in this order of precedence: 1 a negative line
 * (C's % differs from Python's on those), 2 a negative op, 3 an op on
 * no path, 4 a region id not below n_regions.
 *
 * The scan ORs and adds, which needs no compare or table per access: a
 * negative value sets the sign bit of the OR; op & (op >> 1) has bit 0
 * set exactly for an op on path 3, so, that excluded, bit 0 and bit 1
 * of the ops count the bypass and stream accesses; and no op's region
 * id exceeds the OR's, so only a run whose OR fails the region bound is
 * scanned again for its largest region id.
 */
static int check_run(const int64_t *lines, const int64_t *ops, int64_t n,
                     int64_t n_regions, int64_t *count)
{
    uint64_t line_or = 0, op_or = 0, path_or = 0, bypass = 0, stream = 0;
    for (int64_t j = 0; j < n; j++) {
        const uint64_t op = (uint64_t)ops[j];
        line_or |= (uint64_t)lines[j];
        op_or |= op;
        path_or |= op & (op >> 1);
        bypass += op & 1;
        stream += (op >> 1) & 1;
    }
    if ((int64_t)line_or < 0)
        return 1;
    if ((int64_t)op_or < 0)
        return 2;
    if (path_or & 1)
        return 3;
    if ((int64_t)(op_or >> OP_REGION_SHIFT) >= n_regions)
        for (int64_t j = 0; j < n; j++)
            if (ops[j] >> OP_REGION_SHIFT >= n_regions)
                return 4;
    count[PATH_DENSE] += n - (int64_t)(bypass + stream);
    count[PATH_BYPASS] += (int64_t)bypass;
    count[PATH_STREAM] += (int64_t)stream;
    return 0;
}

/*
 * Add each access's service level into its PE's tallies, as
 * repro.memory.hierarchy.level_tally does run by run: tally holds, per
 * PE, N_LEVELS counts each of dense reads (neither a write nor in
 * sparse_region), stores (writes) and sparse accesses (in
 * sparse_region; a sparse write counts as a store too).
 */
static void tally_runs(const Trace *tr, int64_t sparse_region,
                       const uint8_t *levels, int64_t *tally)
{
    for (int64_t k = 0; k < tr->n_runs; k++) {
        const int64_t lo = tr->run[3 * k + 1];
        const int64_t len = tr->run[3 * k + 2] - lo;
        const int64_t *ops = tr->op[k];
        const uint8_t *lv = levels + lo;
        /* One count per (write, sparse) class and level, as
           level_tally's bincount: plain reads, plain writes, sparse
           reads, sparse writes; four copies, so that consecutive
           accesses of one class and level do not wait on each other's
           increments. */
        int64_t c[4][4 * N_LEVELS] = {{0}};
        for (int64_t j = 0; j < len; j++) {
            int64_t w = (ops[j] & OP_WRITE) != 0;
            int64_t sp = (ops[j] >> OP_REGION_SHIFT) == sparse_region;
            c[j & 3][(w + 2 * sp) * N_LEVELS + lv[j]]++;
        }
        int64_t *reads = tally + 3 * N_LEVELS * tr->run[3 * k];
        int64_t *stores = reads + N_LEVELS, *sparse = stores + N_LEVELS;
        for (int u = 0; u < 4; u++)
            for (int l = 0; l < N_LEVELS; l++) {
                reads[l] += c[u][l];
                stores[l] += c[u][N_LEVELS + l] + c[u][3 * N_LEVELS + l];
                sparse[l] += c[u][2 * N_LEVELS + l] + c[u][3 * N_LEVELS + l];
            }
    }
}

/* Walk one PE's deduped bypass-path stream [a, b) of s through its
   victim cache (kind PATH_BYPASS) or stream buffer (PATH_STREAM), out
   collecting the emissions.  A miss goes to DRAM: a read unless the
   access writes.  A dirty victim-cache eviction is a DRAM write; a
   stream miss that writes is charged as a DRAM write when it happens,
   so a dirty stream-buffer victim only counts as a writeback.  reads
   and writes: the PE's n_regions DRAM counts for this path. */
static void walk_bypass(State *st, const Trace *tr, int kind, Events *s,
                        int64_t a, int64_t b, uint8_t *levels, Events *out,
                        int64_t *counters, int64_t *reads, int64_t *writes)
{
    Slice sl = {s, a, b};
    out->n = 0;
    walk(st, &sl, 1, 0, out, counters);
    int64_t at = 0;
    for (int64_t e = 0; e < out->n; e++) {
        int32_t i = out->trig[e];
        int64_t op = op_at(tr, &at, i), rid = op >> OP_REGION_SHIFT;
        if (!out->write[e]) {
            levels[i] = LV_DRAM;
            if (op & OP_WRITE) {
                if (kind == PATH_STREAM)
                    writes[rid]++;
            } else {
                reads[rid]++;
            }
        } else if (kind == PATH_BYPASS) {
            writes[rid]++;
        }
    }
}

/*
 * runs: n_runs (pe, lo, hi) triples that tile the epoch's trace
 * positions [0, n) in order; run_lines / run_ops: each run's hi - lo
 * accesses.  state: the structures, in this order (P PEs, G =
 * ceil(P / pes_per_l2) groups): L1 0..P-1, victim cache 0..P-1, stream
 * buffer 0..P-1, L2 0..G-1, STLB 0..G-1, the LLC.
 *
 * Out: levels (n service levels); counters, zeroed by the caller:
 * [hits, misses, writebacks] per structure; dram, zeroed by the
 * caller: (2 + 4P) slots of n_regions counts each, indexed by the
 * region id of the trigger: dense reads, dense writes, then per PE
 * victim-cache reads and writes, then per PE stream reads and writes;
 * walks: (structure, events walked, nanoseconds) per walked stream;
 * tally, unless NULL: P rows of 3 * N_LEVELS counts the levels are
 * added into (tally_runs), sparse_region naming the sparse accesses.
 *
 * Returns the number of walks, or an error code: ERR_INPUT for a
 * malformed run table, ERR_TRACE - code for the first run whose lines
 * or ops fail check_run, ERR_ALLOC.  No State or tally has changed
 * then, and nothing else the caller reads is meaningful.
 */
int64_t repro_replay_epoch(
    const int64_t *runs, const int64_t *const *run_lines,
    const int64_t *const *run_ops, int64_t n_runs,
    int64_t num_pes, int64_t pes_per_l2, int64_t lines_per_page,
    int64_t n_regions, int64_t sparse_region, State *const *state,
    uint8_t *levels, int64_t *counters, int64_t *dram, int64_t *tally,
    int64_t *walks)
{
    if (num_pes < 1 || pes_per_l2 < 1 || lines_per_page < 1 ||
        n_regions < 1)
        return ERR_INPUT;
    const int64_t n = check_runs(runs, n_runs, num_pes);
    if (n < 0)
        return n;
    const int64_t P = num_pes, G = (num_pes + pes_per_l2 - 1) / pes_per_l2;
    const int64_t L1 = 0, VICTIM = P, STREAM = 2 * P, L2 = 3 * P,
                  STLB = 3 * P + G, LLC = 3 * P + 2 * G;
    const Trace tr = {runs, run_lines, run_ops, n_runs};

    int64_t rc = ERR_ALLOC, n_walks = 0;
    /* Accesses per PE and path, then per group. */
    int64_t *count = calloc((size_t)(N_PATHS * P + G), sizeof(int64_t));
    int64_t *prun = malloc((size_t)(n_runs ? n_runs : 1) * sizeof(int64_t));
    int64_t *pfirst = calloc((size_t)(P + 1), sizeof(int64_t));
    int64_t *cursor = calloc((size_t)P, sizeof(int64_t));
    Events *l1 = calloc((size_t)P, sizeof(Events));
    Events *l2 = calloc((size_t)G, sizeof(Events));
    Events s = {NULL, NULL, NULL, 0}, out = s;
    Slice *sl = malloc((size_t)(n_runs + 1) * sizeof(Slice));
    if (!count || !prun || !pfirst || !cursor || !l1 || !l2 || !sl)
        goto done;
    int64_t *group_total = count + N_PATHS * P;

    /* Check every run and count its accesses; then each PE's runs, in
       order. */
    for (int64_t k = 0; k < n_runs; k++) {
        const int64_t p = runs[3 * k], len = runs[3 * k + 2] - runs[3 * k + 1];
        int code = check_run(run_lines[k], run_ops[k], len, n_regions,
                             &count[N_PATHS * p]);
        if (code) {
            rc = ERR_TRACE - code;
            goto done;
        }
        group_total[p / pes_per_l2] += len;
        pfirst[p + 1]++;
    }
    for (int64_t p = 0; p < P; p++) {
        cursor[p] = pfirst[p];
        pfirst[p + 1] += pfirst[p];
    }
    for (int64_t k = 0; k < n_runs; k++)
        prun[cursor[runs[3 * k]]++] = k;

    /* Room, before any walk, for everything the walks can allocate:
       each stream's deduped events, each level's emissions (two per
       event at most) and one new resident per event. */
    int64_t s_max = 0, l2_total = 0, out_max = 0;
    for (int64_t g = 0; g < G; g++) {
        int64_t dense = 0;
        for (int64_t p = g * pes_per_l2; p < P && p < (g + 1) * pes_per_l2;
             p++)
            dense += count[N_PATHS * p + PATH_DENSE];
        if (!events_alloc(&l2[g], 4 * dense) ||
            !reserve(state[L2 + g], 2 * dense) ||
            !reserve(state[STLB + g], group_total[g]))
            goto done;
        l2_total += 4 * dense;
        if (group_total[g] > s_max)
            s_max = group_total[g];
    }
    for (int64_t p = 0; p < P; p++) {
        const int64_t *c = &count[N_PATHS * p];
        if (!events_alloc(&l1[p], 2 * c[PATH_DENSE]) ||
            !reserve(state[L1 + p], c[PATH_DENSE]) ||
            !reserve(state[VICTIM + p], c[PATH_BYPASS]) ||
            !reserve(state[STREAM + p], c[PATH_STREAM]))
            goto done;
        for (int path = PATH_BYPASS; path <= PATH_STREAM; path++)
            if (2 * c[path] > out_max)
                out_max = 2 * c[path];
    }
    if (2 * l2_total > out_max)
        out_max = 2 * l2_total;
    if (!reserve(state[LLC], l2_total) || !events_alloc(&s, s_max) ||
        !events_alloc(&out, out_max))
        goto done;

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
        int64_t t0 = now_ns(), m = 0;
        for (int64_t k = 0; k < n_runs; k++) {
            const int64_t *r = &runs[3 * k];
            if (r[0] / pes_per_l2 != g)
                continue;
            const int64_t *lines = run_lines[k];
            for (int64_t j = 0; j < r[2] - r[1]; j++) {
                int64_t page = page_shift >= 0 ? lines[j] >> page_shift
                                               : lines[j] / lines_per_page;
                if (!m || s.line[m - 1] != page) {
                    s.line[m] = page;
                    s.write[m] = 0;
                    s.trig[m++] = (int32_t)(r[1] + j);
                }
            }
        }
        s.n = m;
        if (!m)
            continue;
        sl[0] = (Slice){&s, 0, m};
        walk(state[STLB + g], sl, 1, 0, NULL, &counters[3 * (STLB + g)]);
        counters[3 * (STLB + g)] += group_total[g] - m;
        RECORD(STLB + g, m, t0);
    }

    /* Each PE's accesses, bucketed by path in one pass (the bucketing
       is timed with the L1 walk); then its L1 over the dense-cached
       ones, where a fill reaches the L2, and its victim cache and
       stream buffer over the bypass and stream ones. */
    for (int64_t p = 0; p < P; p++) {
        const int64_t *c = &count[N_PATHS * p];
        int64_t t0 = now_ns();
        int64_t at[N_PATHS] = {0, c[PATH_DENSE], c[PATH_DENSE] + c[PATH_BYPASS]};
        const int64_t start[N_PATHS] = {at[0], at[1], at[2]};
        bucket(&tr, prun + pfirst[p], pfirst[p + 1] - pfirst[p], levels, &s,
               at);
        if (at[PATH_DENSE]) {
            sl[0] = (Slice){&s, 0, at[PATH_DENSE]};
            walk(state[L1 + p], sl, 1, 0, &l1[p], &counters[3 * (L1 + p)]);
            counters[3 * (L1 + p)] += c[PATH_DENSE] - at[PATH_DENSE];
            for (int64_t e = 0; e < l1[p].n; e++)
                if (!l1[p].write[e])
                    levels[l1[p].trig[e]] = LV_L2;
            RECORD(L1 + p, at[PATH_DENSE], t0);
        }
        for (int kind = PATH_BYPASS; kind <= PATH_STREAM; kind++) {
            if (!c[kind])
                continue;
            const int64_t base = kind == PATH_BYPASS ? VICTIM : STREAM;
            int64_t *reads = dram + n_regions *
                (kind == PATH_BYPASS ? 2 + 2 * p : 2 + 2 * P + 2 * p);
            t0 = now_ns();
            walk_bypass(state[base + p], &tr, kind, &s, start[kind], at[kind],
                        levels, &out, &counters[3 * (base + p)], reads,
                        reads + n_regions);
            counters[3 * (base + p)] += c[kind] - (at[kind] - start[kind]);
            RECORD(base + p, at[kind] - start[kind], t0);
        }
    }

    /* L2: each group over its PEs' L1 events, merged along the runs. */
    memset(cursor, 0, (size_t)P * sizeof(int64_t));
    for (int64_t g = 0; g < G; g++) {
        int64_t t0 = now_ns(), total = 0;
        for (int64_t p = g * pes_per_l2; p < P && p < (g + 1) * pes_per_l2;
             p++)
            total += l1[p].n;
        if (!total)
            continue;
        int64_t n_sl = 0;
        for (int64_t k = 0; k < n_runs; k++) {
            const int64_t *r = &runs[3 * k];
            if (r[0] / pes_per_l2 == g)
                n_sl = cut(sl, n_sl, &l1[r[0]], &cursor[r[0]], r[2]);
        }
        walk(state[L2 + g], sl, n_sl, 1, &l2[g], &counters[3 * (L2 + g)]);
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
            memset(cursor, 0, (size_t)P * sizeof(int64_t));
            int64_t n_sl = 0;
            for (int64_t k = 0; k < n_runs; k++) {
                int64_t g = runs[3 * k] / pes_per_l2;
                n_sl = cut(sl, n_sl, &l2[g], &cursor[g], runs[3 * k + 2]);
            }
            out.n = 0;
            walk(state[LLC], sl, n_sl, 1, &out, &counters[3 * LLC]);
            int64_t at = 0;
            for (int64_t e = 0; e < out.n; e++) {
                int32_t i = out.trig[e];
                int64_t rid = op_at(&tr, &at, i) >> OP_REGION_SHIFT;
                if (out.write[e]) {
                    dram[n_regions + rid]++;
                } else {
                    levels[i] = LV_DRAM;
                    dram[rid]++;
                }
            }
            RECORD(LLC, total, t0);
        }
    }
    if (tally)
        tally_runs(&tr, sparse_region, levels, tally);
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
    free(cursor);
    free(pfirst);
    free(prun);
    free(count);
    return rc;
#undef RECORD
}
