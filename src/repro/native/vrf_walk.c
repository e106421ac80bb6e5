/*
 * One PE-epoch of trace generation, VRF walk included.
 *
 * repro_vrf_epoch derives a PE's dense-operand access stream for an
 * epoch of chunks, drops the touches DESIGN.md section 7 proves to be
 * invisible hits, walks the rest through an exact model of the vector
 * register file (VRF) and writes each chunk's trace: its sparse-stream
 * line ranges, then its VRF emissions.  The reference it is held to is
 * repro.core.vectorized._trace_epoch_twin, which walks the full,
 * unelided stream through _run_vrf_stream (the inlined form of
 * VectorRegisterFile.access).
 *
 * Inputs, read in place: the id arrays r_ids and c_ids (the tiled
 * matrix's, in the engine) and a chunk table whose row k is (input
 * offset, count, output start): chunk k is the nonzeros
 * [offset, offset + count) of the id arrays.  Nonzero i's first lines
 * are r_base + r_ids[i] * stride and c_base + c_ids[i] * stride.
 *
 * Access stream: each nonzero touches, for l < lpr, its rMatrix line + l
 * then its cMatrix line + l.  SpMM (sddmm == 0): the rMatrix touch is
 * read-modify-write (dirty), the cMatrix touch read-only.  SDDMM: both
 * are read-only and the nonzero then touches its output line
 * out_base + (output start + j) / 16 (j = index in the chunk),
 * write-only: dirty, with no load on a miss.
 *
 * Elision: of each run of equal rMatrix lines (and, for SDDMM, output
 * lines) only the first, the last and every cadence-th touch are
 * walked; each dropped touch is credited as a hit.  The caller's
 * cadence must satisfy the safety condition of DESIGN.md section 7
 * (repro.core.vectorized._elision_cadence); cadence 1 walks everything.
 *
 * VRF: a fully associative LRU tag CAM of `cap` lines, where a hit
 * moves the line to MRU, a miss evicts the LRU head, and an access that
 * lifts the dirty count past `high` makes the Write-back Manager drain
 * the oldest dirty lines (which stay resident, clean) until `low`
 * remain.  State: a node pool of `cap` entries threaded on a doubly
 * linked LRU list (head = oldest), indexed by an open-addressing hash
 * table (Fibonacci hashing, linear probing, backward-shift deletion).
 * Emissions, in the scalar order per access: the miss load (when the
 * access has a load op), the dirty victim's store, then the drain
 * stores.
 */

#include <stdint.h>
#include <stdlib.h>

#define OUT_VALS_PER_LINE 16 /* 4-byte output values per 64-byte line */

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
    int64_t cap, size, high, low, dc;
    int64_t hits, misses, evc, evw, mwb;
    int64_t op_store;
    int64_t *t_lines, *t_ops, t, t_cap;
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

/* Append one trace entry; past t_cap only count it (an overflow the
   caller reports, never a write out of bounds). */
static inline void emit(Vrf *v, int64_t line, int64_t op)
{
    if (v->t < v->t_cap) {
        v->t_lines[v->t] = line;
        v->t_ops[v->t] = op;
    }
    v->t++;
}

/* Write-back Manager: clean the oldest dirty lines down to `low`. */
static void drain(Vrf *v)
{
    int64_t to_drain = v->dc - v->low, drained = 0;
    for (int32_t y = v->head; y >= 0 && drained < to_drain;
         y = v->node[y].next) {
        if (v->node[y].dirty) {
            v->node[y].dirty = 0;
            emit(v, v->node[y].line, v->op_store);
            drained++;
        }
    }
    v->dc -= drained;
    v->mwb += drained;
}

/* One VectorRegisterFile.access of `line`, marking it dirty when `dm`;
   a miss loads it with `op` unless op < 0. */
static inline void touch(Vrf *v, int64_t line, uint8_t dm, int64_t op)
{
    uint64_t i = probe(v, line);
    int32_t x;
    if (v->slot[i]) {
        v->hits++;
        x = v->slot[i] - 1;
        if (x != v->tail) {
            list_unlink(v, x);
            list_append(v, x);
        }
        if (v->node[x].dirty)
            return;
        v->node[x].dirty = dm;
    } else {
        v->misses++;
        if (op >= 0)
            emit(v, line, op);
        if (v->size >= v->cap) {
            v->evc++;
            x = v->head;
            list_unlink(v, x);
            table_remove(v, probe(v, v->node[x].line));
            if (v->node[x].dirty) {
                v->dc--;
                v->evw++;
                emit(v, v->node[x].line, v->op_store);
            }
            i = probe(v, line); /* the removal may shift entries */
        } else {
            x = (int32_t)v->size++;
        }
        v->node[x].line = line;
        v->node[x].dirty = dm;
        list_append(v, x);
        v->slot[i] = x + 1;
    }
    if (dm && ++v->dc > v->high)
        drain(v);
}

typedef struct {
    int64_t prev, d;
} Run;

/* The keep rule for touch i of a run-structured operand: set `bit` in
   keep[i] on the first touch of a run and every cadence-th after it,
   and in keep[i - 1] when i starts a new run (the last touch of the
   previous one). */
static inline void mark(uint8_t *keep, uint8_t bit, int64_t i,
                        int64_t line, Run *run, int64_t cadence)
{
    if (i && line == run->prev) {
        if (++run->d == cadence)
            run->d = 0;
        if (!run->d)
            keep[i] |= bit;
    } else {
        if (i)
            keep[i - 1] |= bit;
        keep[i] |= bit;
        run->prev = line;
        run->d = 0;
    }
}

#define KEEP_R 1
#define KEEP_OUT 2

/* Return codes.  The first pass refuses ERR_CHUNK, then ERR_OUT, then
   ERR_LINE, before anything is written. */
#define ERR_ALLOC (-1)
#define ERR_OVERFLOW (-2)
#define ERR_ROOM (-3)
#define ERR_CHUNK (-4)  /* a chunk is not a range inside the ids */
#define ERR_OUT (-5)    /* a negative output start */
#define ERR_LINE (-6)   /* a dense line negative or past INT64_MAX */

/* 0 if every chunk's ids give lines in [0, INT64_MAX]: base + id * stride
   + (lpr - 1) must not overflow. */
static int check_ids(const int64_t *ids, const int64_t *chunks,
                     int64_t n_chunks, int64_t base, int64_t stride,
                     int64_t lpr)
{
    const int64_t top = (INT64_MAX - base - (lpr - 1)) / stride;
    for (int64_t k = 0; k < n_chunks; k++) {
        const int64_t *p = ids + chunks[3 * k];
        for (int64_t j = 0; j < chunks[3 * k + 1]; j++)
            if (p[j] < 0 || p[j] > top)
                return 1;
    }
    return 0;
}

/*
 * tag_lines / tag_dirty (room for `cap`): in the *n_tags resident lines
 * in LRU order (oldest first, at most cap, pairwise distinct), out the
 * final ones.  r_ids and c_ids hold n_ids ids each; chunks[3 * k] is
 * chunk k's (input offset, count, output start), the output start read
 * only for SDDMM; sparse[6 * k] holds chunk k's (first, count) line
 * ranges of the r_ids, c_ids and vals streams.  r_base, c_base: the
 * first lines of the rMatrix and cMatrix (at least 0); stride, lpr,
 * cadence at least 1.  ops: rMatrix load, cMatrix load, store,
 * sparse-stream read.  The trace is written to t_lines / t_ops from
 * t_pos on (room up to t_cap); segs[2 * k] gets each chunk's (start,
 * end).  counters: in [5] = dirty count; out [hits, misses, evictions,
 * eviction_writebacks, manager_writebacks, dirty_count, trace length
 * needed].
 *
 * Returns the new trace length, or a refusal: ERR_CHUNK, ERR_OUT or
 * ERR_LINE for an input the first pass rejects, ERR_ALLOC when
 * allocation fails, ERR_OVERFLOW when the emissions overflowed their
 * bound, ERR_ROOM when t_cap is below the bound (counters[6] then holds
 * the length to reserve).  Only a success writes the tags or the
 * counters.
 */
int64_t repro_vrf_epoch(
    int64_t cap, int64_t high, int64_t low,
    int64_t *tag_lines, uint8_t *tag_dirty, int64_t *n_tags,
    const int64_t *r_ids, const int64_t *c_ids, int64_t n_ids,
    const int64_t *chunks, int64_t n_chunks, int64_t sddmm,
    int64_t r_base, int64_t c_base, int64_t stride, int64_t out_base,
    const int64_t *sparse, int64_t lpr, int64_t cadence,
    const int64_t *ops,
    int64_t *t_lines, int64_t *t_ops, int64_t t_pos, int64_t t_cap,
    int64_t *segs, int64_t *counters)
{
    const int64_t op_r = ops[0], op_c = ops[1], op_sparse = ops[3];
    /* Pass 1: check the chunk table, the output starts and the ids;
       then the keep flags, and from them a bound on the trace. */
    int64_t n = 0, n_sparse = 0;
    for (int64_t k = 0; k < n_chunks; k++) {
        int64_t off = chunks[3 * k], cnt = chunks[3 * k + 1];
        if (off < 0 || cnt < 0 || off > n_ids - cnt)
            return ERR_CHUNK;
        n += cnt;
        n_sparse += sparse[6 * k + 1] + sparse[6 * k + 3]
                    + sparse[6 * k + 5];
    }
    if (sddmm)
        for (int64_t k = 0; k < n_chunks; k++)
            if (chunks[3 * k + 2] < 0)
                return ERR_OUT;
    if (check_ids(r_ids, chunks, n_chunks, r_base, stride, lpr)
        || check_ids(c_ids, chunks, n_chunks, c_base, stride, lpr))
        return ERR_LINE;

    /* Equal ids give equal lines (stride >= 1), so the runs are found
       on the ids.  For the bound: each walked touch with a load op
       loads at most once; each store cleans a dirty flag, set by a
       walked dirty touch or carried in. */
    uint8_t *keep = calloc((size_t)(n ? n : 1), 1);
    if (!keep)
        return ERR_ALLOC;
    {
        Run rr = {0, 0}, ro = {0, 0};
        int64_t i = 0;
        for (int64_t k = 0; k < n_chunks; k++) {
            const int64_t *rp = r_ids + chunks[3 * k];
            int64_t os = sddmm ? chunks[3 * k + 2] : 0;
            for (int64_t j = 0; j < chunks[3 * k + 1]; j++, i++) {
                mark(keep, KEEP_R, i, rp[j], &rr, cadence);
                if (sddmm)
                    mark(keep, KEEP_OUT, i, (os + j) / OUT_VALS_PER_LINE,
                         &ro, cadence);
            }
        }
        if (n)
            keep[n - 1] = KEEP_R | KEEP_OUT;
    }
    int64_t kept_r = 0, kept_out = 0;
    for (int64_t i = 0; i < n; i++) {
        kept_r += keep[i] & KEEP_R;
        kept_out += (keep[i] & KEEP_OUT) != 0;
    }
    int64_t need = t_pos + n_sparse + lpr * (kept_r + n)
                   + (sddmm ? kept_out : lpr * kept_r) + counters[5];
    if (need > t_cap) {
        counters[6] = need;
        free(keep);
        return ERR_ROOM;
    }

    /* Pass 2: the walk. */
    Vrf v = {0};
    uint64_t tsize = 64;
    int bits = 6;
    /* A sparse table (at most 1/32 full) keeps nearly every probe and
       removal to one slot: on the benchmark's SDDMM workload (x86-64,
       gcc 12 -O3) the walks take 28-31 ms per kernel call against
       61-63 ms half full, for 8 KiB at 64 registers. */
    while (tsize < 32 * (uint64_t)cap) {
        tsize <<= 1;
        bits++;
    }
    v.node = malloc((size_t)cap * sizeof(Node));
    v.slot = calloc((size_t)tsize, sizeof(int32_t));
    if (!v.node || !v.slot) {
        free(v.node);
        free(v.slot);
        free(keep);
        return ERR_ALLOC;
    }
    v.mask = tsize - 1;
    v.shift = 64 - bits;
    v.head = v.tail = -1;
    v.cap = cap;
    v.high = high;
    v.low = low;
    v.dc = counters[5];
    v.op_store = ops[2];
    v.t_lines = t_lines;
    v.t_ops = t_ops;
    v.t = t_pos;
    v.t_cap = t_cap;
    for (int32_t x = 0; x < *n_tags; x++) {
        v.node[x].line = tag_lines[x];
        v.node[x].dirty = tag_dirty[x];
        list_append(&v, x);
        v.slot[probe(&v, tag_lines[x])] = x + 1;
    }
    v.size = *n_tags;

    int64_t i = 0;
    for (int64_t k = 0; k < n_chunks; k++) {
        segs[2 * k] = v.t;
        for (int s = 0; s < 3; s++) {
            int64_t first = sparse[6 * k + 2 * s];
            for (int64_t l = 0; l < sparse[6 * k + 2 * s + 1]; l++)
                emit(&v, first + l, op_sparse);
        }
        const int64_t *rp = r_ids + chunks[3 * k];
        const int64_t *cp = c_ids + chunks[3 * k];
        int64_t os = sddmm ? chunks[3 * k + 2] : 0;
        for (int64_t j = 0; j < chunks[3 * k + 1]; j++, i++) {
            int64_t r = r_base + rp[j] * stride;
            int64_t c = c_base + cp[j] * stride;
            uint8_t kept = keep[i];
            for (int64_t l = 0; l < lpr; l++) {
                if (kept & KEEP_R)
                    touch(&v, r + l, !sddmm, op_r);
                else
                    v.hits++;
                touch(&v, c + l, 0, op_c);
            }
            if (sddmm) {
                if (kept & KEEP_OUT)
                    touch(&v, out_base + (os + j) / OUT_VALS_PER_LINE, 1,
                          -1);
                else
                    v.hits++;
            }
        }
        segs[2 * k + 1] = v.t;
    }
    free(keep);

    if (v.t > t_cap) {
        free(v.node);
        free(v.slot);
        return ERR_OVERFLOW;
    }
    int64_t k = 0;
    for (int32_t y = v.head; y >= 0; y = v.node[y].next, k++) {
        tag_lines[k] = v.node[y].line;
        tag_dirty[k] = v.node[y].dirty;
    }
    *n_tags = k;
    counters[0] = v.hits;
    counters[1] = v.misses;
    counters[2] = v.evc;
    counters[3] = v.evw;
    counters[4] = v.mwb;
    counters[5] = v.dc;
    free(v.node);
    free(v.slot);
    return v.t;
}
