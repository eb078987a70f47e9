"""The float LLL and the float walk of a whole stack, as compiled C.

`SOURCE` holds two C functions, compiled with -ffp-contract=off and no
-ffast-math, so that no product is fused into an FMA and no sum is
reordered: each does the IEEE-double operations of its Python twin in
`lattice`, in their order, and so returns its bits.

`danilab_lll_stack` reduces every lane of a C-contiguous (M, m, m) float64
stack (m <= lattice.MAX_DIM) as `lattice._lll` does: every dot product is
0.0 + a0 z0 + a1 z1 + ..., summed left to right; q = nearbyint(mu) rounds
half to even, as round() does; the Lovasz test at delta is `_lll`'s, and
row 0, which `_lll` recomputes at the stage after a swap at k = 1, is
recomputed at that swap. It returns the reduced columns, mu and norms, and
the transform U as int64. A lane's status is nonzero where `_lll` raises:
past max_steps stages (1), at a division by a zero norm (2) or the rounding
of a non-finite mu (3); it is 4 where U left int64 (|q| >= 2^63, or an
update overflowed), and `_lll` gives that lane's U.

`danilab_walk_stack` walks every lane of the reductions (b, mu, norms)
within its limit (r2 (1 + _FLOAT_SLACK), computed by the caller) as
`lattice._walk_lane` walks it, line for line, and answers one query from
its leaves as `lattice._answer` does; a lane the walk drops answers with
the node-budget error, whatever leaves it saw. A lane whose every norm
exceeds the limit is skipped, with no leaf. The others are walked depth
first, every lane to its end, from level m - 1 down to 0, and at each node
of level j:
  the center ctr = -(0.0 + c_{j+1} mu[j+1][j] + ... + c_{m-1} mu[m-1][j]),
  summed upward in i, the coefficients above counted zero or not;
  the window lo ... lo + size - 1, lo = mid - half and size = mid + half -
  lo + 1 (0 if negative) for mid = nearbyint(ctr) and half = floor(sqrt((limit
  - partial) / norms[j]) + 0.5) + 1, except lo = 0 (1 at level 0) while every
  coefficient above is zero; a window with !(size <= 2^62) drops the lane;
  each c = lo + k of the window, in order, is a node iff partial + (d d)
  norms[j] <= limit for d = c - ctr, and a node past max_nodes drops the
  lane;
  a leaf (a node at level 0) is v = (0.0 + c_{m-1} b_{m-1} + ... + c_1 b_1)
  + c_0 b_0, coordinate by coordinate.

The library is compiled with the C compiler Python was built with
(sysconfig's CC, else cc) into the user's cache, $XDG_CACHE_HOME/danilab
(~/.cache/danilab by default), made with mode 0700 and refused if another
user owns it or if it is group- or world-writable. Its file name is the
SHA-256 of the source, the flags and the platform, so a changed source never
loads a stale library; it is written under a temporary name and moved into
place, so a concurrent process never loads half a file, and the libraries
of other sources or flags are then removed. Only the first process pays the
compile; `subprocess`, `sysconfig` and `tempfile` are imported only then. A
platform whose double arithmetic keeps excess precision (FLT_EVAL_METHOD
not 0, as on x87) fails to compile, and a compiler without the checked
integer builtins (`__builtin_mul_overflow`, in GCC since 5 and in Clang)
leaves no library that loads: `_lll` then reduces every lane and
`_walk_lane` walks each.
"""

import ctypes
import os
import re
import sys
from hashlib import sha256
from typing import Callable, NamedTuple

import numpy as np

from .lattice import MAX_DIM


SOURCE = f"""
#include <float.h>
#include <math.h>
#include <stdint.h>

#define MAX_DIM {MAX_DIM}
""" + r"""
/* Each product and sum rounded to double, as in Python: not where they are
   kept in a wider format (x87, FLT_EVAL_METHOD 2). */
#if FLT_EVAL_METHOD != 0
#error "double arithmetic with excess precision"
#endif

/* Lane `in` (m x m, row-major: coordinate c of column j at in[c m + j]) as
   lattice._lll reduces it: column j of the result at b[j m + c], mu[i m + j]
   (zero on and above the diagonal), norms[i] and column j of U at
   u[j m + i]. Returns 0; the status of the first step _lll would raise at;
   or 4 when U left int64, and u is then not U. */
static inline __attribute__((always_inline)) int
reduce_lane(int m, const double *in, double delta, long max_steps, double *bo,
            double *muo, double *no, int64_t *uo)
{
    double b[MAX_DIM][MAX_DIM], z[MAX_DIM][MAX_DIM], mu[MAX_DIM][MAX_DIM];
    double n[MAX_DIM], a[MAX_DIM], t[MAX_DIM], s, x, q;
    int64_t u[MAX_DIM][MAX_DIM], w, p;
    int i, j, c, k = 1, wide = 0;
    long steps = 0;
    for (j = 0; j < m; j++)
        for (c = 0; c < m; c++) {
            b[j][c] = in[c * m + j];
            mu[j][c] = 0.0;
            u[j][c] = j == c;
        }
    s = 0.0;
    for (c = 0; c < m; c++) {
        z[0][c] = b[0][c];
        s = s + z[0][c] * z[0][c];
    }
    n[0] = s;
    while (k < m) {
        if (++steps > max_steps)
            return 1;
        for (c = 0; c < m; c++)
            a[c] = z[k][c] = b[k][c];
        for (j = 0; j < k; j++) {
            s = 0.0;
            for (c = 0; c < m; c++)
                s = s + a[c] * z[j][c];
            if (n[j] == 0.0)
                return 2;
            x = mu[k][j] = s / n[j];
            for (c = 0; c < m; c++)
                z[k][c] = z[k][c] - x * z[j][c];
        }
        s = 0.0;
        for (c = 0; c < m; c++)
            s = s + z[k][c] * z[k][c];
        n[k] = s;
        for (j = k - 1; j >= 0; j--) {
            x = mu[k][j];
            if (!(-0.5 <= x && x <= 0.5)) {
                if (!isfinite(x))
                    return 3;
                q = nearbyint(x);
                for (c = 0; c < m; c++)
                    a[c] = a[c] - q * b[j][c];
                for (c = 0; c < m; c++)
                    b[k][c] = a[c];
                for (i = 0; i < j; i++)
                    mu[k][i] = mu[k][i] - q * mu[j][i];
                mu[k][j] = x - q;
                /* u_k -= q u_j in int64 while every step fits */
                wide = wide || !(fabs(q) < 0x1p63);
                for (c = 0; c < m && !wide; c++)
                    wide = __builtin_mul_overflow((int64_t)q, u[j][c], &p)
                           || __builtin_sub_overflow(u[k][c], p, &u[k][c]);
            }
        }
        x = mu[k][k - 1];
        if (n[k] >= (delta - x * x) * n[k - 1]) {
            k++;
        } else {
            for (c = 0; c < m; c++) {
                t[c] = b[k - 1][c];
                b[k - 1][c] = b[k][c];
                b[k][c] = t[c];
                w = u[k - 1][c];
                u[k - 1][c] = u[k][c];
                u[k][c] = w;
            }
            if (k == 1) {
                s = 0.0;
                for (c = 0; c < m; c++) {
                    z[0][c] = b[0][c];
                    s = s + z[0][c] * z[0][c];
                }
                n[0] = s;
            } else {
                k--;
            }
        }
    }
    for (i = 0; i < m; i++) {
        no[i] = n[i];
        for (c = 0; c < m; c++) {
            bo[i * m + c] = b[i][c];
            muo[i * m + c] = mu[i][c];
            uo[i * m + c] = u[i][c];
        }
    }
    return wide ? 4 : 0;
}

/* Every lane of the stack (1 <= m <= MAX_DIM); returns the lowest lane that
   _lll refuses (status 1 to 3), or -1. Each m has its own copy of the lane
   loop, in which reduce_lane's coordinate loops have a constant length. */
#define LANES(M)                                                            \
    for (lane = 0; lane < lanes; lane++) {                                  \
        status[lane] = reduce_lane(M, cols + lane * mm, delta, max_steps,   \
                                   b + lane * mm, mu + lane * mm,           \
                                   norms + lane * M, u + lane * mm);        \
        if (status[lane] && status[lane] < 4 && first < 0)                  \
            first = lane;                                                   \
    }                                                                       \
    break;

long danilab_lll_stack(const double *cols, long lanes, int m, double delta,
                       long max_steps, double *b, double *mu, double *norms,
                       int64_t *u, int *status)
{
    long lane, first = -1, mm = (long)m * m;
    switch (m) {
""" + "".join(f"    case {m}: LANES({m})\n" for m in range(1, MAX_DIM + 1)) + r"""    }
    return first;
}

/* The walk of one lane's reduction (b[j m + c]: coordinate c of column j;
   mu[i m + j]; norms[j]) as lattice._walk_lane walks it, line for line:
   depth first, every level's window tried in full. query 0 counts the
   leaves with every |v_c| <= bound[c] into *hits; query 1 those with every
   |v_c| < bound[0]; query 2 keeps the least sup-norm among the leaves with
   sup-norm <= bound[0], and their number in *hits, the coefficients of the
   first `room` of them in ties (m doubles each). Returns 1 where _walk_lane
   drops the lane: past max_nodes nodes, or at a window of no finite size. */
static inline __attribute__((always_inline)) int
walk_lane(int m, const double *b, const double *mu, const double *norms, double limit,
          int query, const double *bound, long max_nodes, int64_t *hits, double *ties,
          int64_t room)
{
    double c[MAX_DIM], ctr[MAX_DIM], lo[MAX_DIM], part[MAX_DIM + 1];
    double vec[MAX_DIM + 1][MAX_DIM], s, x, d, cj, best = INFINITY;
    int64_t size[MAX_DIM], next[MAX_DIM], nodes = 0, n = 0;
    int top[MAX_DIM + 1], i, j, k, in;
    *hits = 0;
    for (j = 0; j < m && norms[j] > limit; j++)
        ;
    if (j == m)  /* every norm above the limit: no leaf */
        return 0;
    part[m] = 0.0;
    top[m] = 1;
    for (k = 0; k < m; k++)
        vec[m][k] = 0.0;
    j = m - 1;
    for (;;) {
        /* level j under the node above: its center and window */
        s = 0.0;
        for (i = j + 1; i < m; i++)
            s = s + c[i] * mu[i * m + j];
        ctr[j] = -s;
        x = nearbyint(ctr[j]);
        d = floor(sqrt((limit - part[j + 1]) / norms[j]) + 0.5) + 1;
        lo[j] = top[j + 1] ? (double)(j == 0) : x - d;
        x = x + d - lo[j] + 1;
        if (!(x <= 0x1p62))
            return 1;
        size[j] = x > 0 ? (int64_t)x : 0;
        next[j] = 0;
        /* the next node of level j (a leaf at j = 0), or up once it is done */
        for (;;) {
            if (next[j] == size[j]) {
                if (++j == m) {
                    *hits = n;
                    return 0;
                }
                continue;
            }
            cj = lo[j] + (double)next[j]++;
            d = cj - ctr[j];
            x = part[j + 1] + d * d * norms[j];
            if (!(x <= limit))
                continue;
            if (++nodes > max_nodes)
                return 1;
            if (j) {
                c[j] = cj;
                part[j] = x;
                top[j] = top[j + 1] && cj == 0;
                for (k = 0; k < m; k++)
                    vec[j][k] = vec[j + 1][k] + cj * b[j * m + k];
                j--;
                break;
            }
            in = 1;
            s = 0.0;  /* the sup-norm: nan if a coordinate is */
            for (k = 0; k < m; k++) {
                x = fabs(vec[1][k] + cj * b[k]);
                if (query == 0)
                    in = in && x <= bound[k];
                else if (query == 1)
                    in = in && x < bound[0];
                else
                    s = x > s || x != x ? x : s;
            }
            if (query < 2) {
                n += in;
            } else if (s <= bound[0]) {
                if (s < best) {
                    best = s;
                    n = 0;
                }
                if (s == best && n++ < room) {
                    c[0] = cj;
                    for (k = 0; k < m; k++)
                        ties[(n - 1) * m + k] = c[k];
                }
            }
        }
    }
}

/* Every lane of the stack (1 <= m <= MAX_DIM), walked within limit[lane]:
   dropped[lane] is walk_lane's return and hits[lane] its count. Query 2
   reads bound[lane] and writes a lane's ties after the last lane's, from
   ties[first[lane] m] on, while they fit in cap rows; first[lane] is -1
   where they do not. */
#define WALKS(M)                                                            \
    for (lane = 0; lane < lanes; lane++) {                                  \
        room = query == 2 ? cap - used : 0;                                 \
        dropped[lane] = walk_lane(M, b + lane * mm, mu + lane * mm,         \
                                  norms + lane * M, limit[lane], query,     \
                                  query == 2 ? bound + lane : bound,        \
                                  max_nodes, hits + lane,                   \
                                  query == 2 ? ties + used * M : ties,      \
                                  room);                                    \
        first[lane] = hits[lane] <= room ? used : -1;                       \
        if (query == 2 && !dropped[lane] && first[lane] >= 0)              \
            used += hits[lane];                                             \
    }                                                                       \
    break;

void danilab_walk_stack(const double *b, const double *mu, const double *norms, long lanes,
                        int m, const double *limit, int query, const double *bound,
                        long max_nodes, int64_t *hits, int *dropped, double *ties,
                        long cap, int64_t *first)
{
    long lane, mm = (long)m * m;
    int64_t used = 0, room;
    switch (m) {
""" + "".join(f"    case {m}: WALKS({m})\n" for m in range(1, MAX_DIM + 1)) + r"""    }
}
"""

# -ffp-contract=off: no a * b + c fused into one rounding; no -ffast-math,
# which would reorder the sums and drop the signed zeros of 0.0 + x.
FLAGS = ("-O2", "-std=c99", "-ffp-contract=off", "-shared", "-fPIC")


class Unusable(Exception):
    """Why this process reduces float stacks with the Python `_lll`."""


def cache_dir() -> str:
    """$XDG_CACHE_HOME/danilab (~/.cache/danilab when that is unset or not
    absolute), made with mode 0700; refused if another user owns it or if
    it is group- or world-writable."""
    if os.name != "posix":
        raise Unusable(f"no cache on {os.name}: the library is built for POSIX systems")
    root = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(root):
        root = os.path.join(os.path.expanduser("~"), ".cache")
        if not os.path.isabs(root):
            raise Unusable("no home directory for the cache")
    path = os.path.join(root, "danilab")
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        info = os.stat(path)
    except OSError as exc:
        raise Unusable(f"no cache directory: {exc}") from None
    if info.st_uid != os.getuid():
        raise Unusable(f"cache {path} is owned by another user")
    if info.st_mode & 0o022:
        raise Unusable(f"cache {path} is group- or world-writable")
    return path


# A library's file name: the hex SHA-256 of `library_path`.
_LIBRARY = re.compile(r"[0-9a-f]{64}\.so")


def library_path() -> str:
    """The library's file in `cache_dir()`, named by the SHA-256 of the
    source, the flags and the platform."""
    folder = cache_dir()
    key = "\0".join([SOURCE, *FLAGS, sys.platform, os.uname().machine])
    return os.path.join(folder, sha256(key.encode()).hexdigest() + ".so")


def _compile(path: str) -> None:
    """Compile SOURCE into path, through a temporary file moved into place,
    and remove the cache's libraries of other sources or flags. (A process
    that has one of them loaded keeps it: on POSIX, removing a file leaves
    an open mapping of it.)"""
    import shlex
    import subprocess
    import sysconfig
    import tempfile

    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    folder = os.path.dirname(path)
    fd, source = tempfile.mkstemp(suffix=".c", dir=folder)
    target = source[:-2] + ".so"
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(SOURCE)
        try:
            proc = subprocess.run([*cc, *FLAGS, "-o", target, source, "-lm"],
                                  capture_output=True, text=True)
        except OSError as exc:
            raise Unusable(f"no C compiler ({cc[0]}: {exc.strerror})") from None
        if proc.returncode:
            lines = proc.stderr.strip().splitlines() or [f"exit status {proc.returncode}"]
            error = next((line for line in lines if "error" in line), lines[-1])
            raise Unusable(f"{cc[0]} failed: {error}")
        os.replace(target, path)
        for name in os.listdir(folder):  # the libraries of other sources or flags
            if _LIBRARY.fullmatch(name) and name != os.path.basename(path):
                try:
                    os.remove(os.path.join(folder, name))
                except FileNotFoundError:  # removed by another process first
                    pass
    finally:
        for name in (source, target):
            if os.path.exists(name):
                os.remove(name)


class Library(NamedTuple):
    """The library's two entry points, as `load` wraps them."""
    lll: Callable
    walk: Callable


# The walk's queries, by their code in danilab_walk_stack.
QUERIES = ("box", "ball", "shortest")


def load():
    """(library, path): the `Library` of `library_path()`, compiled first
    if it is not there. Raises Unusable.

    library.lll(cols, delta, max_steps) -> (b, u, mu, norms, status, first)
    reduces an (M, m, m) stack: u holds the int64 transforms and first is
    the lowest lane with a status from 1 to 3, or -1.

    library.walk(b, mu, norms, limit, query, bound, max_nodes) -> (found,
    dropped) walks every lane of the reductions (b, mu, norms) within its
    limit[lane]: found holds `lattice._walk`'s answers to the query (an
    int64 array for "box" and "ball"), in no set order for "shortest", and
    dropped is the bool mask of the lanes the walk drops.

    Both refuse arrays of other shapes, or m outside 1...MAX_DIM
    (ValueError), before the library reads them."""
    path = library_path()
    if not os.path.exists(path):
        try:
            _compile(path)
        except OSError as exc:
            raise Unusable(f"cannot write the library into the cache: {exc}") from None
    try:
        lib = ctypes.CDLL(path)
        lll, walk = lib.danilab_lll_stack, lib.danilab_walk_stack
    except (OSError, AttributeError) as exc:
        raise Unusable(f"cannot load {path}: {exc}") from None
    pointer, long = ctypes.c_void_p, ctypes.c_long
    lll.argtypes = (pointer, long, ctypes.c_int, ctypes.c_double, long,
                    pointer, pointer, pointer, pointer, pointer)
    lll.restype = long
    walk.argtypes = (pointer, pointer, pointer, long, ctypes.c_int, pointer, ctypes.c_int,
                     pointer, long, pointer, pointer, pointer, long, pointer)
    walk.restype = None

    def reduce_stack(cols: np.ndarray, delta: float, max_steps: int):
        size, m, k = cols.shape
        if not 1 <= m == k <= MAX_DIM:
            raise ValueError(f"the stack LLL needs (M, m, m) with 1 <= m <= {MAX_DIM}, "
                             f"got {cols.shape}")
        cols = np.ascontiguousarray(cols, dtype=np.float64)
        b = np.empty((size, m, m))
        mu = np.empty((size, m, m))
        norms = np.empty((size, m))
        u = np.empty((size, m, m), dtype=np.int64)
        status = np.empty(size, dtype=np.intc)
        first = lll(cols.ctypes.data, size, m, delta, max_steps, b.ctypes.data, mu.ctypes.data,
                    norms.ctypes.data, u.ctypes.data, status.ctypes.data)
        return b, u, mu, norms, status, first

    def walk_lanes(b, mu, norms, limit, query, bound, max_nodes, cap):
        """(hits, dropped, first, ties) of one library call on C-contiguous
        float64 arrays, with room for cap ties."""
        size, m = norms.shape
        hits = np.empty(size, dtype=np.int64)
        dropped = np.empty(size, dtype=np.intc)
        first = np.empty(size, dtype=np.int64)
        ties = np.zeros((cap, m))  # the rows no lane fills are read as ints too
        walk(b.ctypes.data, mu.ctypes.data, norms.ctypes.data, size, m, limit.ctypes.data,
             QUERIES.index(query), bound.ctypes.data, max_nodes, hits.ctypes.data,
             dropped.ctypes.data, ties.ctypes.data, cap, first.ctypes.data)
        return hits, dropped.astype(bool), first, ties

    def walk_stack(b, mu, norms, limit, query, bound, max_nodes):
        b, mu, norms, limit, bound = (np.ascontiguousarray(x, dtype=np.float64)
                                      for x in (b, mu, norms, limit, bound))
        size, m = norms.shape
        want = {"box": (m,), "ball": (1,), "shortest": (size,)}[query]
        if (not 1 <= m <= MAX_DIM or not b.shape == mu.shape == (size, m, m)
                or limit.shape != (size,) or bound.shape != want):
            raise ValueError(f"the stack walk needs (M, m, m) reductions with 1 <= m <= "
                             f"{MAX_DIM}, M limits and {want} bounds, got {b.shape}, "
                             f"{mu.shape}, {norms.shape}, {limit.shape} and {bound.shape}")
        if query != "shortest":
            hits, dropped, _, _ = walk_lanes(b, mu, norms, limit, query, bound, max_nodes, 0)
            return hits, dropped
        # room for one tie per lane first; a lane with more walks again, with room for all
        hits, dropped, first, ties = walk_lanes(b, mu, norms, limit, query, bound, max_nodes,
                                                size)
        ties = ties.astype(np.int64).tolist()
        found = [ties[i:i + h] for i, h in zip(first.tolist(), hits.tolist())]
        redo = np.flatnonzero((first < 0) & ~dropped)
        if redo.size:
            more, _, at, ties = walk_lanes(b[redo], mu[redo], norms[redo], limit[redo], query,
                                           bound[redo], max_nodes, int(hits[redo].sum()))
            ties = ties.astype(np.int64).tolist()
            for lane, i, h in zip(redo.tolist(), at.tolist(), more.tolist()):
                found[lane] = ties[i:i + h]
        return found, dropped

    return Library(reduce_stack, walk_stack), path
