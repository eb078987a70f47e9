"""The float LLL of a whole stack, as compiled C.

`SOURCE` is one C function that reduces every lane of a C-contiguous
(M, m, m) float64 stack (m <= lattice.MAX_DIM) with the IEEE-double
operations of `lattice._lll`, in their order: every dot product is 0.0 + a0
z0 + a1 z1 + ..., summed left to right; q = nearbyint(mu) rounds half to
even, as round() does; the Lovasz test at delta is `_lll`'s, and row 0,
which `_lll` recomputes at the stage after a swap at k = 1, is recomputed
at that swap. Compiled with -ffp-contract=off and no -ffast-math, so that
no product is fused into an FMA and no sum is reordered, it returns `_lll`'s
bits of the reduced columns, mu and norms, and its transform U as int64.
A lane's status is nonzero where `_lll` raises: past max_steps stages (1),
at a division by a zero norm (2) or the rounding of a non-finite mu (3); it
is 4 where U left int64 (|q| >= 2^63, or an update overflowed), and `_lll`
gives that lane's U.

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
leaves no library that loads: `_lll` then reduces every lane.
"""

import ctypes
import os
import re
import sys
from hashlib import sha256

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


def load():
    """(reduce_stack, path): the library of `library_path()`, compiled
    first if it is not there, and its stack reduction as
    reduce_stack(cols, delta, max_steps) -> (b, u, mu, norms, status,
    first), u the int64 transforms and first the lowest lane with a status
    from 1 to 3, or -1; it refuses a stack
    that is not (M, m, m) with 1 <= m <= MAX_DIM (ValueError) before the
    library reads it. Raises Unusable."""
    path = library_path()
    if not os.path.exists(path):
        try:
            _compile(path)
        except OSError as exc:
            raise Unusable(f"cannot write the library into the cache: {exc}") from None
    try:
        fn = ctypes.CDLL(path).danilab_lll_stack
    except (OSError, AttributeError) as exc:
        raise Unusable(f"cannot load {path}: {exc}") from None
    pointer = ctypes.c_void_p
    fn.argtypes = (pointer, ctypes.c_long, ctypes.c_int, ctypes.c_double, ctypes.c_long,
                   pointer, pointer, pointer, pointer, pointer)
    fn.restype = ctypes.c_long

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
        first = fn(cols.ctypes.data, size, m, delta, max_steps, b.ctypes.data, mu.ctypes.data,
                   norms.ctypes.data, u.ctypes.data, status.ctypes.data)
        return b, u, mu, norms, status, first

    return reduce_stack, path
