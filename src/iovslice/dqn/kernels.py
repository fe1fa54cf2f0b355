"""Loader of the learner's compiled kernels (`_kernels.c`).

`library()` compiles `_kernels.c` with the C compiler the interpreter was
built with (sysconfig's CC) and loads it through ctypes, at most once per
process, on the first network pass, Adam step or replay operation. The
library is kept in CACHE_DIR under `cache_key`, a digest of the source,
FLAGS and the compiler command, so a later process with the same three
loads it instead of compiling; where that directory cannot be written or
its library does not load, the build goes to a temporary directory that
is deleted once the library is mapped. A build also deletes the cached
libraries older than MAX_AGE_S (`_load` says why that bounds the cache).
`library()` returns the bound library, or None where the compiler is
missing or the build fails: then `Adam` and `SumTree` take their numpy and
memoryview path. `blas()` is that library once numpy's own cblas routines
are bound into it, resolved once through the handle of numpy's
`_multiarray_umath` (which links scipy-openblas64, ILP64, as `BLAS_SYMBOLS`
name them), or None where either is missing: then `DuelingQNetwork` runs
its numpy passes. Each caller takes one input form on both of its paths
and refuses any other alike, so nothing but the build's and the lookup's
outcomes picks a path; `_kernels.c`'s header says why every path writes
the same bytes.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import tempfile
import time
from pathlib import Path

SOURCE = Path(__file__).with_name("_kernels.c")
# fixed flags; `_kernels.c`'s header says why each is there and what is absent
FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off", "-fno-math-errno")


def _user_cache() -> Path | None:
    """The user cache directory of the XDG base directory convention, or
    None where neither it nor a home directory is an absolute path."""
    for base in (os.environ.get("XDG_CACHE_HOME", ""), os.path.expanduser("~/.cache")):
        if os.path.isabs(base):
            return Path(base) / "iovslice"
    return None


# where built libraries are kept, one file per `cache_key`; None: nowhere
CACHE_DIR = _user_cache()
# a cached library no process has loaded for this long goes at the next build
MAX_AGE_S = 30 * 24 * 3600

# numpy's cblas_dgemm, cblas_dgemv and cblas_ddot, in `blas_bind`'s order
BLAS_SYMBOLS = ("scipy_cblas_dgemm64_", "scipy_cblas_dgemv64_", "scipy_cblas_ddot64_")

_UNSET = object()
_handle: ctypes.CDLL | None | object = _UNSET  # the one build's outcome
_blas: bool | object = _UNSET  # whether the one lookup bound numpy's BLAS

_P = ctypes.c_void_p
_N = ctypes.c_int64
_F = ctypes.c_double
_SIGNATURES = {
    "adam_step": (None, [_P, _P, _P, _P, _N, _F, _F, _F, _F, _F, _F, _F, _F]),
    "tree_find_many": (None, [_P, _N, _P, _F, _N, _N, _P, _P]),
    "tree_set_many": (_N, [_P, _N, _P, _P, _N]),
    "blas_bind": (None, [_P, _P, _P]),
    "dueling_scratch_size": (_N, [_P]),
    "dueling_forward": (None, [_P, _N]),
    "dueling_greedy": (_N, [_P]),
    "dueling_loss_and_grads": (_N, [_P, _N, _F, _P]),
}


class Net(ctypes.Structure):
    """`struct net` of `_kernels.c`: a network's dims, parameters and buffers."""

    _fields_ = [
        ("n_hidden", _N),
        ("dims", _P),
        ("params", _P),
        ("rows", _N),
        ("x", _P),
        ("q", _P),
        ("actions", _P),
        ("targets", _P),
        ("weights", _P),
        ("abs_delta", _P),
        ("loss", _F),
        ("scratch", _P),
    ]


def library() -> ctypes.CDLL | None:
    """The kernels, built on the first call; None where they cannot be built."""
    global _handle
    if _handle is _UNSET:
        _handle = _build()
    return _handle


def blas() -> ctypes.CDLL | None:
    """`library()` with numpy's BLAS bound into it, for the network's
    passes; None where the kernels or numpy's entry points are missing."""
    global _blas
    lib = library()
    if lib is None:
        return None
    if _blas is _UNSET:
        functions = [_numpy_function(name) for name in BLAS_SYMBOLS]
        _blas = None not in functions
        if _blas:
            lib.blas_bind(*(ctypes.cast(fn, _P).value for fn in functions))
    return lib if _blas else None


def _numpy_function(name: str) -> ctypes._CFuncPtr | None:
    """The function `name` that numpy's `_multiarray_umath` exports, found
    through the loaded module's handle; None where it exports none."""
    try:
        from numpy._core import _multiarray_umath

        return getattr(ctypes.CDLL(_multiarray_umath.__file__), name)
    except (ImportError, OSError, AttributeError):
        return None


def openblas_config() -> str | None:
    """The configuration of the OpenBLAS numpy calls, which names the CPU
    kernel it dispatched to here (that kernel decides the training bytes;
    `np.show_config` names the build machine's); None where numpy is not
    built on the ILP64 scipy-openblas."""
    if (get_config := _numpy_function("scipy_openblas_get_config64_")) is None:
        return None
    get_config.restype = ctypes.c_char_p
    return get_config().decode()


def compiler() -> list[str]:
    """The interpreter's C compiler command, empty where it names none."""
    import shlex
    import sysconfig

    return shlex.split(sysconfig.get_config_var("CC") or "")


def cache_key(cc: list[str]) -> str:
    """The name of the library built from today's `SOURCE` with `FLAGS` by
    the compiler command `cc`: a digest of the three."""
    digest = hashlib.sha256(SOURCE.read_bytes())
    digest.update(repr((FLAGS, cc)).encode())
    return digest.hexdigest()[:20]


def _build() -> ctypes.CDLL | None:
    import subprocess  # imported here, so commands that never build the kernels do not pay for it

    cc = compiler()
    if not cc or not SOURCE.is_file():
        return None
    name = f"_kernels-{cache_key(cc)}.so"
    try:
        try:
            lib = _load(CACHE_DIR, name, cc)
        except OSError:  # no cache directory, an unwritable one, or a library that does not load
            with tempfile.TemporaryDirectory(prefix="iovslice-kernels-") as tmp:
                lib = _load(Path(tmp), name, cc)  # mapped now, so the directory can go
    except (OSError, subprocess.SubprocessError):
        return None
    for fn_name, (restype, argtypes) in _SIGNATURES.items():
        fn = getattr(lib, fn_name)
        fn.restype, fn.argtypes = restype, argtypes
    return lib


def _load(directory: Path | None, name: str, cc: list[str]) -> ctypes.CDLL:
    """The library `name` in `directory`, compiled by `cc` into a temporary
    file there and renamed into place first where it is missing, so another
    process sees the whole library or none. Each load refreshes the file's
    modification time, and a build then deletes the libraries beside it
    older than MAX_AGE_S: a key no source makes any more ages out, while a
    library some checkout still loads never does. Age alone decides, never
    the key, so two checkouts of different sources keep each other's."""
    import subprocess

    if directory is None:
        raise FileNotFoundError("no directory to build the kernels in")
    path = directory / name
    if path.is_file():
        with contextlib.suppress(OSError):  # a cache another user owns still serves
            os.utime(path)
    else:
        directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=".build-", suffix=".so", dir=directory)
        os.close(fd)
        try:
            subprocess.run([*cc, *FLAGS, str(SOURCE), "-o", tmp, "-lm"], capture_output=True, check=True, timeout=120)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        cutoff = time.time() - MAX_AGE_S
        for old in directory.glob("_kernels-*.so"):
            with contextlib.suppress(OSError):  # gone already, or not ours to delete
                if old.stat().st_mtime < cutoff:
                    old.unlink()
    return ctypes.CDLL(str(path))
