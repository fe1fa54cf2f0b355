"""Loader of the learner's compiled kernels (`_kernels.c`).

`library()` compiles `_kernels.c` with the C compiler the interpreter was
built with (sysconfig's CC) into a temporary directory, loads it through
ctypes and deletes the directory. It does so at most once per process, on
the first Adam step or replay operation, and returns the bound library, or
None where the compiler is missing or the build fails: then `Adam` and
`SumTree` take their numpy and memoryview path. Nothing but the build's
outcome picks the path; `_kernels.c`'s header says why both paths write the
same bytes.
"""

from __future__ import annotations

import ctypes
import tempfile
from pathlib import Path

SOURCE = Path(__file__).with_name("_kernels.c")
# fixed flags; `_kernels.c`'s header says why each is there and what is absent
FLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off", "-fno-math-errno")

_UNSET = object()
_handle: ctypes.CDLL | None | object = _UNSET  # the one build's outcome

_P = ctypes.c_void_p
_N = ctypes.c_int64
_F = ctypes.c_double
_SIGNATURES = {
    "adam_step": (None, [_P, _P, _P, _P, _N, _F, _F, _F, _F, _F, _F, _F, _F]),
    "tree_find_many": (None, [_P, _N, _P, _F, _N, _N, _P, _P]),
    "tree_set_many": (_N, [_P, _N, _P, _P, _N]),
}


def library() -> ctypes.CDLL | None:
    """The kernels, built on the first call; None where they cannot be built."""
    global _handle
    if _handle is _UNSET:
        _handle = _build()
    return _handle


def compiler() -> list[str]:
    """The interpreter's C compiler command, empty where it names none."""
    import shlex
    import sysconfig

    return shlex.split(sysconfig.get_config_var("CC") or "")


def _build() -> ctypes.CDLL | None:
    import subprocess  # imported here, so commands that never train do not pay for it

    cc = compiler()
    if not cc or not SOURCE.is_file():
        return None
    with tempfile.TemporaryDirectory(prefix="iovslice-kernels-") as tmp:
        out = Path(tmp) / "_kernels.so"
        try:
            subprocess.run(
                [*cc, *FLAGS, str(SOURCE), "-o", str(out), "-lm"],
                capture_output=True,
                check=True,
                timeout=120,
            )
            lib = ctypes.CDLL(str(out))  # mapped now, so the directory can go
        except (OSError, subprocess.SubprocessError):
            return None
    for name, (restype, argtypes) in _SIGNATURES.items():
        fn = getattr(lib, name)
        fn.restype, fn.argtypes = restype, argtypes
    return lib
