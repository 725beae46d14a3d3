"""Operator archives rewritten for tests: a written file's entries changed,
dropped or damaged, and saved again."""

import numpy as np


def entries(path) -> dict:
    with np.load(path, allow_pickle=False) as z:
        return {name: z[name] for name in z.files}


def rewrite(path, drop=(), **changes) -> None:
    """Save the file's entries again, less ``drop`` and with ``changes``
    (an object array is pickled)."""
    e = {name: a for name, a in entries(path).items() if name not in drop} | changes
    with open(path, "wb") as f:
        np.savez(f, **e)


def _flip_matrix_byte(path):
    raw = bytearray(path.read_bytes())
    m = entries(path)["matrix"].tobytes()
    raw[raw.index(m) + len(m) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))


def _flip_matrix_header(path):
    # the opening brace of the matrix's .npy header dictionary
    raw = bytearray(path.read_bytes())
    raw[raw.index(b"{'descr'", raw.index(b"matrix.npy"))] ^= 0xFF
    path.write_bytes(bytes(raw))


def _v1_text(path):
    path.write_text("# enclosure2d dtn v1\nnodal 2 0 0.1 2 1\n0 3.14\n"
                    "1 0 -1 0\n-1 0 1 0\n")


def _v2_archive(path):
    # the layout before band limits: a basis kind and n_param, no modes entry
    rewrite(path, drop=("modes",), format="enclosure2d dtn v2", kind="nodal",
            n_param=entries(path)["n_nodes"])


def _matrix(path):
    return entries(path)["matrix"]


# name -> a damage done to a written operator file that read_dtn must reject
CORRUPTIONS = {
    "empty": lambda p: p.write_bytes(b""),
    "flipped byte": _flip_matrix_byte,
    "array header": _flip_matrix_header,
    "v1 text": _v1_text,
    "missing entry": lambda p: rewrite(p, drop=("matrix",)),
    "object entry": lambda p: rewrite(p, matrix=_matrix(p).astype(object)),
    "wrong shape": lambda p: rewrite(p, matrix=_matrix(p)[:, :-1]),
    "wrong dtype": lambda p: rewrite(p, matrix=_matrix(p).real),
    "format tag": lambda p: rewrite(p, format="enclosure2d dtn v4"),
    "v2 archive": _v2_archive,
}
