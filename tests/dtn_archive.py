"""Operator archives rewritten for tests: a written archive's entries changed,
dropped or damaged, and saved again."""

import numpy as np

# the archive's two matrix entries, as a DtnPair orders them
MATRICES = ("perturbed", "background")


def entries(path) -> dict:
    with np.load(path, allow_pickle=False) as z:
        return {name: z[name] for name in z.files}


def rewrite(path, drop=(), **changes) -> None:
    """Save the file's entries again, less ``drop`` and with ``changes``
    (an object array is pickled)."""
    e = {name: a for name, a in entries(path).items() if name not in drop} | changes
    with open(path, "wb") as f:
        np.savez(f, **e)


def _entry_start(raw, name):
    # an entry's local file header, which holds its name ahead of its data
    return raw.index(f"{name}.npy".encode())


def _flip_matrix_byte(path, name):
    raw = bytearray(path.read_bytes())
    m = entries(path)[name].tobytes()
    raw[raw.index(m, _entry_start(raw, name)) + len(m) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))


def _flip_matrix_header(path, name):
    # the opening brace of the matrix's .npy header dictionary
    raw = bytearray(path.read_bytes())
    raw[raw.index(b"{'descr'", _entry_start(raw, name))] ^= 0xFF
    path.write_bytes(bytes(raw))


def _v1_text(path, _):
    path.write_text("# enclosure2d dtn v1\nnodal 2 0 0.1 2 1\n0 3.14\n"
                    "1 0 -1 0\n-1 0 1 0\n")


def _v3_archive(path, name):
    # one archive per operator: the header and its complex128 ``matrix``
    rewrite(path, drop=MATRICES, format="enclosure2d dtn v3",
            matrix=entries(path)[name].astype(complex))


def _v2_archive(path, name):
    # the v3 layout before band limits: a basis kind and n_param, no modes entry
    _v3_archive(path, name)
    rewrite(path, drop=("modes",), format="enclosure2d dtn v2", kind="nodal",
            n_param=entries(path)["n_nodes"])


def _matrix(path, name):
    return entries(path)[name]


def _single(a):
    # the same kind in single precision
    return a.astype(np.complex64 if np.iscomplexobj(a) else np.float32)


# name -> a damage done to a written archive, to its named matrix or to the
# whole file, that read_dtn must reject
CORRUPTIONS = {
    "empty": lambda p, _: p.write_bytes(b""),
    "flipped byte": _flip_matrix_byte,
    "array header": _flip_matrix_header,
    "v1 text": _v1_text,
    "missing entry": lambda p, m: rewrite(p, drop=(m,)),
    "object entry": lambda p, m: rewrite(p, **{m: _matrix(p, m).astype(object)}),
    "wrong shape": lambda p, m: rewrite(p, **{m: _matrix(p, m)[:, :-1]}),
    "wrong dtype": lambda p, m: rewrite(p, **{m: _single(_matrix(p, m))}),
    "format tag": lambda p, _: rewrite(p, format="enclosure2d dtn v5"),
    "v2 archive": _v2_archive,
    "v3 archive": _v3_archive,
}
