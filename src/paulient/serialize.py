"""Plain-text file formats for matrices, Clifford tableaux, and MPU tensors.

Matrix format (complex, row-major):
    line 1:  <rows> <cols>
    then one line per row with 2*cols floats: re im re im ...

Tableau format:
    line 1:  <n_qubits>
    2N lines of 2N bits, the image of X_1..X_N, then Z_1..Z_N: each the
        binary form of its image's index (x bits, then z bits)
    1 line of 2N bits (signs; 1 means the image carries -1)

MPU tensor format:
    line 1:  <chi>
    then chi*chi*2*2 complex entries as "re im" pairs, row-major over
    (left, right, out, in), on lines of equal length (save_mpu writes one).

Both float formats are parsed by np.loadtxt, so a line of a different
length from the others is an error.
"""

from __future__ import annotations

import warnings

import numpy as np

from .mpu import MPUTensor
from .paulis import CliffordTableau


def matrix_to_text(m: np.ndarray) -> str:
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    lines = [f"{m.shape[0]} {m.shape[1]}"]
    for row in m:
        lines.append(" ".join(f"{e.real:.17g} {e.imag:.17g}" for e in row))
    return "\n".join(lines) + "\n"


def save_matrix(path: str, m: np.ndarray) -> None:
    with open(path, "w") as fh:
        fh.write(matrix_to_text(m))


def _header_ints(fields: list[str], header: str, where: str) -> list[int]:
    """The integers of a `header` line split into `fields`; a field that is
    not an integer, or a count other than the header's, raises ValueError
    naming the header and where it was read."""
    try:
        values = [int(t) for t in fields]
    except ValueError:
        values = None
    if values is None or len(values) != len(header.split()):
        raise ValueError(f"{where}: the '{header}' header takes integers, got "
                         f"{' '.join(fields)!r}")
    return values


def _read_floats(path: str, header: str) -> tuple[list[int], np.ndarray]:
    """The integers of a file's `header` line and the floats of the lines
    after it, in order, parsed by numpy's C reader (np.loadtxt).  A file too
    short to hold the header, a malformed header, a token that is not a
    number or lines of unequal length raise ValueError naming the file."""
    with open(path, "rb") as fh:
        fields = fh.readline().decode(errors="replace").split()
        if len(fields) < len(header.split()):
            raise ValueError(f"{path} is missing its '{header}' header line")
        values = _header_ints(fields, header, path)
        try:
            with warnings.catch_warnings():  # an empty body is a count error below
                warnings.simplefilter("ignore", UserWarning)
                data = np.loadtxt(fh, dtype=float, comments=None, ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}, after the header line: {exc}") from None
    return values, data.ravel()


def load_matrix(path: str) -> np.ndarray:
    (rows, cols), data = _read_floats(path, "<rows> <cols>")
    if rows < 0 or cols < 0:
        raise ValueError(f"{path}: a matrix cannot have {rows} rows and {cols} columns")
    if data.size != 2 * rows * cols:
        raise ValueError(f"expected {2 * rows * cols} floats in {path}, got {data.size}")
    return data.view(complex).reshape(rows, cols)


def tableau_to_text(c: CliffordTableau) -> str:
    width = 2 * c.n_qubits
    rows = [format(row, f"0{width}b") for row in c.rows]
    return "\n".join([str(c.n_qubits), *rows, "".join(map(str, c.signs))]) + "\n"


def tableau_from_text(text: str) -> CliffordTableau:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise ValueError("tableau text is missing its '<n_qubits>' header line")
    (n,) = _header_ints([lines[0]], "<n_qubits>", "tableau text")
    if len(lines) != 2 + 2 * n:
        raise ValueError("tableau block has the wrong number of lines")
    for ln in lines[1:]:
        if set(ln) - {"0", "1"}:
            raise ValueError(f"tableau line {ln!r} has a character other than 0 or 1")
        if len(ln) != 2 * n:
            raise ValueError(f"tableau line {ln!r} has {len(ln)} bits, expected 2N = {2 * n}")
    return CliffordTableau(n, [int(ln, 2) for ln in lines[1:-1]], [int(ch) for ch in lines[-1]])


def save_tableau(path: str, c: CliffordTableau) -> None:
    with open(path, "w") as fh:
        fh.write(tableau_to_text(c))


def load_tableau(path: str) -> CliffordTableau:
    with open(path) as fh:
        text = fh.read()
    try:
        return tableau_from_text(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_mpu(path: str, a: MPUTensor) -> None:
    flat = a.tensor.ravel()
    with open(path, "w") as fh:
        fh.write(f"{a.chi}\n")
        fh.write(" ".join(f"{e.real:.17g} {e.imag:.17g}" for e in flat) + "\n")


def load_mpu(path: str) -> MPUTensor:
    (chi,), data = _read_floats(path, "<chi>")
    if chi < 1:
        raise ValueError(f"bond dimension in {path} must be at least 1, got {chi}")
    expected = 2 * chi * chi * 4
    if data.size != expected:
        raise ValueError(f"expected {expected} floats in {path}, got {data.size}")
    return MPUTensor(chi=chi, tensor=data.view(complex).reshape(chi, chi, 2, 2))
