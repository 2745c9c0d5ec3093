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
    (left, right, out, in), any line breaking.
"""

from __future__ import annotations

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


def _header_ints(tokens: list[str], header: str, where: str) -> list[int]:
    """The integers of a `header` line, whose tokens open `tokens`; anything
    else there raises ValueError naming the header and where it was read."""
    fields = tokens[:len(header.split())]
    try:
        return [int(t) for t in fields]
    except ValueError:
        raise ValueError(f"{where}: the '{header}' header takes integers, got "
                         f"{' '.join(fields)!r}") from None


def _read_tokens(path: str, header: str) -> list[str]:
    """The whitespace-separated tokens of a file that opens with `header`;
    a file too short to hold the header raises ValueError."""
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < len(header.split()):
        raise ValueError(f"{path} is missing its '{header}' header line")
    return tokens


def load_matrix(path: str) -> np.ndarray:
    tokens = _read_tokens(path, "<rows> <cols>")
    rows, cols = _header_ints(tokens, "<rows> <cols>", path)
    data = np.asarray([float(t) for t in tokens[2:]])
    if data.size != 2 * rows * cols:
        raise ValueError(f"expected {2 * rows * cols} floats in {path}, got {data.size}")
    return (data[0::2] + 1j * data[1::2]).reshape(rows, cols)


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
    tokens = _read_tokens(path, "<chi>")
    (chi,) = _header_ints(tokens, "<chi>", path)
    if chi < 1:
        raise ValueError(f"bond dimension in {path} must be at least 1, got {chi}")
    data = np.asarray([float(t) for t in tokens[1:]])
    expected = 2 * chi * chi * 4
    if data.size != expected:
        raise ValueError(f"expected {expected} floats in {path}, got {data.size}")
    tensor = (data[0::2] + 1j * data[1::2]).reshape(chi, chi, 2, 2)
    return MPUTensor(chi=chi, tensor=tensor)
