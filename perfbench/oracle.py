"""An independent strided dense state-vector oracle.

Every check and every ``floor.dense_ms`` figure of the benchmark comes from
this module.  It shares no code with the simulator under test: its gate
matrices, its OpenQASM reader and its update rule are written here.  The
state is one complex128 tensor of shape ``(2,) * n``; a gate is one
``tensordot`` over its target axes followed by a ``moveaxis`` back, and a
controlled gate applies its base matrix to the strided sub-tensor where every
control is 1.  Qubit ``q`` is bit ``q`` of the basis index (OpenQASM order),
so it lives on tensor axis ``n - 1 - q``.
"""

from __future__ import annotations

import ast
import cmath
import math
import operator
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: one operation: ``(name, qubits, params)``; ``measure`` carries
#: ``(qubit,)`` and ``(clbit,)``; a conditioned gate is ``("if", ...)``
Op = Tuple[str, Tuple[int, ...], Tuple[float, ...]]


def _u3(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [[c, -cmath.exp(1j * lam) * s],
         [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c]],
        dtype=complex,
    )


def _rx(t: float) -> np.ndarray:
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _ry(t: float) -> np.ndarray:
    c, s = math.cos(t / 2), math.sin(t / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _diag(*d: complex) -> np.ndarray:
    return np.diag(np.array(d, dtype=complex))


_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)

#: single-qubit base matrices by name (params -> 2x2)
_ONE = {
    "id": lambda: np.eye(2, dtype=complex),
    "x": lambda: _X,
    "y": lambda: _Y,
    "z": lambda: _diag(1, -1),
    "h": lambda: _H,
    "s": lambda: _diag(1, 1j),
    "sdg": lambda: _diag(1, -1j),
    "t": lambda: _diag(1, cmath.exp(1j * math.pi / 4)),
    "tdg": lambda: _diag(1, cmath.exp(-1j * math.pi / 4)),
    "sx": lambda: 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]),
    "rx": _rx,
    "ry": _ry,
    "rz": lambda t: _diag(cmath.exp(-0.5j * t), cmath.exp(0.5j * t)),
    "p": lambda lam: _diag(1, cmath.exp(1j * lam)),
    "u1": lambda lam: _diag(1, cmath.exp(1j * lam)),
    "u2": lambda phi, lam: _u3(math.pi / 2, phi, lam),
    "u3": _u3,
    "u": _u3,
}

#: controlled gates: name -> (number of leading control qubits, base name)
_CONTROLLED = {
    "cx": (1, "x"), "cnot": (1, "x"), "cy": (1, "y"), "cz": (1, "z"),
    "ch": (1, "h"), "crx": (1, "rx"), "cry": (1, "ry"), "crz": (1, "rz"),
    "cp": (1, "p"), "cu1": (1, "p"), "ccx": (2, "x"), "toffoli": (2, "x"),
    "ccz": (2, "z"), "cswap": (1, "swap"), "fredkin": (1, "swap"),
}


def _two_qubit(name: str, params: Sequence[float]) -> Optional[np.ndarray]:
    """4x4 matrices in local order (qubits[0] = low bit), or None."""
    if name == "swap":
        m = np.zeros((4, 4), dtype=complex)
        for i in range(4):
            m[((i & 1) << 1) | (i >> 1), i] = 1
        return m
    if name == "rzz":
        t = params[0]
        return _diag(*(cmath.exp((0.5j if bin(i).count("1") == 1 else -0.5j) * t)
                       for i in range(4)))
    if name == "rxx":
        c, s = math.cos(params[0] / 2), math.sin(params[0] / 2)
        m = np.eye(4, dtype=complex) * c
        for i in range(4):
            m[i ^ 3, i] = -1j * s
        return m
    return None


class DenseState:
    """A dense state vector updated gate by gate with strided tensor ops."""

    def __init__(self, num_qubits: int) -> None:
        self.n = num_qubits
        self.psi = np.zeros((2,) * num_qubits, dtype=complex)
        self.psi[(0,) * num_qubits] = 1.0

    def _axis(self, q: int) -> int:
        return self.n - 1 - q

    @staticmethod
    def _apply_local(psi: np.ndarray, axes: Sequence[int], u: np.ndarray) -> np.ndarray:
        """Apply ``u`` (local order: axes[0] = low bit) to ``psi``'s ``axes``."""
        k = len(axes)
        ut = u.reshape((2,) * (2 * k))
        # ut's in-axes run high bit first, i.e. over axes[k-1], ..., axes[0]
        in_axes = list(reversed(axes))
        out = np.tensordot(ut, psi, axes=(list(range(k, 2 * k)), in_axes))
        return np.moveaxis(out, list(range(k)), in_axes)

    def apply(self, name: str, qubits: Sequence[int], params: Sequence[float] = ()) -> None:
        name = name.lower()
        controls: Tuple[int, ...] = ()
        if name in _CONTROLLED:
            nc, base = _CONTROLLED[name]
            controls, qubits, name = tuple(qubits[:nc]), tuple(qubits[nc:]), base
        if name in _ONE:
            u = _ONE[name](*params)
        else:
            u = _two_qubit(name, params)
            if u is None:
                raise ValueError(f"oracle has no gate {name!r}")
        if u.shape[0] != 1 << len(qubits):
            raise ValueError(f"gate {name!r} does not act on {len(qubits)} qubits")
        if not controls:
            self.psi = self._apply_local(self.psi, [self._axis(q) for q in qubits], u)
            return
        index: List[object] = [slice(None)] * self.n
        for c in controls:
            index[self._axis(c)] = 1
        sub_axes = [a for a in range(self.n) if index[a] != 1]
        local = [sub_axes.index(self._axis(q)) for q in qubits]
        view = tuple(index)
        self.psi[view] = self._apply_local(self.psi[view], local, u)

    def vector(self) -> np.ndarray:
        """The state as a flat vector indexed by basis state (qubit 0 = bit 0)."""
        return self.psi.reshape(-1)

    def prob_one(self, qubit: int) -> float:
        index: List[object] = [slice(None)] * self.n
        index[self._axis(qubit)] = 1
        return float(np.sum(np.abs(self.psi[tuple(index)]) ** 2))

    def project(self, qubit: int, bit: int) -> "DenseState":
        """A normalised copy collapsed onto ``qubit == bit`` (caller checks p > 0)."""
        out = DenseState.__new__(DenseState)
        out.n = self.n
        out.psi = self.psi.copy()
        index: List[object] = [slice(None)] * self.n
        index[self._axis(qubit)] = 1 - bit
        out.psi[tuple(index)] = 0
        out.psi /= math.sqrt(float(np.sum(np.abs(out.psi) ** 2)))
        return out


def simulate(num_qubits: int, ops: Sequence[Op]) -> np.ndarray:
    """Final state vector of a unitary operation list."""
    state = DenseState(num_qubits)
    for name, qubits, params in ops:
        state.apply(name, qubits, params)
    return state.vector()


def expectation_zz(state: np.ndarray, num_qubits: int,
                   terms: Sequence[Tuple[float, Tuple[int, ...]]]) -> float:
    """``sum c * <Z...Z>`` of diagonal Z-string terms ``(coefficient, qubits)``."""
    probs = np.abs(state) ** 2
    idx = np.arange(1 << num_qubits)
    total = 0.0
    for coeff, qubits in terms:
        parity = np.zeros_like(idx)
        for q in qubits:
            parity ^= (idx >> q) & 1
        total += coeff * float(np.sum(probs * (1 - 2 * parity)))
    return total


# -- OpenQASM 2.0 subset reader ---------------------------------------------

_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv, ast.Pow: operator.pow}


def _eval_param(text: str) -> float:
    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return float(node.value)
        if isinstance(node, ast.Name) and node.id == "pi":
            return math.pi
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            v = ev(node.operand)
            return -v if isinstance(node.op, ast.USub) else v
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            return _BINOPS[type(node.op)](ev(node.left), ev(node.right))
        raise ValueError(f"unsupported parameter expression {text!r}")

    return ev(ast.parse(text.strip(), mode="eval"))


@dataclass
class Program:
    """A parsed circuit: one quantum and at most one classical register."""

    num_qubits: int = 0
    num_clbits: int = 0
    #: ``(name, qubits, params)``; ``measure`` has qubits ``(q,)`` and params
    #: ``(clbit,)``; ``reset`` has qubits ``(q,)``; a conditioned gate is
    #: ``("if", qubits, (value, inner_name, *inner_params))``
    ops: List[Op] = field(default_factory=list)
    #: indices into ``ops`` where a ``barrier`` occurred (level separators)
    barriers: List[int] = field(default_factory=list)

    def levels(self) -> List[List[Op]]:
        """The operations split at every barrier (empty segments dropped)."""
        cuts = [0] + self.barriers + [len(self.ops)]
        return [self.ops[a:b] for a, b in zip(cuts, cuts[1:]) if b > a]


_GATE_RE = re.compile(r"^([a-zA-Z_][a-zA-Z0-9_]*)\s*(?:\((.*)\))?\s*(.*)$")
_ARG_RE = re.compile(r"^([a-zA-Z_][a-zA-Z0-9_]*)\[(\d+)\]$")


def parse_qasm(text: str) -> Program:
    """Read the flat OpenQASM 2.0 subset the benchmark's inputs use."""
    prog = Program()
    qreg = creg = None
    text = re.sub(r"//[^\n]*", "", text)
    for raw in text.split(";"):
        stmt = " ".join(raw.split())
        if not stmt or stmt.startswith(("OPENQASM", "include")):
            continue
        head = stmt.split(" ", 1)[0]
        if head in ("qreg", "creg"):
            m = _ARG_RE.match(stmt.split(" ", 1)[1].replace(" ", ""))
            if m is None:
                raise ValueError(f"bad register declaration {stmt!r}")
            if head == "qreg":
                if qreg is not None:
                    raise ValueError("oracle reads one quantum register only")
                qreg, prog.num_qubits = m.group(1), int(m.group(2))
            else:
                if creg is not None:
                    raise ValueError("oracle reads one classical register only")
                creg, prog.num_clbits = m.group(1), int(m.group(2))
            continue
        if head == "barrier":
            prog.barriers.append(len(prog.ops))
            continue

        def operand(arg: str, reg: Optional[str]) -> int:
            m = _ARG_RE.match(arg.strip().replace(" ", ""))
            if m is None or m.group(1) != reg:
                raise ValueError(f"bad operand {arg!r} in {stmt!r}")
            return int(m.group(2))

        if head == "measure":
            q, c = stmt[len("measure"):].split("->")
            prog.ops.append(("measure", (operand(q, qreg),), (operand(c, creg),)))
            continue
        if head == "reset":
            prog.ops.append(("reset", (operand(stmt[len("reset"):], qreg),), ()))
            continue
        cond = None
        if stmt.startswith("if"):
            m = re.match(r"^if\s*\(\s*([a-zA-Z_]\w*)\s*==\s*(\d+)\s*\)\s*(.*)$", stmt)
            if m is None or m.group(1) != creg:
                raise ValueError(f"bad condition {stmt!r}")
            cond, stmt = int(m.group(2)), m.group(3)
        m = _GATE_RE.match(stmt)
        if m is None:
            raise ValueError(f"cannot read statement {stmt!r}")
        name = m.group(1).lower()
        params = tuple(_eval_param(p) for p in m.group(2).split(",")) if m.group(2) else ()
        qubits = tuple(operand(a, qreg) for a in m.group(3).split(","))
        if cond is None:
            prog.ops.append((name, qubits, params))
        else:
            prog.ops.append(("if", qubits, (cond, name) + params))
    return prog


def outcome_distribution(prog: Program) -> Dict[str, float]:
    """Exact distribution of the final classical register (branching).

    Every measurement splits each branch into its (up to) two outcomes, so
    the result is exact rather than sampled.  Keys are bitstrings with the
    highest clbit leftmost.
    """
    branches: List[Tuple[float, int, DenseState]] = [(1.0, 0, DenseState(prog.num_qubits))]
    for name, qubits, params in prog.ops:
        if name in ("measure", "reset"):
            q = qubits[0]
            nxt = []
            for weight, bits, state in branches:
                p1 = state.prob_one(q)
                for bit, p in ((0, 1.0 - p1), (1, p1)):
                    if p <= 1e-15:
                        continue
                    child = state.project(q, bit)
                    if name == "measure":
                        c = int(params[0])
                        nbits = (bits & ~(1 << c)) | (bit << c)
                    else:
                        nbits = bits
                        if bit:
                            child.apply("x", (q,))
                    nxt.append((weight * p, nbits, child))
            branches = nxt
        elif name == "if":
            value, inner = int(params[0]), str(params[1])
            for _, bits, state in branches:
                if bits == value:
                    state.apply(inner, qubits, params[2:])
        else:
            for _, _, state in branches:
                state.apply(name, qubits, params)
    dist: Dict[str, float] = {}
    width = prog.num_clbits
    for weight, bits, _ in branches:
        key = format(bits, f"0{width}b")
        dist[key] = dist.get(key, 0.0) + weight
    return dist
