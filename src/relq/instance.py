"""Problem model for systems of difference equations on a cycle.

An instance over an even domain size p is a list of equations (i, j, d)
asking for x_j - x_i = d (mod p).  An assignment, a list of ints, places
every variable at an integer position in [0, p); each equation contributes
1 - 2*y/p to the objective, where y is the circular distance between the
achieved difference and d.  Objective values are kept as exact fractions with
denominator p, so shift and scaling identities hold exactly.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from relq._kernels import _check_domain, _check_int, _check_word

# enumeration budget for the exhaustive solver and domain-size guard for scaling
BRUTE_FORCE_LIMIT = 10**8
DOMAIN_LIMIT = 10**9
_CHUNK = 1 << 12  # assignments per pass; larger passes hold more positions (3.4 MB more peak at 1 << 16, n = 6) and run no faster

FORMAT_MAGIC = "relq"
FORMAT_VERSION = 1


def circular_distance(a: int, b: int, p: int) -> int:
    """Arc distance min((b - a) mod p, (a - b) mod p) on the p-cycle."""
    p, a, b = _check_domain(p), _check_int("label", a), _check_int("label", b)
    if not (0 <= a < p and 0 <= b < p):
        raise ValueError(f"labels {a}, {b} outside [0, {p})")
    d = (b - a) % p
    return min(d, p - d)


@dataclass
class Instance:
    """A system of equations x_j - x_i = d (mod p) over n cycle-valued variables."""

    p: int
    n: int
    equations: list[tuple[int, int, int]]

    def __post_init__(self):
        self.p = _check_domain(self.p)
        self.n = _check_int("variable count", self.n, 1)
        self.equations = [tuple(_check_int("equation entry", x) for x in eq) for eq in self.equations]
        for i, j, d in self.equations:
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"equation ({i}, {j}, {d}) references a missing variable")
            if i == j:
                raise ValueError(f"equation ({i}, {j}, {d}) relates a variable to itself")
            if not (0 <= d < self.p):
                raise ValueError(f"target difference {d} outside [0, {self.p})")

    @property
    def m(self) -> int:
        return len(self.equations)


def evaluate(inst: Instance, positions: Sequence[int]) -> Fraction:
    """Exact objective of positions, any sequence of one integer in [0, p) per variable (a float,
    even 4.0, is refused): each equation yields 1 - 2*y/p with y its circular slack.

    A scalar loop kept apart from score_positions, so that each checks the other.
    """
    positions = [_check_int("position", x) for x in positions]
    if len(positions) != inst.n:
        raise ValueError(f"expected {inst.n} positions, got {len(positions)}")
    for x in positions:
        if not (0 <= x < inst.p):
            raise ValueError(f"position {x} outside [0, {inst.p})")
    total = Fraction(0)
    for i, j, d in inst.equations:
        delta = (positions[j] - positions[i] - d) % inst.p
        y = min(delta, inst.p - delta)
        total += Fraction(inst.p - 2 * y, inst.p)
    return total


def _decode_states(inst: Instance, states: np.ndarray) -> np.ndarray:
    """Positions (states, n) of assignments encoded in mixed radix, first variable at 0."""
    p = inst.p
    pos = np.empty((states.shape[0], inst.n), dtype=np.int64)
    pos[:, 0] = 0  # shift invariance: pin the first variable
    rest = states
    for k in range(1, inst.n):
        pos[:, k] = rest % p
        rest = rest // p
    return pos


def score_positions(inst: Instance, positions: np.ndarray) -> np.ndarray:
    """Integer scores sum(p - 2y) of a batch of assignments, one per row of positions.

    A row's objective value is its score / p exactly.
    """
    p = inst.p
    score = np.zeros(positions.shape[0], dtype=np.int64)
    for i, j, d in inst.equations:
        delta = (positions[:, j] - positions[:, i] - d) % p
        y = np.minimum(delta, p - delta)
        score += p - 2 * y
    return score


def brute_force_optimum(inst: Instance) -> tuple[list[int], Fraction]:
    """Exhaustive optimum over p^(n-1) assignments with the first variable pinned at 0:
    the maximizing positions as a list of ints, and the optimum value.

    Deterministic tie-break: the first maximizer in mixed-radix order.  Raises
    if the enumeration exceeds the budget.
    """
    total_states = inst.p ** (inst.n - 1)
    if total_states > BRUTE_FORCE_LIMIT:
        raise ValueError(f"enumeration of {total_states} assignments exceeds budget {BRUTE_FORCE_LIMIT}")
    best_score = -1
    best_state = 0
    for start in range(0, total_states, _CHUNK):
        states = np.arange(start, min(start + _CHUNK, total_states), dtype=np.int64)
        scores = score_positions(inst, _decode_states(inst, states))
        k = int(np.argmax(scores))
        if scores[k] > best_score:
            best_score = int(scores[k])
            best_state = int(states[k])
    return _decode_states(inst, np.array([best_state]))[0].tolist(), Fraction(best_score, inst.p)


def scale_instance(inst: Instance, ell: int) -> Instance:
    """Scale the domain to ell*p and every target difference to ell*d.

    Slacks scale with the domain, so every assignment value is preserved under
    x -> ell*x and the optimum is unchanged.
    """
    ell = _check_int("scale factor", ell, 1)
    s = ell * inst.p
    if s > DOMAIN_LIMIT:
        raise ValueError(f"scaled domain {s} exceeds limit {DOMAIN_LIMIT}")
    return Instance(p=s, n=inst.n, equations=[(i, j, ell * d) for i, j, d in inst.equations])


def generate_instance(
    n: int, p: int, m: int, seed: int, planted: bool = False
) -> tuple[Instance, list[int] | None]:
    """Random instance with m equations over random distinct pairs.

    With planted=True the targets are consistent with hidden positions, returned
    as a list of ints (None otherwise), which then score exactly m.  Deterministic per seed.
    """
    n, p, m = _check_int("n", n, 2), _check_domain(_check_int("p", p)), _check_int("m", m, 0)
    seed = _check_word("seed", seed)
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0xB5], dtype=np.uint64)))
    positions = rng.integers(0, p, size=n) if planted else None
    equations = []
    for _ in range(m):
        i = int(rng.integers(0, n))
        j = int(rng.integers(0, n - 1))
        if j >= i:
            j += 1
        if planted:
            d = int((positions[j] - positions[i]) % p)
        else:
            d = int(rng.integers(0, p))
        equations.append((i, j, d))
    return Instance(p=p, n=n, equations=equations), positions.tolist() if planted else None


def format_instance(inst: Instance) -> str:
    """Canonical text form; parsing it back reproduces the instance bit-exactly."""
    lines = [f"{FORMAT_MAGIC} {FORMAT_VERSION}", f"{inst.p} {inst.n} {inst.m}"]
    lines.extend(f"{i} {j} {d}" for i, j, d in inst.equations)
    return "\n".join(lines) + "\n"


def _text_rows(text: str, what: str, magic: str, version: int) -> tuple[list[int], list[str]]:
    """Line numbers and texts of the non-blank rows of a text format, '#' comments
    stripped, after checking the 'magic version' header and that a size line
    follows; what names the format."""
    numbered = [(num, line) for num, raw in enumerate(text.splitlines(), 1) if (line := raw.split("#", 1)[0].strip())]
    nums, rows = [num for num, _ in numbered], [line for _, line in numbered]
    if not rows:
        raise ValueError(f"empty {what} text")
    if rows[0].split() != [magic, str(version)]:
        raise ValueError(f"bad header {rows[0]!r}, expected '{magic} {version}'")
    if len(rows) < 2:
        raise ValueError("missing size line")
    return nums, rows


def parse_instance(text: str) -> Instance:
    """Parse the text format; '#' starts a comment, blank lines are ignored."""
    _, rows = _text_rows(text, "instance", FORMAT_MAGIC, FORMAT_VERSION)
    try:
        p, n, m = (int(tok) for tok in rows[1].split())
    except ValueError as exc:
        raise ValueError(f"bad size line {rows[1]!r}") from exc
    body = rows[2:]
    if len(body) != m:
        raise ValueError(f"expected {m} equations, found {len(body)}")
    equations = []
    for line in body:
        try:
            i, j, d = (int(tok) for tok in line.split())
        except ValueError as exc:
            raise ValueError(f"bad equation line {line!r}") from exc
        equations.append((i, j, d))
    return Instance(p=p, n=n, equations=equations)


def load_instance(path: str | Path) -> Instance:
    return parse_instance(Path(path).read_text())
