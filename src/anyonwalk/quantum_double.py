"""Markov-trace walk weights for the transposition-class double of S_N.

For this irrep the normalized trace of a braid word whose generator indices
are pairwise distinct factorizes: each run b_i^m contributes

    factor(m) = 1 + (2/3)(N-2) [1 + 2 cos(2 m pi / 3)]
                  + (1/4)(N-2)(N-3) [1 + (-1)^m]

divided by the irrep dimension d = N(N-1)/2; both bracketed terms are
integers, so every value is an exact rational.  A word with an unused
generator index just gains a factor d, which the normalization cancels, so
the product is independent of the ambient strand count.

General words are brought to that canonical shape by a terminating rewrite
loop: collapse adjacent runs, cancel empty ones, rotate cyclically when the
two ends share an index (trace property), and strip a generator index that
occurs in a single run (its extra strand closes into a connected summand
worth factor(m)/d; for m = +-1 this is the classical stabilization move with
z = 1/d).  Words that stay irreducible raise, they are never approximated.

The walk itself reuses the path machinery of the single-coin walk; the
anyonic weight of a path pair is the trace of the combined word, and the
whole distribution is carried in exact rational arithmetic.  For t <= 4 every
interfering path pair reduces to squared runs worth phi = (factor(2)/d)^2, so
the walk is phi q_t + (1 - phi) c_t, with q_t the standard coined walk, c_t the
classical binomial walk and factor(2)/d = (N^2 - 5N + 8)/(N(N - 1)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .distribution import Distribution
from .errors import DomainError, IrreducibleWordError, check_budget
from .models import build_dsn
from .nonabelian import WalkGeometry, _loop_pairs, path_braid_word
from .tl import BraidWord

Runs = list[list[int]]  # [generator index, accumulated power]

#: longest walk whose paths are listed: the pair loop sorts all 2^t of them before the
#: first trace (t=20: 1.9 s and 280 MB), so a longer walk is refused first; today the
#: rewrite system already stops at t=5 (t=4: 0.3 s through the CLI on a 2-core VM)
DSN_MAX_T = 12


def trace_factor(N: int, m: int) -> int:
    """Contribution of one run b_i^m to the trace closure (an integer)."""
    value = 1
    if m % 3 == 0:
        value += 2 * (N - 2)
    if m % 2 == 0:
        value += (N - 2) * (N - 3) // 2
    return value


def canonical_link_polynomial(N: int, factors: list[tuple[int, int]]) -> int:
    """Link polynomial of the trace closure of a distinct-index word.

    ``factors`` lists (generator index, power) with pairwise distinct
    indices and nonzero powers; indices absent from the list contribute no
    factor here (each would contribute the irrep dimension).
    """
    if N < 5:
        raise DomainError(f"symmetric group order parameter must be >= 5, got {N}")
    indices = [i for i, _ in factors]
    if len(set(indices)) != len(indices):
        raise DomainError("word is not canonical: repeated generator index")
    if any(m == 0 for _, m in factors):
        raise DomainError("word is not canonical: zero power")
    value = 1
    for _, m in factors:
        value *= trace_factor(N, m)
    return value


@dataclass
class MarkovValue:
    """Normalized trace of a braid word, with the rewrite steps that led to it."""

    value: Fraction
    steps: list[str]


def _collapse(runs: Runs, steps: list[str]) -> Runs:
    changed = True
    while changed:
        changed = False
        out: Runs = []
        for idx, power in runs:
            if out and out[-1][0] == idx:
                out[-1][1] += power
                changed = True
            else:
                out.append([idx, power])
        runs = [r for r in out if r[1] != 0]
        if len(runs) != len(out):
            changed = True
            steps.append("cancel empty runs")
    return runs


def _word_to_runs(word: BraidWord | list[tuple[int, int]]) -> Runs:
    if isinstance(word, BraidWord):
        return [[abs(l), 1 if l > 0 else -1] for l in word.letters]
    return [[i, m] for i, m in word]


def markov_trace_word(N: int, word: BraidWord | list[tuple[int, int]]) -> MarkovValue:
    """Normalized Markov trace of a braid word; exact rational.

    Raises IrreducibleWordError when the rewrite system cannot reach a
    distinct-index word.
    """
    params = build_dsn(N)
    d = params.dim
    steps: list[str] = []
    total = Fraction(1)
    runs = _word_to_runs(word)
    while True:
        runs = _collapse(runs, steps)
        if not runs:
            steps.append("identity word: trace 1")
            return MarkovValue(total, steps)
        if len(runs) > 1 and runs[0][0] == runs[-1][0]:
            steps.append(f"rotate to merge boundary runs of b{runs[0][0]}")
            runs = runs[-1:] + runs[:-1]
            continue
        indices = [i for i, _ in runs]
        if len(set(indices)) == len(indices):
            for i, m in runs:
                total *= Fraction(trace_factor(N, m), d)
            steps.append(
                "canonical word: " + " ".join(f"b{i}^{m}" for i, m in runs)
            )
            return MarkovValue(total, steps)
        top = max(indices)
        top_runs = [r for r in runs if r[0] == top]
        if len(top_runs) == 1:
            i, m = top_runs[0]
            total *= Fraction(trace_factor(N, m), d)
            steps.append(f"strip single run b{i}^{m} (stabilization / connected sum)")
            runs = [r for r in runs if r[0] != i]
            continue
        raise IrreducibleWordError(
            f"word not reducible to canonical form; stuck at "
            + " ".join(f"b{i}^{m}" for i, m in runs),
            word=[(i, m) for i, m in runs],
        )


# exact coin amplitude phase tables: product over steps of <a_r|coin|a_{r-1}>
# has modulus 2^{-t/2}; only the phase differs between paths.
def _phase_power(bits: tuple[int, ...], coin: str) -> int:
    """Phase of the amplitude of a path as a power of i (coin U) or of -1 (coin H)."""
    prev = 0
    count = 0
    for b in bits:
        if coin == "U":
            count += b != prev  # each off-diagonal coin entry is i/sqrt(2)
        else:
            count += b == 1 and prev == 1  # <1|H|1> is the single negative entry
        prev = b
    return count


def _coin_pair_real(a: tuple[int, ...], ap: tuple[int, ...], coin: str, t: int) -> Fraction:
    """Real part of c_a * conj(c_ap), exactly; imaginary parts cancel in pairs."""
    if coin == "U":
        p = (_phase_power(a, coin) - _phase_power(ap, coin)) % 4
        re = (1, 0, -1, 0)[p]
    else:
        re = (-1) ** ((_phase_power(a, coin) + _phase_power(ap, coin)) % 2)
    return Fraction(re, 2**t)


def double_walk_distribution(N: int, t: int, coin: str = "U") -> Distribution:
    """Walker distribution of the trace-closure walk, in exact rationals."""
    if coin not in ("U", "H"):
        raise DomainError(f"coin must be 'U' or 'H', got {coin!r}")
    build_dsn(N)  # validates N
    check_budget("quantum_double.DSN_MAX_T", t, DSN_MAX_T, "step count")
    geom = WalkGeometry.for_steps(t)
    geom.check_steps(t)
    totals: dict[int, Fraction] = {geom.s0 + 2 * j - t: Fraction(0) for j in range(t + 1)}
    cache: dict[tuple[int, ...], Fraction] = {}
    for a, ap, diagonal in _loop_pairs(t):
        endpoint = geom.s0 + 2 * sum(a) - t
        if diagonal:
            totals[endpoint] += Fraction(1, 2**t)
            continue
        word = path_braid_word(geom, a) * path_braid_word(geom, ap).inverse()
        key = word.free_reduce().letters
        if key not in cache:
            try:
                cache[key] = markov_trace_word(N, BraidWord(geom.n, key)).value
            except IrreducibleWordError as err:
                raise IrreducibleWordError(
                    f"t={t} walk produced an irreducible word for paths {a}/{ap}: {err}",
                    word=err.word,
                ) from err
        totals[endpoint] += 2 * _coin_pair_real(a, ap, coin, t) * cache[key]
    positions = tuple(sorted(totals))
    exact = [totals[s] for s in positions]
    if sum(exact) != 1:
        raise DomainError(f"exact probabilities sum to {sum(exact)}, not 1")
    return Distribution(
        positions,
        np.array([float(x) for x in exact]),
        {"engine": "markov-trace", "model": f"dsn:{N}", "t": t, "n": geom.n, "s0": geom.s0, "coin": coin},
        exact=exact,
    )
