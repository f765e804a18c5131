"""Independent checks the benchmark applies to bohrkit's outputs.

Every oracle here is a literal loop over plain Python integers and
``Fraction``s, written without the library's kernels, so a fast path that goes
wrong cannot also vouch for itself.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Sequence


class CheckFailed(Exception):
    """An output of the program disagreed with its independent check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def torus_distance(x: Fraction) -> Fraction:
    frac = x - (x.numerator // x.denominator)
    return min(frac, 1 - frac)


def bohr_members(theta: Sequence[Fraction], eps: Fraction, M: Fraction) -> list[int]:
    """Integers ``|n| <= M`` with ``||n theta_j|| <= eps`` for every frequency."""
    top = M.numerator // M.denominator
    return [
        n for n in range(-top, top + 1)
        if all(torus_distance(n * t) <= eps for t in theta)
    ]


def configuration_elements(a: int, ns: Sequence[int]) -> set[int]:
    return {a + ns[i] + ns[j] for i in range(len(ns)) for j in range(i, len(ns))}


def check_configuration(members: set[int], a: int, ns: Sequence[int], s: int) -> None:
    require(len(ns) == s, f"configuration has arity {len(ns)}, expected {s}")
    require(len(set(ns)) == s, "configuration offsets repeat")
    missing = [v for v in sorted(configuration_elements(a, ns)) if v not in members]
    require(not missing, f"configuration elements {missing[:3]} are not in the set")


def count_configurations_literal(elements: Iterable[int], s: int) -> int:
    """Same-parity ``x_1 < ... < x_s`` in the set with every midpoint in the set."""
    xs = sorted(set(elements))
    members = set(xs)
    total = 0
    for combo in itertools.combinations(xs, s):
        if len({x % 2 for x in combo}) != 1:
            continue
        if all((x + y) // 2 in members for x, y in itertools.combinations(combo, 2)):
            total += 1
    return total


def check_sumfree(found: Sequence[int], ambient: Iterable[int], h: int) -> None:
    members = set(ambient)
    require(len(found) == h, f"sumfree subset has {len(found)} elements, expected {h}")
    require(all(x in members for x in found), "sumfree subset leaves the set")
    for x, y in itertools.combinations(found, 2):
        require(x + y not in members, f"{x} + {y} lies in the set")


def check_freiman_map(domain: Sequence[int], images: Sequence[int], modulus: int,
                      full_size: int) -> None:
    """Exact two-direction quadruple check of a claimed 2-isomorphism.

    Small domains get the literal quadruple loop. Larger ones compare the
    partition of ordered pairs by domain sum with the partition by image sum,
    which decides the same statement in quadratic time.
    """
    require(len(set(images)) == len(images), "embedding is not injective")
    require(all(0 <= v < modulus for v in images), "image outside the residues")
    require(2 * len(domain) >= full_size, "embedding keeps less than half the set")
    n = len(domain)
    if n <= 24:
        for i, j, k, l in itertools.product(range(n), repeat=4):
            same_dom = domain[i] + domain[j] == domain[k] + domain[l]
            same_img = (images[i] + images[j] - images[k] - images[l]) % modulus == 0
            require(same_dom == same_img, "quadruple not preserved by the embedding")
        return
    by_dom: dict[int, set] = {}
    by_img: dict[int, set] = {}
    for i in range(n):
        for j in range(n):
            by_dom.setdefault(domain[i] + domain[j], set()).add((i, j))
            by_img.setdefault((images[i] + images[j]) % modulus, set()).add((i, j))
    require(
        sorted(map(sorted, by_dom.values())) == sorted(map(sorted, by_img.values())),
        "pair sums are not preserved by the embedding",
    )


def translate_density(members: set[int], points: Iterable[int]) -> Fraction:
    pts = list(points)
    return Fraction(sum(1 for p in pts if p in members), len(pts))
