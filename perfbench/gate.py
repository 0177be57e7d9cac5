"""Matching returned roots against reference eigenvalues."""

from __future__ import annotations


def match_tol(lam: float, h_ref: float) -> float:
    """The spectrum command's P1 budget 10 h^2 max(1, |lambda|), at the reference mesh."""
    return 10.0 * h_ref * h_ref * max(1.0, abs(lam))


def match_roots(roots: list[float], refs: list[float], h_ref: float) -> tuple[int, list[float]]:
    """One-to-one match in sorted order; returns (missed refs, unmatched roots).

    ``roots`` lists every returned root once per multiplicity.  A reference
    no root matched is missed; a root that matches no reference is spurious
    and fails the gate.
    """
    roots, refs = sorted(roots), sorted(refs)
    i = j = missed = 0
    unmatched = []
    while i < len(roots):
        if j < len(refs) and abs(refs[j] - roots[i]) <= match_tol(refs[j], h_ref):
            i += 1
            j += 1
        elif j < len(refs) and refs[j] < roots[i]:
            missed += 1
            j += 1
        else:
            unmatched.append(roots[i])
            i += 1
    return missed + len(refs) - j, unmatched
