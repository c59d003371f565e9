"""Combinatorial symplectic cohomology of the mirror punctured curve.

Punctures correspond to zigzag cycles of the source dimer; each carries even
and odd winding families.  Odd topological classes are handled through their
pairings with the puncture loops, which is all the ring structure and the
correspondence verification consume.
"""

from __future__ import annotations

from operator import attrgetter

from .dimer import Dimer, SHError, _Combination, _Record, parallel_classes, surface_invariants


# Labels: ("unit",) | ("p", edge) | ("E", i, j, n) | ("F", i, j, n)
UNIT_LABEL = ("unit",)


def E(i: int, j: int, n: int) -> tuple:
    return ("E", i, j, n)


def F(i: int, j: int, n: int) -> tuple:
    return ("F", i, j, n)


def P_EDGE(e) -> tuple:
    return ("p", e)


class SHElement(_Combination):
    """Integer combination of symplectic cochain labels."""

    __slots__ = ()

    def __repr__(self):
        if not self.terms:
            return "SH(0)"
        return "SH(" + " + ".join(f"{v}*{k}" for k, v in sorted(self.terms.items(), key=str)) + ")"


class SHBasis(_Record):
    _fields = ("unit", "odd_rank", "e_labels", "f_labels", "genus", "punctures")
    _key = attrgetter(*_fields)

    def __init__(self, unit: tuple, odd_rank: int, e_labels: list, f_labels: list, genus: int, punctures: int):
        self.unit = unit
        self.odd_rank = odd_rank  # dim H^1 of the punctured curve = 2g + N - 1
        self.e_labels = e_labels
        self.f_labels = f_labels
        self.genus = genus
        self.punctures = punctures


class MirrorSH:
    """The ring model for one consistent dimer."""

    def __init__(self, d: Dimer):
        d.require_valid()
        self.dimer = d
        # raises DimerError unless d is zigzag consistent
        classes = parallel_classes(d)
        # The dual dimer, whose surface this is, would validate, so it is not
        # built: its faces compose (zag_of[a] == zig_of[next_pos(a)], zig_of[a]
        # == zag_of[next_neg(a)]), each vertex's link is the cycle zig1 zag1
        # zig2 ... of its orbit, and its face graph is d's, so it is connected.
        self.genus, self.n_punct, _ = surface_invariants(d)
        self.n_classes = len(classes)
        self.m = {i: len(members) for i, (_, members) in enumerate(classes, start=1)}
        self.cycles = {(z.class_index, z.parallel_index): z for _, members in classes for z in members}
        # (i, j) -> the index of Z_{i,j} among the orbits that d.zigzag_of names
        self._zigzag_of = d.zigzag_of
        self._orbit = {key: self._zigzag_of[z.zigs[0]][0] for key, z in self.cycles.items()}
        # the first zigzag path from the base vertex to each vertex; xi_v and
        # xi_for_strip read this list
        self.base_paths = self.zigzag_paths_from(d.vertices[0])

    # -- pairing of odd Morse classes with puncture loops --------------------

    def pairing(self, edge, puncture: tuple) -> int:
        """<p_e, loop around Z_{i,j}>: +1 per zig occurrence, -1 per zag."""
        orbit = self._orbit[puncture]
        zig, zag = self._zigzag_of.get(edge, (None, None))
        return (zig == orbit) - (zag == orbit)

    def pairing_matrix(self) -> dict:
        """(edge, (i, j)) -> pairing; every edge pairs +1 with one cycle, -1 with one."""
        out = {}
        for e in self.dimer.arrow_ids:
            for key in sorted(self.cycles):
                out[(e, key)] = self.pairing(e, key)
        return out

    def odd_pairing_vector(self, elem: SHElement, class_index: int) -> list:
        """Pairings of an odd Morse combination with the class-i puncture loops."""
        out = []
        for j in range(1, self.m[class_index] + 1):
            total = 0
            for label, coeff in elem.terms.items():
                if label[0] == "p":
                    total += coeff * self.pairing(label[1], (class_index, j))
            out.append(total)
        return out

    # -- basis ----------------------------------------------------------------

    def sh_basis(self, n_max: int) -> SHBasis:
        if n_max < 1:
            raise SHError("n_max must be >= 1")
        e_labels = []
        f_labels = []
        for (i, j) in sorted(self.cycles):
            for n in range(1, n_max + 1):
                e_labels.append(E(i, j, n))
                f_labels.append(F(i, j, n))
        return SHBasis(
            unit=UNIT_LABEL,
            odd_rank=2 * self.genus + self.n_punct - 1,
            e_labels=e_labels,
            f_labels=f_labels,
            genus=self.genus,
            punctures=self.n_punct,
        )

    # -- product ----------------------------------------------------------------

    def mul_labels(self, a: tuple, b: tuple) -> SHElement:
        ka, kb = a[0], b[0]
        if ka == "unit":
            return SHElement.of(b)
        if kb == "unit":
            return SHElement.of(a)
        if ka == "E" and kb == "E":
            if a[1:3] == b[1:3]:
                return SHElement.of(E(a[1], a[2], a[3] + b[3]))
            return SHElement()
        if ka == "E" and kb == "F" or ka == "F" and kb == "E":
            ea, fb = (a, b) if ka == "E" else (b, a)
            if ea[1:3] == fb[1:3]:
                return SHElement.of(F(ea[1], ea[2], ea[3] + fb[3]))
            return SHElement()
        if ka == "F" and kb == "F":
            return SHElement()
        if ka == "p" and kb == "E":
            i, j, n = b[1], b[2], b[3]
            return SHElement.of(F(i, j, n), self.pairing(a[1], (i, j)))
        if ka == "E" and kb == "p":
            return self.mul_labels(b, a)
        # p with p or F: zero for degree reasons
        if "p" in (ka, kb):
            return SHElement()
        raise SHError(f"unsupported product {a} * {b}")

    def mul(self, a: SHElement, b: SHElement) -> SHElement:
        out = SHElement()
        for la, ca in a.terms.items():
            for lb, cb in b.terms.items():
                out = out + self.mul_labels(la, lb).scale(ca * cb)
        return out

    # -- zigzag paths and distinguished odd classes ------------------------------

    def zigzag_paths_from(self, v0) -> list:
        """The first zigzag path out of v0 to each vertex it reaches.

        A zigzag path alternates the positive-face and negative-face successor,
        so it is a prefix of a zigzag cycle's word rotated to start at an arrow
        out of v0 (its zig position gives one phase, its zag position the
        other).  After one lap it is back at its first arrow in the same phase,
        so every vertex is first reached within one lap.  Paths are ordered
        shortest first, then lexicographically by their arrows' idkey ranks,
        and each vertex keeps the first path into it.
        """
        d = self.dimer
        rank = d.arrow_rank
        hits = []  # per (first arrow, phase), the shortest prefix into each vertex
        for z in self.cycles.values():
            for s, a in enumerate(z.arrows):
                if d.tail(a) != v0:
                    continue
                lap, seen = z.arrows[s:] + z.arrows[:s], set()
                for k, b in enumerate(lap, start=1):
                    if d.head(b) not in seen:
                        seen.add(d.head(b))
                        hits.append(lap[:k])
        hits.sort(key=lambda p: (len(p), [rank[x] for x in p]))
        first = {}
        for path in hits:
            first.setdefault(d.head(path[-1]), path)
        return list(first.values())

    def xi_from_path(self, path) -> SHElement:
        """The sum of p_e over the arrows e of ``path``, counted in one pass."""
        counts: dict = {}
        for a in path:
            label = P_EDGE(a)
            counts[label] = counts.get(label, 0) + 1
        return SHElement._nonzero(counts)

    def distinguished_odd(self, i0: int = 1) -> dict:
        """p and q, as odd Morse combinations, and the path of each xi_v.

        p sums the puncture-loop generators of the class-i0 parallel family,
        q those of class i0-1; xi_v follows a shortest zigzag path from the
        base vertex to v, and ``xi_from_path`` gives its class.
        """
        if not 1 <= i0 <= self.n_classes:
            raise SHError(f"i0 must be in 1..{self.n_classes}")
        d = self.dimer
        v0 = d.vertices[0]

        def family_sum(i: int) -> SHElement:
            return self.xi_from_path(
                a for (ci, _), z in sorted(self.cycles.items()) if ci == i for a in z.arrows
            )

        i_prev = (i0 - 2) % self.n_classes + 1
        p = family_sum(i0)
        q = family_sum(i_prev)
        xi_path = {v0: ()}
        for path in self.base_paths:
            xi_path.setdefault(d.head(path[-1]), path)
        missing = [v for v in d.vertices if v not in xi_path]
        if missing:
            raise SHError(f"no zigzag path from {v0!r} reaches {missing}")
        return {"p": p, "q": q, "xi_path": xi_path}

    def xi_for_strip(self, strip_vertices):
        """A shortest zigzag path from the base vertex ending in the given strip, or None."""
        d = self.dimer
        for path in self.base_paths:
            if d.head(path[-1]) in strip_vertices:
                return path
        return None
