"""Sample sets, the samples each quantified variable ranges over, and
the coordinate layout of the grounding vector.

Every predicate is evaluated on a finite list of sample tuples.  The
concatenation of those evaluations, predicate by predicate, is the
grounding vector the rest of the package optimizes over.  This module
fixes the coordinate order once and for all: predicates in declaration
order, tuples in lexicographic order of sample names.  A quantified
formula is grounded where it is compiled, by
``constraints.compile_min_affine``, over the samples
``sample_universe`` assigns to each of its variables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from operator import getitem
from typing import Iterable, Mapping, Sequence

import numpy as np

from .logic import Atom, Formula, iter_atoms, to_text


class GroundingError(Exception):
    pass


@dataclass(frozen=True)
class PredicateDecl:
    """A predicate to be learned, with one domain name per argument."""

    name: str
    domains: tuple[str, ...]
    kernel: str = "default"

    def __post_init__(self):
        if len(self.domains) < 1:
            raise GroundingError(f"predicate {self.name!r} must have arity >= 1")

    @property
    def arity(self) -> int:
        return len(self.domains)


@dataclass(eq=False)
class SampleSets:
    """Named sample points per domain plus per-predicate grounding tuples.

    ``domains`` maps a domain name to its points, keyed by sample name in
    sorted order.  ``groundings`` lists, per predicate, the sample-name
    tuples the predicate is evaluated on (lexicographically sorted).
    ``supervised`` holds (tuple, label) pairs with labels in {-1, +1};
    contradictory labels on one tuple are representable and surface
    later as an infeasible training problem.
    """

    domains: dict[str, dict[str, tuple[float, ...]]]
    groundings: dict[str, tuple[tuple[str, ...], ...]]
    supervised: dict[str, tuple[tuple[tuple[str, ...], int], ...]] = field(
        default_factory=dict
    )


def build_samples(
    domains: Mapping[str, Mapping[str, Sequence[float]]],
    decls: Sequence[PredicateDecl],
    supervisions: Iterable[tuple[str, tuple[str, ...], int]] = (),
    groundings: Mapping[str, Sequence[Sequence[str]]] | None = None,
) -> SampleSets:
    """Validate and normalize the sample data for ``decls``.

    Grounding tuples default to the Cartesian product of each argument's
    domain samples; ``groundings`` overrides that per predicate.
    """
    norm_domains: dict[str, dict[str, tuple[float, ...]]] = {}
    for dom_name in sorted(domains):
        points = domains[dom_name]
        norm = {}
        dim = None
        for sample_name in sorted(points):
            coords = tuple(float(v) for v in points[sample_name])
            if dim is None:
                dim = len(coords)
            elif len(coords) != dim:
                raise GroundingError(
                    f"sample {sample_name!r} in domain {dom_name!r} has dimension "
                    f"{len(coords)}, expected {dim}"
                )
            norm[sample_name] = coords
        norm_domains[dom_name] = norm

    by_name: dict[str, PredicateDecl] = {}
    for decl in decls:
        if decl.name in by_name:
            raise GroundingError(f"duplicate predicate {decl.name!r}")
        for dom in decl.domains:
            if dom not in norm_domains:
                raise GroundingError(
                    f"predicate {decl.name!r} references unknown domain {dom!r}"
                )
        by_name[decl.name] = decl

    norm_groundings: dict[str, tuple[tuple[str, ...], ...]] = {}
    for decl in decls:
        if groundings is not None and decl.name in groundings:
            tuples = []
            for raw in groundings[decl.name]:
                t = tuple(raw)
                if len(t) != decl.arity:
                    raise GroundingError(
                        f"grounding tuple {t} for {decl.name!r} has wrong arity"
                    )
                for pos, sample_name in enumerate(t):
                    if sample_name not in norm_domains[decl.domains[pos]]:
                        raise GroundingError(
                            f"grounding tuple {t} for {decl.name!r} uses unknown "
                            f"sample {sample_name!r}"
                        )
                tuples.append(t)
            norm_groundings[decl.name] = tuple(sorted(set(tuples)))
        else:
            per_arg = [sorted(norm_domains[d]) for d in decl.domains]
            norm_groundings[decl.name] = tuple(itertools.product(*per_arg))

    collected: dict[str, list[tuple[tuple[str, ...], int]]] = {}
    for pred, t, label in supervisions:
        if pred not in by_name:
            raise GroundingError(f"supervision references unknown predicate {pred!r}")
        t = tuple(t)
        if label not in (-1, 1):
            raise GroundingError(
                f"supervision label for {pred}{t} must be -1 or +1, got {label!r}"
            )
        if t not in norm_groundings[pred]:
            raise GroundingError(
                f"supervised tuple {t} is not in the grounding set of {pred!r}"
            )
        slot = collected.setdefault(pred, [])
        if (t, label) not in slot:
            slot.append((t, label))
    supervised = {
        pred: tuple(sorted(pairs)) for pred, pairs in collected.items()
    }

    return SampleSets(norm_domains, norm_groundings, supervised)


@dataclass(eq=False)
class GroundingIndex:
    """Bijection between (predicate, sample tuple) pairs and coordinates.

    Coordinates are 0-based internally; exported labels use the
    "predicate:sample1,sample2" convention and are built once, in
    coordinate order.  ``coordinates`` maps the plain tuple (predicate,
    sample tuple) of every ground atom to its coordinate, so a lookup
    builds no Atom.  ``coordinate_table`` holds the same map as one flat
    table per predicate, indexed by sample positions, so the compiler
    looks an atom up for many groundings by summing positions; each
    table is built on first use and kept.
    """

    decls: tuple[PredicateDecl, ...]
    samples: SampleSets
    tuples: dict[str, tuple[tuple[str, ...], ...]]
    offsets: dict[str, int]
    size: int
    coordinates: dict[tuple[str, tuple[str, ...]], int]
    _tables: dict[str, tuple[list[int], tuple[tuple[dict[str, int], int], ...]]] = field(
        default_factory=dict, init=False, repr=False
    )
    _positions: dict[tuple[str, int], dict[str, int]] = field(default_factory=dict, init=False, repr=False)

    def slice_of(self, predicate: str) -> slice:
        start = self.offsets[predicate]
        return slice(start, start + len(self.tuples[predicate]))

    def from_global(self, k: int) -> tuple[str, tuple[str, ...]]:
        if not 0 <= k < self.size:
            raise GroundingError(f"coordinate {k} out of range 0..{self.size - 1}")
        for decl in self.decls:
            sl = self.slice_of(decl.name)
            if sl.start <= k < sl.stop:
                return decl.name, self.tuples[decl.name][k - sl.start]
        raise GroundingError(f"coordinate {k} not mapped")

    def coordinate_of(self, atom: Atom) -> int:
        try:
            return self.coordinates[atom.name, atom.args]
        except KeyError:
            raise GroundingError(
                f"ground atom {to_text(atom)} has no coordinate in the index"
            ) from None

    def coordinate_table(self, predicate: str) -> tuple[list[int], tuple[tuple[dict[str, int], int], ...]]:
        """The lookup table of ``predicate`` and, per argument, the scaled
        position of each sample of its domain and of one extra position.

        The table is a flat list over the arguments' positions, row-major,
        each axis one position longer than its domain: the entry at the
        summed scaled positions of a sample tuple is its coordinate, and
        every other entry is -1, for a tuple that is not grounded or one
        through an extra position, where a sample outside the argument's
        domain reads.
        """
        found = self._tables.get(predicate)
        if found is None:
            decl = next(d for d in self.decls if d.name == predicate)
            axes = []
            size = 1
            for domain in reversed(decl.domains):
                names = self.samples.domains[domain]
                key = domain, size
                if key not in self._positions:
                    self._positions[key] = {name: i * size for i, name in enumerate(names)}
                axes.append((self._positions[key], len(names) * size))
                size *= len(names) + 1
            axes.reverse()
            table = [-1] * size
            scaled = [where for where, _ in axes]
            for k, t in enumerate(self.tuples[predicate], self.offsets[predicate]):
                table[sum(map(getitem, scaled, t))] = k
            found = self._tables[predicate] = table, tuple(axes)
        return found

    @cached_property
    def _labels(self) -> list[str]:
        return [f"{decl.name}:{','.join(t)}" for decl in self.decls for t in self.tuples[decl.name]]

    def label(self, k: int) -> str:
        if not 0 <= k < self.size:
            raise GroundingError(f"coordinate {k} out of range 0..{self.size - 1}")
        return self._labels[k]

    def labels(self) -> list[str]:
        """Every coordinate's label, in coordinate order, as a new list."""
        return list(self._labels)

    def tuple_points(self, predicate: str) -> list[tuple[float, ...]]:
        """Concatenated coordinates of each grounding tuple, in index order."""
        decl = next(d for d in self.decls if d.name == predicate)
        points = []
        for t in self.tuples[predicate]:
            flat: tuple[float, ...] = ()
            for pos, sample_name in enumerate(t):
                flat = flat + self.samples.domains[decl.domains[pos]][sample_name]
            points.append(flat)
        return points


def build_grounding_index(
    decls: Sequence[PredicateDecl], samples: SampleSets
) -> GroundingIndex:
    coord: dict[tuple[str, tuple[str, ...]], int] = {}
    offsets: dict[str, int] = {}
    tuples: dict[str, tuple[tuple[str, ...], ...]] = {}
    k = 0
    for decl in decls:
        for dom in decl.domains:
            if not samples.domains.get(dom):
                raise GroundingError(
                    f"domain {dom!r} referenced by {decl.name!r} has no samples"
                )
        ts = samples.groundings[decl.name]
        if not ts:
            raise GroundingError(f"predicate {decl.name!r} has no grounding tuples")
        offsets[decl.name] = k
        tuples[decl.name] = ts
        for t in ts:
            coord[decl.name, t] = k
            k += 1
    return GroundingIndex(tuple(decls), samples, tuples, offsets, k, coord)


def _variable_domains(f: Formula, index: GroundingIndex) -> dict[str, str]:
    """Infer, per variable, the domain it ranges over from argument positions."""
    decls = {d.name: d for d in index.decls}
    result: dict[str, str] = {}
    for atom in iter_atoms(f):
        decl = decls.get(atom.name)
        if decl is None:
            raise GroundingError(f"formula uses undeclared predicate {atom.name!r}")
        for pos, arg in enumerate(atom.args):
            dom = decl.domains[pos]
            if arg in index.samples.domains.get(dom, {}):
                continue  # a sample constant, not a variable
            if arg in result and result[arg] != dom:
                raise GroundingError(
                    f"variable {arg!r} is used over domains {result[arg]!r} and {dom!r}"
                )
            result[arg] = dom
    return result


def sample_universe(f: Formula, index: GroundingIndex) -> dict[str, list[str]]:
    """Sample names each quantified variable of ``f`` ranges over."""
    domains = _variable_domains(f, index)
    return {var: sorted(index.samples.domains[dom]) for var, dom in domains.items()}


def ground_assignment(index: GroundingIndex, p: Sequence[float]) -> dict[Atom, float]:
    """Truth assignment for every ground atom, read off a grounding vector."""
    vec = np.asarray(p, dtype=float)
    if vec.shape != (index.size,):
        raise GroundingError(f"grounding vector must have length {index.size}")
    out = {}
    for decl in index.decls:
        sl = index.slice_of(decl.name)
        for t, value in zip(index.tuples[decl.name], vec[sl]):
            out[Atom(decl.name, t)] = float(value)
    return out
