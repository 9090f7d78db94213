"""Chain complexes, bicomplexes, total complexes, sub/quotient complexes.

One ChainComplex type serves both gradings: `orientation` records whether
the stored map at degree n goes down (homological, d_n: C_n -> C_{n-1})
or up (cohomological, d^n: C^n -> C^{n+1}); one table, `_STEP`, serves
every complex.  A Bicomplex holds only its maps: an absent one is zero.

Every square that must vanish (d o d, and v^2, h^2 and vh + hv in a
bicomplex) is one `linalg.vanishes` call, made once for each distinct
sum of stored maps.  A ChainComplex checks its d o d once, when it is
built, so nothing that reads one checks it again.  A total complex is
the one made without that check: its d o d, block by block, is its
bicomplex's squares, which `total_complex` evaluates once, in
`Bicomplex.check_squares`; it places the blocks of each differential
side by side (`linalg.block_matrix`) and sums none of them.
Homology classes are the cycles under the quotient map by the
boundaries, one product (`homology_classes`); representatives and
induced maps are read from them.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction

from .linalg import (Matrix, Subspace, block_matrix, descend, image, kernel,
                     quotient_dim, rank as matrix_rank, reduce_mod, restrict,
                     vanishes)
from .errors import (BoundarySquareError, IdentityViolationError,
                     NotASubspaceError, NotStableError, ShapeError)
from .records import Field, cached, record

Orientation = str  # "homological" or "cohomological"
# the degree a differential lands in, minus the degree it leaves
_STEP = {"homological": -1, "cohomological": 1}


@record
class ChainComplex:
    """Finite truncation of a complex on the degrees that key `dims`.

    dims[n] is the dimension in degree n.  For homological orientation,
    diffs[n] maps degree n to n-1 (the lowest degree's to 0 or out of
    the window); for cohomological, diffs[n] maps degree n to n+1.
    Degrees are >= 0 (periodic windows are shifted first-quadrant
    towers) and index dicts, so a truncation need not start at 0.
    Construction raises BoundarySquareError unless d o d = 0."""

    dims: dict[int, int]
    diffs: dict[int, Matrix]
    orientation: Orientation = "homological"

    @cached
    def _ranks(self) -> dict[int, int]:
        """Rank of the map out of each degree, filled by `rank` and by
        `homology_classes`; not a field, so out of init, eq and repr."""
        return {}

    def __post_init__(self) -> None:
        self.check_d_squared()

    def dim(self, n: int) -> int:
        return self.dims.get(n, 0)

    def differential(self, n: int) -> Matrix:
        """The stored map out of degree n (target clipped to the window)."""
        if n in self.diffs:
            return self.diffs[n]
        return Matrix.zero(self.dim(n + _STEP[self.orientation]), self.dim(n))

    def incoming(self, n: int) -> int:
        """The degree whose stored map lands in degree n."""
        return n - _STEP[self.orientation]

    def boundaries(self, n: int) -> Subspace:
        """The image of the map into degree n (zero if none is stored)."""
        if self.incoming(n) in self.dims:
            return image(self.differential(self.incoming(n)))
        return Subspace.zero(self.dim(n))

    def rank(self, n: int) -> int:
        """Rank of the map out of degree n, 0 outside the window.

        Each differential is reduced once per complex: its rank gives
        the kernel dimension in degree n and the image dimension in the
        neighbouring degree.
        """
        if n not in self.dims:
            return 0
        if n not in self._ranks:
            self._ranks[n] = matrix_rank(self.differential(n))
        return self._ranks[n]

    def check_d_squared(self) -> None:
        """d o d = 0 out of every degree, in ascending order, each
        composite one `vanishes` call; run once, by construction."""
        step = _STEP[self.orientation]
        for n in sorted(self.dims):
            if n + step in self.dims and not vanishes(
                    (1, self.differential(n + step), self.differential(n))):
                raise BoundarySquareError(f"d o d != 0 out of degree {n}")


def _betti(C: ChainComplex, n: int) -> int:
    """dim C_n - rank(out of n) - rank(into n), from the memoised ranks."""
    if n not in C.dims:
        raise IndexError(f"degree {n} outside complex window")
    return C.dim(n) - C.rank(n) - C.rank(C.incoming(n))


def homology_classes(C: ChainComplex, n: int) -> tuple[Subspace, Subspace]:
    """The boundaries B in degree n, and the homology classes H: the
    image of the cycles Z under B's quotient map, i.e. Z / B in B's
    `free_columns` coordinates.  Raises NotASubspaceError unless B lies
    in Z, and IdentityViolationError unless dim H is the rank Betti
    number.
    The rank out of degree n, unless already known, is read off Z,
    whose elimination counted its pivots; the incoming map's rank is
    still reduced on its own, which cross-checks B."""
    B = C.boundaries(n)
    Z = kernel(C.differential(n))
    C._ranks.setdefault(n, Z.ambient_dim - Z.dim)
    quotient_dim(B, Z)  # raises unless B lies in Z
    H = image(reduce_mod(B, Z.rows.transpose()))
    if H.dim != _betti(C, n):
        raise IdentityViolationError(f"{H.dim} classes for Betti number "
                                     f"{_betti(C, n)} in degree {n}")
    return B, H


def representative_space(C: ChainComplex, n: int) -> Subspace:
    """The span of the canonical representatives in degree n: H's RREF
    rows (`homology_classes`) put back at the boundaries' free columns,
    which ascend, so the lifted rows are still an RREF."""
    B, H = homology_classes(C, n)
    lift = Matrix.from_integer_rows(
        C.dim(n), [(1, {f: 1}) for f in B.free_columns()])
    return Subspace(H.rows @ lift)


def homology(C: ChainComplex, n: int, *, representatives: bool = True
             ) -> tuple[int, list[tuple[Fraction, ...]]]:
    """Betti number and canonical representatives in degree n.

    The Betti number comes from the memoised ranks.  The representatives
    are the rows of `representative_space`: the RREF of the cycles
    reduced modulo the boundaries, a basis of a complement of the
    boundaries in the cycles.  With `representatives=False` the list is
    empty.
    """
    if representatives:
        reps = representative_space(C, n)
        return reps.dim, [tuple(r) for r in reps.rows.to_rows()]
    return _betti(C, n), []


def text_table(title: str, columns: Sequence[tuple[str, int]],
               rows: Iterable[Sequence]) -> str:
    """The title, a header of the column names, then one line per row:
    each cell right-aligned to its column's width, cells joined by a
    space."""
    return "\n".join([title] + [
        " ".join(f"{x:>{width}}" for x, (_, width) in zip(row, columns))
        for row in [[name for name, _ in columns], *rows]])


@record
class HomologyReport:
    """Betti numbers with rank bookkeeping, serializable to JSON/text."""

    theory: str
    algebra_name: str
    coefficient_name: str
    orientation: Orientation
    degrees: tuple[int, ...]
    betti: dict[int, int]
    kernel_dims: dict[int, int]
    image_dims: dict[int, int]
    representatives: dict[int, list[tuple[Fraction, ...]]] = Field(default_factory=dict)
    metadata: dict = Field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {
            "theory": self.theory,
            "algebra": self.algebra_name,
            "coefficients": self.coefficient_name,
            "orientation": self.orientation,
            "degrees": list(self.degrees),
            "betti": {str(n): self.betti[n] for n in self.degrees},
            "kernel_dims": {str(n): self.kernel_dims[n] for n in self.degrees},
            "image_dims": {str(n): self.image_dims[n] for n in self.degrees},
        }
        if self.representatives:
            out["representatives"] = {
                str(n): [[str(x) for x in v] for v in reps]
                for n, reps in self.representatives.items()}
        if self.metadata:
            out["metadata"] = self.metadata
        return out

    def to_text(self, label_fn: Callable[[int, int], str] | None = None) -> str:
        lines = [text_table(
            f"{self.theory} of {self.algebra_name} "
            f"(coefficients: {self.coefficient_name})",
            [("degree", 8), ("dim ker", 8), ("dim im", 8), ("betti", 6)],
            [(n, self.kernel_dims[n], self.image_dims[n], self.betti[n])
             for n in self.degrees])]
        label = label_fn or (lambda n, i: f"x{i}")
        for n, reps in sorted(self.representatives.items()):
            for v in reps:
                lines.append(f"  cycle[{n}]: " + " + ".join(
                    f"{x}*{label(n, i)}"
                    for i, x in enumerate(v) if x))
        return "\n".join(lines)


def report_for_complex(C: ChainComplex, degrees: Sequence[int], *,
                       theory: str, algebra_name: str, coefficient_name: str,
                       representatives: bool = False) -> HomologyReport:
    hom = {n: homology(C, n, representatives=representatives)
           for n in degrees}
    return HomologyReport(
        theory=theory, algebra_name=algebra_name,
        coefficient_name=coefficient_name, orientation=C.orientation,
        degrees=tuple(degrees), betti={n: b for n, (b, _) in hom.items()},
        kernel_dims={n: C.dim(n) - C.rank(n) for n in hom},
        image_dims={n: C.rank(C.incoming(n)) for n in hom},
        representatives={n: r for n, (_, r) in hom.items()}
        if representatives else {})


@record
class Bicomplex:
    """Double complex with the signs baked into the stored maps.

    vertical[(p, q)] maps cell (p, q) to (p, q-1) for homological
    orientation (to (p, q+1) cohomological); horizontal[(p, q)] maps
    (p, q) to (p-1, q) (to (p+1, q) cohomological).  The total
    differential is plain vertical + horizontal, so the construction
    requires v^2 = 0, h^2 = 0, and vh + hv = 0 cellwise.  A map absent
    from `vertical` or `horizontal` is zero.
    """

    cell_dims: dict[tuple[int, int], int]
    vertical: dict[tuple[int, int], Matrix]
    horizontal: dict[tuple[int, int], Matrix]
    orientation: Orientation = "homological"

    def check_squares(self) -> None:
        """v^2 = 0, h^2 = 0 and vh + hv = 0 cell by cell, each a sum of
        the composites whose two maps are stored, since an absent map is
        zero.  Cells that share their maps share the sum, and each
        distinct sum is evaluated once; a repeat of a failing sum is
        never reached, so the first error is the same as checking every
        cell."""
        s, v, h = _STEP[self.orientation], self.vertical, self.horizontal
        seen: dict[tuple, list] = {}  # holds the maps, so ids stay unique
        for (p, q) in self.cell_dims:
            # (second map, the cell between, first map) of each composite
            for tgt, composites, error in [
                    ((p, q + 2 * s), [(v, (p, q + s), v)],
                     "vertical^2 != 0"),
                    ((p + 2 * s, q), [(h, (p + s, q), h)],
                     "horizontal^2 != 0"),
                    ((p + s, q + s), [(v, (p + s, q), h), (h, (p, q + s), v)],
                     "squares do not anticommute")]:
                terms = [(1, a[mid], b[(p, q)]) for a, mid, b in composites
                         if mid in a and (p, q) in b]
                key = tuple((c, id(a), id(b)) for c, a, b in terms)
                if tgt in self.cell_dims and key not in seen:
                    seen[key] = terms
                    if not vanishes(*terms):
                        raise BoundarySquareError(f"{error} at {(p, q)}")


def total_complex(B: Bicomplex) -> ChainComplex:
    """Direct-sum total complex of B, whose squares are checked first.
    Each stored map is placed once, at its target cell's offset and its
    source cell's, in the differential out of its source's degree.

    Block by block, the total d o d out of a cell is the sum of the
    composites into each cell two steps on: v^2, h^2 or vh + hv, exactly
    the squares `check_squares` has just evaluated.  So the complex is
    made without `__post_init__`, whose d o d check would evaluate the
    same sums again."""
    B.check_squares()
    dims: dict[int, int] = {}
    offsets: dict[tuple[int, int], int] = {}
    for (p, q) in sorted(B.cell_dims):
        offsets[(p, q)] = dims.get(p + q, 0)
        dims[p + q] = offsets[(p, q)] + B.cell_dims[(p, q)]
    s = _STEP[B.orientation]
    blocks: dict[int, list] = {n: [] for n in dims if n + s in dims}
    for maps, (dp, dq) in ((B.vertical, (0, s)), (B.horizontal, (s, 0))):
        for (p, q), m in maps.items():
            tgt = (p + dp, q + dq)
            if (p, q) in offsets and tgt in offsets:
                blocks[p + q].append((m, offsets[tgt], offsets[(p, q)]))
    T = object.__new__(ChainComplex)
    vars(T).update(dims=dims, orientation=B.orientation, diffs={
        n: block_matrix(dims[n + s], dims[n], placed)
        for n, placed in blocks.items()})
    return T


def quotient_complex(C: ChainComplex, subspaces: dict[int, Subspace]) -> ChainComplex:
    """Quotient of C by a d-stable family of subspaces.

    Coordinates in degree n: the canonical coset representatives, i.e.
    the standard basis vectors at the `free_columns` of the subspace's
    RREF basis.
    """
    return _mapped_complex(C, subspaces, quotient=True)


def sub_complex(C: ChainComplex, subspaces: dict[int, Subspace]) -> ChainComplex:
    """Restriction of C to a d-stable family of subspaces, in the
    coordinates of their RREF bases."""
    return _mapped_complex(C, subspaces, quotient=False)


def _mapped_complex(C: ChainComplex, subspaces: dict[int, Subspace],
                    quotient: bool) -> ChainComplex:
    """The complex whose differential out of degree n is C's, taken by
    `descend` (quotient) or `restrict` from the subspace of C_n, zero
    where none is given, to the one in the target degree."""
    subs = {n: subspaces.get(n, Subspace.zero(C.dim(n))) for n in C.dims}
    for n, sub in subs.items():
        if sub.ambient_dim != C.dim(n):
            raise ShapeError(f"subspace ambient dim mismatch in degree {n}")
    induced = descend if quotient else restrict
    step = _STEP[C.orientation]
    diffs: dict[int, Matrix] = {}
    for n in C.dims:
        if n + step in C.dims:
            try:
                diffs[n] = induced(C.differential(n), subs[n], subs[n + step])
            except NotASubspaceError as exc:
                raise NotStableError(f"differential does not preserve "
                                     f"subspace at degree {n}") from exc
    dims = {n: C.dim(n) - sub.dim if quotient else sub.dim
            for n, sub in subs.items()}
    return ChainComplex(dims=dims, diffs=diffs, orientation=C.orientation)
