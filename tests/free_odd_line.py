"""The complex of a model with a free odd line adjoined, read from the
model's own complex: the oracle for the doubling ``dim H(W, d_0) =
2 dim H(current)`` that ``perturb_and_reduce`` takes from the Künneth
formula."""

from __future__ import annotations

from hilali import Model, ModelError
from hilali.algebra import restrict_element
from hilali.cohomology import ChainComplex


class FreeOddLineComplex:
    """The complex of ``W = base ⊗ Λ(ybar)`` with ``d(ybar) = 0``, read
    from ``base``: nothing is assembled, eliminated or memoized on W.

    The constructor checks exactly that ybar is closed and no image mentions
    it, so W is the base complex plus the ybar-block, which ``m ybar -> m``
    carries isomorphically onto the base complex shifted by deg ybar.
    """

    def __init__(self, model: Model, base: ChainComplex, ybar: str):
        uni = model.universe
        rest = [(g.name, g.degree) for g in uni.generators if g.name != ybar]
        embedded = {name: restrict_element(img, uni)
                    for name, img in base.model.d.images.items()}
        if (ybar not in uni.by_name or not uni.by_name[ybar].is_odd
                or rest != [(g.name, g.degree)
                            for g in base.model.universe.generators]
                or model.d.images != embedded):
            raise ModelError(f"the model is not the base model with a free "
                             f"odd line {ybar} adjoined")
        self.base = base
        self.pure = base.pure
        self.shift = uni.by_name[ybar].degree

    def chain_dim(self, degree: int, q: int | None = None) -> int:
        below = degree - self.shift
        ybar_block = (0 if below < 0 else self.base.chain_dim(
            below, None if q is None else q - 1))
        return self.base.chain_dim(degree, q) + ybar_block

    def rank(self, degree: int, q: int | None = None) -> int:
        return (self.base.rank(degree, q) + self.base.rank(
            degree - self.shift, None if q is None else q - 1))

    betti_number = ChainComplex.betti_number
