"""
Hypothesis strategies for the exact forest identities: random binary forests
with dyadic edge lengths, drawn node by node so that Hypothesis can shrink a
failing forest to a small one.
"""

from __future__ import annotations

from hypothesis import strategies as st

from catbranch.forest import FamilyForest


@st.composite
def forests(draw, max_roots: int = 3, max_depth: int = 6,
            length_grid: int = 64) -> FamilyForest:
    """The shapes of `forest.random_binary_forest`: up to `max_roots` trees,
    each node splitting in two below depth `max_depth`, and edge lengths
    that are multiples of 1 / length_grid, so that every height is exact.
    Nodes are numbered in pre-order."""
    parent: list[int] = []
    birth: list[float] = []
    death: list[float] = []
    roots: list[int] = []

    def grow(up: int, born: float, depth: int) -> None:
        node = len(parent)
        parent.append(up)
        birth.append(born)
        top = born + draw(st.integers(1, length_grid)) / length_grid
        death.append(top)
        if depth < max_depth and draw(st.booleans()):
            for _ in range(2):
                grow(node, top, depth + 1)

    for _ in range(draw(st.integers(1, max_roots))):
        roots.append(len(parent))
        grow(-1, 0.0, 0)
    return FamilyForest._from_preorder(parent, birth, death, roots)
