"""Fixed reference work that does not use ``riemsub``.

    python3 perfbench/reference.py

``run.py`` starts this script between operations and times it from spawn to
exit, like an operation.  It does the same kinds of work as ``riemsub``
(interpreter start, ``import numpy``, recursive evaluation of a tree of
Python objects, and SVDs and solves of small matrices) in a fixed amount,
so its time follows the speed of the machine and nothing else.  Timings
are reported at a fixed machine speed: scaled by the ratio of
``REFERENCE_S`` to the median time of this script in the same run.
"""

import numpy as np

TREE_EVALS = 1200
SMALL_SOLVES = 1200


class Node:
    __slots__ = ("kind", "a", "b")

    def __init__(self, kind, a=None, b=None):
        self.kind, self.a, self.b = kind, a, b

    def eval(self, x):
        if self.kind == 0:
            return x[0]
        if self.kind == 1:
            return x[1]
        if self.kind == 2:
            return self.a.eval(x) + self.b.eval(x)
        if self.kind == 3:
            return self.a.eval(x) * self.b.eval(x)
        return abs(self.a.eval(x)) ** 0.5


def tree(depth: int) -> Node:
    if depth == 0:
        return Node(0)
    right = Node(4, tree(depth - 2)) if depth > 2 else Node(1)
    return Node(2 + depth % 2, tree(depth - 1), right)


def main() -> float:
    root = tree(10)
    acc = 0.0
    for i in range(TREE_EVALS):
        acc += root.eval((1.0 + i * 1e-4, 2.0))
    rng = np.random.default_rng(0)
    m = rng.standard_normal((64, 4, 4))
    grams = m @ m.transpose(0, 2, 1) + 4.0 * np.eye(4)
    for k in range(SMALL_SOLVES):
        g = grams[k % 64]
        _, s, vt = np.linalg.svd(g)
        acc += float(np.linalg.solve(g, vt[0]) @ s)
    return acc


if __name__ == "__main__":
    main()
