"""Scalar reference for rooting and heavy-path decomposition, one tree at a time.

These are the per-tree walks the library used before it rooted and decomposed
every packed tree at once (graph.TreeStack, hld.PathStack). Tests pin the
stacked builders against them field for field.
"""

from types import SimpleNamespace

import numpy as np

from twocut.graph import TreeStructureError
from twocut.util import floor_log2


def reference_parent(n, edges, root):
    """Parents of the tree edges (u, v) rooted at root, by one stack walk;
    raises TreeStructureError when the walk misses a vertex."""
    ends = np.sort(np.asarray(edges, dtype=np.int64).reshape(-1, 2), axis=1)
    a, b = np.concatenate((ends, ends[:, ::-1])).T  # both directions of every edge
    order = np.argsort(a)
    nbr = b[order].tolist()
    start = np.searchsorted(a[order], np.arange(n + 1)).tolist()
    parent = [-1] * n
    seen = [False] * n
    seen[root] = True
    stack = [root]
    while stack:
        v = stack.pop()
        for w in nbr[start[v] : start[v + 1]]:
            if not seen[w]:
                seen[w] = True
                parent[w] = v
                stack.append(w)
    if not all(seen):
        raise TreeStructureError("edges do not span all vertices: they hold a cycle or a repeated edge")
    return parent


def reference_tree(n, root, parent):
    """RootedSpanTree's fields by the post-order walk, children in ascending id."""
    parent = [int(p) for p in parent]
    children = [[] for _ in range(n)]
    for v in range(n):  # in ascending id, so every child list is sorted
        if v != root:
            children[parent[v]].append(v)
    po = np.zeros(n, dtype=np.int64)
    depth = np.zeros(n, dtype=np.int64)
    order = np.zeros(n, dtype=np.int64)
    size = [1] * n
    counter = 0
    cursor = [0] * n
    stack = [root]
    while stack:
        v = stack[-1]
        if cursor[v] < len(children[v]):
            c = children[v][cursor[v]]
            cursor[v] += 1
            depth[c] = depth[v] + 1
            stack.append(c)
        else:
            stack.pop()
            po[v] = counter
            order[counter] = v
            counter += 1
            if v != root:
                size[parent[v]] += size[v]
    if counter < n:
        raise TreeStructureError(f"the walk from root {root} reaches {counter} of {n} vertices")
    size = np.asarray(size, dtype=np.int64)
    return SimpleNamespace(n=n, root=root, parent=np.asarray(parent, dtype=np.int64), children=children,
                           size=size, depth=depth, po=po, lo=po - size + 1, hi=po, order=order)


def reference_decomposition(t):
    """PathDecomposition's tables by the chain loop: heavy child the largest
    subtree (ties to the smaller id), a path at every edge that is not its
    parent's heavy edge, numbered by its top edge."""
    n = t.n
    size = t.size.tolist()
    heavy = [max(kids, key=size.__getitem__) if kids else -1 for kids in t.children]
    path_of = np.full(n, -1, dtype=np.int64)
    paths = []
    for v in range(n):
        p = int(t.parent[v])
        if v != t.root and (p == t.root or heavy[p] != v):
            chain = [v]
            while heavy[chain[-1]] != -1:
                chain.append(heavy[chain[-1]])
            path_of[chain] = len(paths)
            paths.append(chain)
    top_edge = np.asarray([p[0] for p in paths], dtype=np.int64) if paths else np.zeros(0, np.int64)
    flat = np.asarray([c for p in paths for c in p], dtype=np.int64)
    pos = np.full(n, -1, dtype=np.int64)
    pos[flat] = np.arange(len(flat))
    width = floor_log2(n) + 2
    jump = np.full(n, t.root, dtype=np.int64)
    jump[path_of >= 0] = t.parent[top_edge[path_of[path_of >= 0]]]
    cur = np.arange(n, dtype=np.int64)
    up = []
    for _ in range(width):
        up.append(np.where(cur == t.root, -1, cur))
        cur = jump[cur]
    up = np.stack(up, axis=1)
    col = (up >= 0).sum(axis=1)[:, None] - 1 - np.arange(width)
    exits = np.where(col >= 0, np.take_along_axis(up, np.maximum(col, 0), axis=1), -1)
    return SimpleNamespace(paths=paths, path_of=path_of, top_edge=top_edge, flat=flat, pos=pos,
                           start=pos[top_edge], top_depth=t.depth[top_edge],
                           exit_path=np.where(exits >= 0, path_of[exits], -1),
                           exit_depth=np.where(exits >= 0, t.depth[exits], -1))
