"""Tiny and-inverter graph with structural hashing.

Edges are ints: node index * 2, low bit set for negation.  Node 0 is the
constant TRUE, so FALSE is its negation.  Because equal subterms are merged
on construction, a miter over two structurally identical cones collapses to
constant FALSE without ever reaching a solver.
"""

TRUE = 0
FALSE = 1


class Aig:
    def __init__(self):
        self.nodes: list[tuple] = [("const",)]
        self._inputs: dict = {}
        self._strash: dict[tuple[int, int], int] = {}

    def input_(self, label) -> int:
        edge = self._inputs.get(label)
        if edge is None:
            self.nodes.append(("in", label))
            edge = (len(self.nodes) - 1) * 2
            self._inputs[label] = edge
        return edge

    @staticmethod
    def not_(e: int) -> int:
        return e ^ 1

    def and_(self, a: int, b: int) -> int:
        if a == TRUE:
            return b
        if b == TRUE:
            return a
        if a == FALSE or b == FALSE:
            return FALSE
        if a == b:
            return a
        if a == (b ^ 1):
            return FALSE
        if a > b:
            a, b = b, a
        edge = self._strash.get((a, b))
        if edge is None:
            self.nodes.append(("and", a, b))
            edge = (len(self.nodes) - 1) * 2
            self._strash[(a, b)] = edge
        return edge

    def or_(self, a: int, b: int) -> int:
        return self.and_(a ^ 1, b ^ 1) ^ 1

    def xor_(self, a: int, b: int) -> int:
        return self.and_(self.and_(a, b) ^ 1, self.and_(a ^ 1, b ^ 1) ^ 1)

    def label(self, node_index: int):
        return self.nodes[node_index][1]

    def simulate(self, values: dict, mask: int = 1) -> list[int]:
        """Every node's value, bitwise-parallel; values may carry any int width."""
        val = [mask]
        for node in self.nodes[1:]:
            if node[0] == "in":
                val.append(values.get(node[1], 0) & mask)
            else:
                a, b = node[1], node[2]
                va = val[a >> 1] ^ (mask if a & 1 else 0)
                vb = val[b >> 1] ^ (mask if b & 1 else 0)
                val.append(va & vb)
        return val

    def evaluate(self, values: dict, roots: list[int], mask: int = 1) -> list[int]:
        """Bitwise-parallel values of `roots`; values may carry any int width."""
        val = self.simulate(values, mask)
        return [val[r >> 1] ^ (mask if r & 1 else 0) for r in roots]

    def cone(self, roots: list[int]) -> tuple[list[int], list[int]]:
        """Node indices reachable from roots: (input nodes in label order,
        and nodes in index order).  Every node comes after its fanins, so
        one pass down from the highest root marks the whole cone."""
        top = max(roots, default=0) >> 1
        mark = bytearray(top + 1)
        for r in roots:
            mark[r >> 1] = 1
        ins, ands = [], []
        for i in range(top, 0, -1):
            if mark[i]:
                node = self.nodes[i]
                if node[0] == "and":
                    mark[node[1] >> 1] = mark[node[2] >> 1] = 1
                    ands.append(i)
                else:
                    ins.append(i)
        return sorted(ins, key=self.label), ands[::-1]
