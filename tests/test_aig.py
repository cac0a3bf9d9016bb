import random

from sfqlec.aig import FALSE, TRUE, Aig


def test_constant_edges():
    assert TRUE == 0 and FALSE == 1
    assert Aig.not_(TRUE) == FALSE
    assert Aig.not_(Aig.not_(42)) == 42


def test_and_simplifications():
    g = Aig()
    x = g.input_("x")
    y = g.input_("y")
    assert g.and_(x, TRUE) == x
    assert g.and_(TRUE, x) == x
    assert g.and_(x, FALSE) == FALSE
    assert g.and_(x, x) == x
    assert g.and_(x, g.not_(x)) == FALSE
    n_before = len(g.nodes)
    a1 = g.and_(x, y)
    a2 = g.and_(y, x)  # commuted operands hash to the same node
    assert a1 == a2
    assert len(g.nodes) == n_before + 1


def test_inputs_are_memoized_by_label():
    g = Aig()
    assert g.input_(("net", -3)) == g.input_(("net", -3))
    assert g.input_("a") != g.input_("b")
    assert g.label(g.input_("a") >> 1) == "a"


def test_identical_cones_merge_to_identical_edges():
    g = Aig()
    a, b, c = (g.input_(n) for n in "abc")
    f1 = g.or_(g.and_(a, b), c)
    f2 = g.or_(g.and_(b, a), c)
    assert f1 == f2
    assert g.xor_(f1, f2) == FALSE  # a self-miter vanishes structurally


def test_evaluate_matches_python_semantics():
    for seed in range(40):
        rng = random.Random(seed)
        g = Aig()
        names = ["a", "b", "c", "d"]
        edges = [g.input_(n) for n in names]
        for _ in range(rng.randint(1, 12)):
            op = rng.choice(("and", "or", "xor", "not"))
            if op == "not":
                edges.append(g.not_(rng.choice(edges)))
            else:
                x, y = rng.choice(edges), rng.choice(edges)
                edges.append(getattr(g, op + "_")(x, y))
        root = edges[-1]

        def ref(vals, e=root):
            def node_val(edge):
                idx, neg = edge >> 1, edge & 1
                node = g.nodes[idx]
                if node[0] == "const":
                    v = 1
                elif node[0] == "in":
                    v = vals[node[1]]
                else:
                    v = node_val(node[1]) & node_val(node[2])
                return v ^ neg

            return node_val(e)

        for _ in range(8):
            vals = {n: rng.getrandbits(1) for n in names}
            assert g.evaluate(vals, [root])[0] == ref(vals)


def test_evaluate_is_bitwise_parallel():
    g = Aig()
    a, b = g.input_("a"), g.input_("b")
    root = g.xor_(a, b)
    mask = (1 << 16) - 1
    va, vb = 0b1100110011001100, 0b1010101010101010
    got = g.evaluate({"a": va, "b": vb}, [root], mask)[0]
    assert got == (va ^ vb) & mask


def test_cone_reports_reachable_nodes_only():
    g = Aig()
    a, b, c = (g.input_(n) for n in "abc")
    used = g.and_(a, b)
    g.and_(used, c)  # extra logic outside the queried cone
    ins, ands = g.cone([used])
    assert [g.nodes[i][1] for i in ins] == ["a", "b"]
    assert len(ands) == 1
    ins_all, ands_all = g.cone([g.and_(used, c)])
    assert len(ins_all) == 3 and len(ands_all) == 2
    assert g.cone([TRUE]) == ([], [])


def reachable(g, roots):
    """Definitional cone: every node a fanin walk reaches from roots."""
    seen, todo = set(), [r >> 1 for r in roots]
    while todo:
        i = todo.pop()
        if i and i not in seen:
            seen.add(i)
            if g.nodes[i][0] == "and":
                todo += [g.nodes[i][1] >> 1, g.nodes[i][2] >> 1]
    ins = sorted((i for i in seen if g.nodes[i][0] == "in"), key=g.label)
    return ins, sorted(i for i in seen if g.nodes[i][0] == "and")


def test_cone_matches_a_reachability_walk():
    rng = random.Random(7)
    for _ in range(300):
        g = Aig()
        labels = [f"x{j}" for j in range(rng.randint(1, 8))]
        rng.shuffle(labels)  # node order disagrees with label order
        edges = [TRUE, FALSE] + [g.input_(name) for name in labels]
        for _ in range(rng.randint(0, 40)):
            a, b = rng.choice(edges) ^ rng.randint(0, 1), rng.choice(edges) ^ rng.randint(0, 1)
            edges.append(rng.choice((g.and_, g.or_, g.xor_))(a, b))
        picks = [rng.choice(edges) ^ rng.randint(0, 1) for _ in range(rng.randint(0, 4))]
        for roots in ([], [TRUE], [FALSE], picks, picks + picks[:1], [FALSE] + picks):
            assert g.cone(roots) == reachable(g, roots), roots
