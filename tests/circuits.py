"""Hand-built reference circuits shared by the test modules.

Each fixture returns a freshly parsed netlist so tests can't contaminate
each other through shared Gate objects.
"""

from sfqlec import parse_netlist

# Four-input pipeline whose d input feeds two reconverging branches: a fast
# two-stage branch into the AND tree and a slow DFF chain that the final
# AND/OR pair functionally masks (out = m AND (m OR d_slow) = m).  The
# surviving dependency samples d one cycle later than a, b and c, so the
# block computes NOT(a) AND b AND c AND d only when d is fed one cycle late.
LATE_D_BENCH = """
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(out)
na = INV(a)
bD = DFF(b)
t1 = AND2(na, bD)
cD = DFF(c)
dsp = SPLIT(d)
t2 = AND2(cD, dsp)
m = AND2(t1, t2)
msp = SPLIT(m)
mD = DFF(msp)
r1 = DFF(dsp)
r2 = DFF(r1)
r3 = DFF(r2)
orm = OR2(msp, r3)
out = AND2(mD, orm)
"""

LATE_D_GOLDEN_BENCH = """
INPUT(a)
INPUT(b)
INPUT(c)
INPUT(d)
OUTPUT(out)
na = INV(a)
t1 = AND2(na, b)
t2 = AND2(c, d)
out = AND2(t1, t2)
"""


def late_d_netlist():
    return parse_netlist(LATE_D_BENCH, name="late_d")


def late_d_golden():
    return parse_netlist(LATE_D_GOLDEN_BENCH, name="late_d_golden")


# Minimal balanced reconvergence: p splits into an OR branch and a DFF
# branch that meet again one stage later.  Absorption makes the whole block
# compute plain p, which makes it a tiny true-equivalence SAT case.
SPLIT_RECONVERGE_BENCH = """
INPUT(p)
INPUT(q)
OUTPUT(a2)
ps = SPLIT(p)
g1 = OR2(ps, q)
d1 = DFF(ps)
a2 = AND2(g1, d1)
"""


def split_reconverge_netlist():
    return parse_netlist(SPLIT_RECONVERGE_BENCH, name="split_reconverge")


def split_reconverge_golden():
    text = """
INPUT(p)
INPUT(q)
OUTPUT(a2)
g1 = OR2(p, q)
d1 = BUF(p)
a2 = AND2(g1, d1)
"""
    return parse_netlist(text, name="split_reconverge_golden")


def split_reconverge_golden_reduced():
    # same function, structurally unrelated: a2 = p
    text = """
INPUT(p)
INPUT(q)
OUTPUT(a2)
a2 = BUF(p)
"""
    return parse_netlist(text, name="split_reconverge_reduced")


# Inverter feeding a splitter whose two branches are balanced by one DFF.
# Removing the balancing DFF duplicates the inverter across two steps.
INV_SPLIT_BENCH = """
INPUT(a)
INPUT(w)
OUTPUT(out)
i1 = INV(a)
isp = SPLIT(i1)
wD = DFF(w)
b2 = XOR2(isp, wD)
b1 = DFF(isp)
out = AND2(b1, b2)
"""


def inv_split_netlist():
    return parse_netlist(INV_SPLIT_BENCH, name="inv_split")


# Deep AND-tree cone behind a splitter at clocked depth 4; a balancing DFF
# on one splitter branch.  Removing that DFF re-expands the whole seven-gate
# cone one extra time, against an upper bound of 2^4 - 1.
SPLIT_DEEP_CONE_BENCH = """
INPUT(i1)
INPUT(i2)
INPUT(i3)
INPUT(i4)
INPUT(i5)
INPUT(i6)
OUTPUT(out)
g1 = AND2(i1, i2)
g2 = AND2(i3, i4)
g3 = AND2(i5, i6)
g4 = AND2(g1, g2)
g5 = DFF(g3)
g6 = AND2(g4, g5)
g7 = DFF(g6)
sp = SPLIT(g7)
fA = DFF(sp)
fB = INV(sp)
out = AND2(fA, fB)
"""


def split_deep_cone_netlist():
    return parse_netlist(SPLIT_DEEP_CONE_BENCH, name="split_deep_cone")


# Two separate split-then-rebalance paths feeding one output, for checking
# that duplication bounds of independent removals add up.
DOUBLE_SPLIT_BENCH = """
INPUT(x1)
INPUT(x2)
INPUT(x3)
INPUT(x4)
OUTPUT(out)
la = AND2(x1, x2)
lb = INV(la)
lsp = SPLIT(lb)
ld = DFF(lsp)
li = INV(lsp)
lm = AND2(ld, li)
ra = OR2(x3, x4)
rb = INV(ra)
rsp = SPLIT(rb)
rd = DFF(rsp)
ri = INV(rsp)
rm = AND2(rd, ri)
out = XOR2(lm, rm)
"""


def double_split_netlist():
    return parse_netlist(DOUBLE_SPLIT_BENCH, name="double_split")


# The net the INV drives has the shape of the arrival-buffer names an
# earlier apply_itcl built for d under `--arrivals d:1`; the shift only moves
# d's pins, so it is an ordinary net.
ITCL_CLASH_BENCH = """INPUT(a)
INPUT(d)
OUTPUT(o2)
OUTPUT(o1)
o1 = BUF(d)
d.itcl.t-1 = INV(a)
o2 = BUF(d.itcl.t-1)
"""
