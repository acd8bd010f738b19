"""Walk through the two canonical highest weight vectors.

Shows the annihilation conditions, the weight triples, and the first
lowering step out of each vector, all in exact arithmetic.
"""

from sl2crit import rep

GENERATORS = ["e0", "e1", "f0", "f1", "h0", "h1"]


def show(name, v):
    print(f"--- {name} ---")
    print(f"  state: {rep.state_to_json(v)}")
    w = rep.weight_of(v)
    print(f"  weight (h0, h1, d) = ({w.h0}, {w.h1}, {w.d})")
    for g in GENERATORS:
        out = rep.chevalley_act(g, v)
        if not out:
            print(f"  {g}.{name} = 0")
        else:
            print(f"  {g}.{name} = {rep.state_to_json(out)}")
    print()


def main():
    v0, v1 = rep.v0(), rep.v1()
    show("v0", v0)
    show("v1", v1)

    # Lowering then raising returns a multiple of the original vector.
    f0v0 = rep.chevalley_act("f0", v0)
    print("e0.(f0.v0) =", rep.state_to_json(rep.chevalley_act("e0", f0v0)))
    f1v1 = rep.chevalley_act("f1", v1)
    print("e1.(f1.v1) =", rep.state_to_json(rep.chevalley_act("e1", f1v1)))
    print()
    print("Both equal -2 times the starting vector, matching h0.v0 = -2 v0")
    print("and h1.v1 = -2 v1.")


if __name__ == "__main__":
    main()
