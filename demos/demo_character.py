"""Graded dimension census.

Counts basis vectors of the full module and of the vacuum space in each
(twice-)degree and compares with the closed product-formula series.
"""

from sl2crit.harness import character, character_matches


def main():
    table = character(12)
    print("charge cutoff:", table["charge_bound"],
          "(charge p starts at twice-degree p^2, so the next charge is "
          "out of range)")
    print()
    for kind, title in [("V", "full module"), ("Omega", "vacuum space")]:
        print(f"{title}:")
        print("  twice-degree  enumerated  formula")
        for row in table[kind]:
            print(f"  {row['twice_degree']:>12}  {row['enumerated']:>10}"
                  f"  {row['formula']:>7}")
        print()
    print("enumeration matches formula:", character_matches(table))


if __name__ == "__main__":
    main()
