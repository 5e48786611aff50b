"""Hochschild (co)homology of group rings against Burghelea's closed forms.

For a finite group G, HH_k(Z[G]) is the sum over the conjugacy classes of
G of H_k(C(g); Z), C(g) the centralizer of a class representative g:
- Z[C_n]: n classes with centralizer C_n, so HH_0 = Z^n, HH_k = (Z/n)^n for
  odd k and HH_k = 0 for even k > 0;
- Z[S_3]: the classes of 1, (01) and (012), with centralizers S_3, C_2 and
  C_3, so HH_0..HH_3 are Z^3, Z/2 + Z/6, 0 and Z/6 + Z/6.

hh reports HH_k at degree k + 1 and cohomology reports HH^k at degree k - 1.
Z[G] is a symmetric algebra, so its dual bimodule is the diagonal one and
HH^k = Hom(HH_k, Z) + Ext(HH_{k-1}, Z). Over Z/p the complexes are those over
Z reduced mod p, so universal coefficients give both dimensions as the free
rank of HH_k plus the number of invariant factors of HH_k and of HH_{k-1}
that p divides. The top degree of F_L holds length-L cycles that the
truncation leaves without boundaries, so each test stops below it.
"""

import pytest

from ainfty.cli import main
from ainfty.documents import serialize

from helpers import cyclic_group_document, symmetric_group_document


def burghelea(group: str, k: int) -> tuple[int, tuple[int, ...]]:
    """HH_k of the group ring over Z, as (free rank, invariant factors)."""
    if group == "S3":
        return [(3, ()), (0, (2, 6)), (0, ()), (0, (6, 6))][k]
    n = int(group.removeprefix("C"))
    if k == 0:
        return n, ()
    return 0, (n,) * n if k % 2 else ()


def expected_text(group: str, k: int, command: str, p: int | None) -> str:
    """The report's group text in classical degree k, by universal coefficients."""
    free, torsion = burghelea(group, k)
    below = burghelea(group, k - 1)[1] if k else ()
    if p is not None:
        return f"dim {free + sum(d % p == 0 for d in torsion + below)}"
    if command == "cohomology":
        torsion = below
    bits = [f"Z^{free}"] if free else []
    if torsion:
        bits.append(",".join(f"Z/{d}" for d in torsion))
    return " + ".join(bits) or "0"


def document(group: str, p: int | None) -> dict:
    ring = None if p is None else {"kind": "Zp", "p": p}
    if group == "S3":
        return symmetric_group_document(ring)
    return cyclic_group_document(int(group.removeprefix("C")), ring)


# (group, length cutoff, rings: Z, a prime dividing |G|, a prime not
# dividing it); S_3 takes both primes that divide 6
CASES = [
    ("C2", 6, [None, 2, 3]),
    ("C3", 6, [None, 3, 2]),
    ("C5", 4, [None, 5, 2]),
    ("S3", 4, [None, 2, 3, 5]),
]


@pytest.mark.parametrize("command", ["hh", "cohomology"])
@pytest.mark.parametrize(
    "group,length,p", [(g, L, p) for g, L, primes in CASES for p in primes]
)
def test_group_ring_matches_burghelea(tmp_path, capsys, command, group, length, p):
    path = tmp_path / f"{group}.json"
    path.write_text(serialize(document(group, p)))
    code = main([command, str(path), "--length", str(length)])
    assert code == 0
    rows = {}
    for line in capsys.readouterr().out.splitlines():
        label, sep, text = line.partition(": ")
        if sep and "  degree " in label:
            rows[int(label.rsplit(" ", 1)[1])] = text
    # hh's degree k + 1 and cohomology's k - 1 are HH_k and HH^k, below the top
    offset = 1 if command == "hh" else -1
    assert max(rows) == length + offset
    for k in range(length):
        assert rows[k + offset] == expected_text(group, k, command, p), (k, rows)


def test_symmetric_group_holds_a_small_v(tmp_path, capsys, monkeypatch):
    # hh Z[S_3] at L=4 over Z: unit pivots make no column operation, so the
    # V'' that _smith hands back holds only the column operations of
    # remainder rounds. With one at every unit pivot, the heap's V' held
    # 135 360 entries here.
    import ainfty.homology as homology

    original = homology._smith
    held = []

    def recorded(*args, **kwargs):
        out = original(*args, **kwargs)
        chain, _, v = out[2]
        held.append(sum(len(q[2]) for q in chain if q[2]) + sum(map(len, v.values())))
        return out

    monkeypatch.setattr(homology, "_smith", recorded)
    path = tmp_path / "S3.json"
    path.write_text(serialize(symmetric_group_document()))
    assert main(["hh", str(path), "--length", "4"]) == 0
    capsys.readouterr()
    assert held and sum(held) < 3000
