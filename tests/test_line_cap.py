"""The library's size cap: the modules of src/ainfty hold at most 3750 lines together."""

from pathlib import Path

LINE_CAP = 3750


def test_library_stays_within_line_cap():
    package = Path(__file__).resolve().parents[1] / "src" / "ainfty"
    counts = {
        path.name: len(path.read_text(encoding="utf-8").splitlines())
        for path in package.glob("*.py")
    }
    assert counts, f"no modules under {package}"
    assert sum(counts.values()) <= LINE_CAP, counts
