"""Regenerate the benchmark fixtures under perfbench/fixtures/.

    python3 perfbench/make_fixtures.py

Interior censuses come from the brute-force oracle in ``oracle.py``, never
from the package.  The golden documents (digests of the structured CLI
output of ``ineq``, ``bounds``, ``chain``, ``cert`` and ``report`` on the
unmapped fixtures, and the ``atlas2d`` text) are the package's answers at
the commit that froze them; the benchmark then holds every later commit to
them.  Rerunning this script on another commit overwrites those goldens,
so only do it when a fixture is added on purpose.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
from workloads import (  # noqa: E402
    FIXTURE_DIR,
    AxisMap,
    census_rows,
    digest,
    longest_axis,
    normalize,
)

from onepoint import cli  # noqa: E402

SYLVESTER = (2, 3, 7, 43, 1807)


def _axis_simplex(scales: list[int]) -> list[tuple[int, ...]]:
    d = len(scales)
    return [(0,) * d] + [tuple(s if c == i else 0 for c in range(d)) for i, s in enumerate(scales)]


def base_fixtures() -> list[tuple[str, tuple[str, ...], list[tuple[int, ...]]]]:
    out = []
    for d in range(2, 6):
        out.append((f"zpw{d}", ("member",), _axis_simplex(list(SYLVESTER[:d]))))
        out.append((f"dilated{d}", ("member",), _axis_simplex([d + 1] * d)))
        out.append(
            (f"reflected{d}", ("member",),
             [(-1,) * d] + [tuple(int(c == i) for c in range(d)) for i in range(d)])
        )
    # dual of the weighted projective simplex P(1,1,4,6): volume 12, above zpw3
    out.append(("dual1146", ("member",), [(-1, -1, -1), (11, -1, -1), (-1, 2, -1), (-1, -1, 1)]))
    out.append(("wide7", ("nonmember",), _axis_simplex([7, 2])))
    out.append(("tri300", ("nonmember",), _axis_simplex([300, 300])))
    out.append(("tet60", ("nonmember",), _axis_simplex([60, 60, 60])))
    out.append(("dil20d4", ("nonmember",), _axis_simplex([20] * 4)))
    out.append(("dil9d5", ("nonmember",), _axis_simplex([9] * 5)))
    for n in (100, 1000, 3000, 10000):
        groups = ("nonmember", "wide") if n == 3000 else ("wide",)
        out.append((f"wide{n}", groups, _axis_simplex([n, 2])))
    return out


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, buf.getvalue()


def structured(command: str, argv: list[str]) -> tuple[int, dict]:
    code, out = run_cli(["--format", "structured", command, *argv])
    return code, json.loads(out)


def golden_doc(command: str, argv: list[str], dim: int, **readable) -> dict:
    code, doc = structured(command, argv)
    entry = {"exit": code, "sha256": digest(normalize(command, doc, AxisMap.identity(dim)))}
    entry.update({k: pick(doc) for k, pick in readable.items()})
    return entry


def draw_random(rng: random.Random, tmp: Path) -> list[tuple[str, list[tuple[int, ...]]]]:
    """Simplices with two or more interior points whose lex-first one
    violates a partition inequality, drawn like the certificate tests."""
    # eight: a certify repetition then has 25 ops, and its 90th percentile
    # falls in the middle of the wide1000 latencies, not at the edge of a block
    wanted = {3: 3, 4: 3, 5: 2}
    limits = {3: 4, 4: 3, 5: 2}
    out = []
    for d, count in wanted.items():
        found = 0
        while found < count:
            verts = [tuple(rng.randint(-limits[d], limits[d]) for _ in range(d)) for _ in range(d + 1)]
            if oracle.hull_volume_times_factorial(verts) == 0:
                continue
            points = oracle.census(verts)
            if len(points) < 2:
                continue
            path = _write(tmp / "probe.json", verts)
            _, doc = structured("cert", [path, "--point=" + ",".join(map(str, points[0]))])
            if not doc.get("found"):
                continue
            out.append((f"random{d}-{found}", verts))
            found += 1
    return out


def _write(path: Path, vertices) -> str:
    path.write_text(json.dumps({"dim": len(vertices[0]), "vertices": [list(v) for v in vertices]}))
    return str(path)


def main() -> None:
    rng = random.Random(20261017)
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        specs = base_fixtures()
        specs += [(n, ("random",), v) for n, v in draw_random(rng, tmp)]
        members = []
        for fixture_name, groups, vertices in specs:
            d = len(vertices[0])
            points = oracle.census(vertices)
            axis = longest_axis(vertices)
            path = _write(tmp / f"{fixture_name}.json", vertices)
            doc: dict = {
                "name": fixture_name,
                "groups": list(groups),
                "vertices": [list(v) for v in vertices],
                "volume_times_factorial": oracle.hull_volume_times_factorial(vertices),
                "interior_count": len(points),
                "row_axis": axis,
                "interior_rows": census_rows(points, axis),
                "golden": {},
            }
            cert_argv = [path]
            if "member" in groups:
                members.append(path)
                if len(points) != 1:
                    raise SystemExit(f"{fixture_name}: oracle finds {len(points)} interior points")
                for command in ("ineq", "bounds", "chain"):
                    doc["golden"][command] = golden_doc(
                        command, [path], d, passed=lambda doc: doc["passed"]
                    )
                start = points[0]
            else:
                start = (1, 1) if "wide" in groups else points[0]
                cert_argv.append("--point=" + ",".join(map(str, start)))
            if {"member", "wide", "random"} & set(groups):
                code, cert = structured("cert", cert_argv)
                if code != 0:
                    raise SystemExit(f"{fixture_name}: cert exits {code}")
                doc["cert"] = {
                    "start": list(start),
                    "found": cert["found"],
                    "point": cert.get("point"),
                    "sha256": digest(normalize("cert", cert, AxisMap.identity(d))),
                }
            (FIXTURE_DIR / f"{fixture_name}.json").write_text(
                json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8"
            )
        # the report runs over the members in fixture-file order, as the workload does
        members.sort(key=lambda p: Path(p).name)
        report = golden_doc(
            "report", members, 0,
            max_volume_by_dim=lambda doc: {str(e["dim"]): e["max_volume"] for e in doc["dimensions"]},
        )
        (FIXTURE_DIR / "report.json").write_text(json.dumps(report, sort_keys=True) + "\n")
    texts = {}
    for r in (9, 12, 15):
        code, out = run_cli(["atlas2d", "--radius", str(r)])
        if code != 0:
            raise SystemExit(f"atlas2d --radius {r} exits {code}")
        texts[r] = out.replace(f"within radius {r}:", "within radius {radius}:", 1)
    if len(set(texts.values())) != 1:
        raise SystemExit("atlas2d text depends on the radius beyond its first line")
    (FIXTURE_DIR / "atlas.json").write_text(json.dumps({"exit": 0, "text": texts[9]}) + "\n")


if __name__ == "__main__":
    main()
