"""The bytes the CLI writes, pinned from one commit to the next.

Each command of ``CORPUS`` runs through ``cli.main`` and the sha256 of
every CSV it writes (and of the ``sweep --svg`` figures) must equal the
digest in ``DIGESTS``.  The corpus takes every quadrature route with and
without ``--dt``, the ``spectral`` subcommand, and ``simulate`` and
``compare`` with identity noise.  Rank-M noise is left out: its matrix
products round differently with the BLAS build and thread count.  The
manifests are left out too, since they record the run's duration.
"""
import contextlib
import hashlib
import io
import json

import pytest

from ewslab import cli
from ewslab.quadrature import route_of

# a sum of one-axis powers, x**2 + y**4 / 2: the separable reduction
SEPARABLE = {"kind": "polynomial", "root": [0.0, 0.0], "domain": [[0.0, 0.0], [1.0, 1.0]],
             "coeffs": [{"index": [0, 4], "coeff": 0.5}, {"index": [2, 0], "coeff": 1.0}]}
# the samples of the lattice Laplacian, multiplier 2 cos(k) - 2
LAPLACE = "-2\n1\n0\n0\n0\n0\n0\n0\n0\n0\n0\n0\n0\n0\n1\n"

_GRID = ["--p-decades=-9:-2", "--points", "8"]
_SIM = ["--n", "19", "--nt", "3000", "--burn-in", "200", "--replicas", "2", "--seed", "5"]

# name -> argv; {poly} and {conv} stand for the files above
CORPUS = {
    "piecewise": ["sweep", "--symbol", "pw:1,2", "--g", "box:-1,1", *_GRID],
    "piecewise-dt": ["sweep", "--symbol", "pw:1,2", "--g", "box:-1,1", *_GRID, "--dt", "0.01"],
    "kernel": ["sweep", "--symbol", "{conv}", "--g", "box:-1,1", *_GRID],
    "kernel-dt": ["sweep", "--symbol", "{conv}", "--g", "box:-1,1", *_GRID, "--dt", "0.05"],
    "power-law": ["sweep", "--symbol", "tool:2", "--g", "box:0,1", *_GRID, "--svg"],
    "power-law-dt": ["sweep", "--symbol", "tool:2", "--g", "power:0.3,0.5", *_GRID,
                     "--dt", "0.01", "--sigma", "2.5"],
    "offset-log": ["sweep", "--symbol", "mono:2", "--g", "power:0.25,1", *_GRID],
    "offset-log-dt": ["sweep", "--symbol", "sh1d", "--g", "box:-2,2", *_GRID, "--dt", "0.01"],
    "polar": ["sweep", "--symbol", "radial:2", "--g", "qdisc:1", *_GRID, "--svg"],
    "polar-dt": ["sweep", "--symbol", "sh2d", "--g", "disc:1.5", *_GRID, "--dt", "0.01"],
    "separable": ["sweep", "--symbol", "{poly}", "--g", "box:-1,1,0,1", *_GRID],
    "separable-dt": ["sweep", "--symbol", "{poly}", "--g", "box:-1,1,0,1", *_GRID,
                     "--dt", "0.01"],
    "tensor-2d": ["sweep", "--symbol", "mono:1,1", "--g", "box:0,1,0,1", *_GRID],
    "tensor-3d-dt": ["sweep", "--symbol", "mono:1,2,3", "--g", "cube:1", *_GRID, "--dt", "0.1"],
    "spectral-sh1d": ["spectral", "--symbol", "sh1d", "--g", "box:-2,2", *_GRID],
    "spectral-power2m": ["spectral", "--symbol", "power2m:2", "--g", "box:-1,1", *_GRID],
    "spectral-kernel": ["spectral", "--symbol", "{conv}", "--g", "box:0,2", *_GRID],
    "spectral-sh2d-disc": ["spectral", "--symbol", "sh2d", "--g", "disc:1.5", *_GRID],
    "spectral-sh2d-qdisc": ["spectral", "--symbol", "sh2d", "--g", "qdisc:1.2", *_GRID,
                            "--sigma", "0.3"],
    "simulate": ["simulate", "--symbol", "tool:2", "--g", "box:-0.5,0.5", "--p", "-0.5", *_SIM],
    "compare": ["compare", "--symbol", "tool:2", "--g", "box:-0.5,0.5", "--p-decades=-6:-1",
                "--points", "24", "--sim-points", "2", "--sim-decades=-1:0", "--dt", "0.05",
                *_SIM],
}

# sha256 of each output but the manifest
DIGESTS = {
    "piecewise": {
        "sweep.csv": "696fac6ba38af1d74383b0a287d909b3756415e34eb49078b5e1b138e6da86e4",
    },
    "piecewise-dt": {
        "sweep.csv": "dcce0560026286df18ee35025ea7d006579e543877ac59fd466be099676db82a",
    },
    "kernel": {
        "sweep.csv": "b174d69ccf64cbfc58c04e99d7e91fddc44307175398ad2565104cca4ed98231",
    },
    "kernel-dt": {
        "sweep.csv": "aad0946b4a76a72069ed8f806579e2f62d4f0c37ddf4d44c7c78951bd5aa4101",
    },
    "power-law": {
        "sweep.csv": "03fb6619223b77bb0b2a24e3cb0fa37e1c9fbc5fd0b1f8fdca717186ae839023",
        "sweep.svg": "b46d6e16855618276567e519d65ebb056d4f48b35329d05a7834e58528bfd222",
    },
    "power-law-dt": {
        "sweep.csv": "9c5de65fc09191e0ef479a2160741e9765b071047d0ef7ac43ffc090b40426bd",
    },
    "offset-log": {
        "sweep.csv": "e49124faf2ef129ddf650f1cec519fda8a48913d109c98111f6ddcd6afc4d755",
    },
    "offset-log-dt": {
        "sweep.csv": "c498b6b5d50eff93ac4f3dd18bc27703d69cbb71cc25a549e986337ad11895e9",
    },
    "polar": {
        "sweep.csv": "6ac12fac8bd56109bce0798043a0521d43f4c647653fe0dbafb6a08ee09f4131",
        "sweep.svg": "e5413c3f03ce0096e0d3c059230a7961002ffea6b7b2d04dafc42c8cc5a080c1",
    },
    "polar-dt": {
        "sweep.csv": "50e363172ad618280f1ad0b09ca582ddd77dcfa6b4e53203e491c6ace5c66763",
    },
    "separable": {
        "sweep.csv": "a2bc389e72ad0fab2b86907ca5cf05bdbe3028238ea480f9d8957445bda4dfe4",
    },
    "separable-dt": {
        "sweep.csv": "cf27d20f0e5f6073023983ea432acacfdf9603c186dfb6d99cfeb977a20d051b",
    },
    "tensor-2d": {
        "sweep.csv": "5ccd88efca3a1a53ff498c28042e19fed957f3dcf9a143ddffaf3b08b4af7c6a",
    },
    "tensor-3d-dt": {
        "sweep.csv": "ec577fd9b4f6c67f1b33dde3d8f17ad5c2db6b5666b0087bff1c1663c7323e74",
    },
    "spectral-sh1d": {
        "spectral.csv": "328757637b72fefe5a72435dfbe8736b656674011d2fa64d9a4388e35da114ad",
    },
    "spectral-power2m": {
        "spectral.csv": "91069a63698caf3f7908e5eae31d5818d680791c9fe9a568daf0627785682ad7",
    },
    "spectral-kernel": {
        "spectral.csv": "8d32d34d38113cbac41473b2bf99d9b87313d3aa33a07764e001a16e22e23b8a",
    },
    "spectral-sh2d-disc": {
        "spectral.csv": "179fcac8cfd9c401f6164729f2d8e229be3ac9f6ec2813ea98ff92fc6f8df34b",
    },
    "spectral-sh2d-qdisc": {
        "spectral.csv": "3bb5fe1a5f53ebd69d6fb3df77ad8a2944393fdead2ffd72a7ce9089ca813718",
    },
    "simulate": {
        "simulate.csv": "73a8351c5672d9008bf6cd46ea5247c54a049c4ec2264e69156a356ca3a44e83",
    },
    "compare": {
        "compare_quadrature.csv": "a4ee0bee70d49987ea763f959a1b516b733a432049347b24a0336e6dbdf52932",
        "compare_simulation.csv": "b87017b6f8e3d1ddb0e73ee359e117625b250d913a6e8a6445b08b892cc2e42a",
    },
}


def _argv(name, tmp_path):
    """The argv of one corpus command, its files written into ``tmp_path``."""
    poly = tmp_path / "separable.json"
    poly.write_text(json.dumps(SEPARABLE))
    conv = tmp_path / "laplace.txt"
    conv.write_text(LAPLACE)
    files = {"{poly}": f"poly:{poly}", "{conv}": f"conv:{conv}:1"}
    return [files.get(tok, tok) for tok in CORPUS[name]] + ["--out", str(tmp_path / name)]


def _run(name, tmp_path):
    """The sha256 of each file one corpus command writes, but its manifest."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(_argv(name, tmp_path)) == 0, name
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted((tmp_path / name).iterdir())
            if not path.name.endswith("_manifest.json")}


def test_the_corpus_takes_every_route(tmp_path):
    assert set(CORPUS) == set(DIGESTS)
    routes = set()
    for name in CORPUS:
        args = cli.build_parser().parse_args(cli._merge_dash_values(_argv(name, tmp_path)))
        if args.command == "sweep":
            symbol = cli.parse_symbol(args.symbol)
            routes.add(route_of(symbol, cli.parse_window(args.g, symbol.dim)).name)
    assert routes == {"piecewise", "kernel exact", "power law", "offset-log", "polar",
                      "separable reduction", "tensor"}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_output_bytes_are_pinned(name, tmp_path):
    got = _run(name, tmp_path)
    assert got == DIGESTS[name], (
        f"the bytes of `{name}` changed: if the change is meant, update its digests in "
        f"DIGESTS and say in CHANGES.md why the output moved; got {got}")
