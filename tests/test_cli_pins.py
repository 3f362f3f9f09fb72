"""The bytes the command line writes, pinned.

Every construct family in every format, with and without
``--normalize``, every ``verify`` check on a passing and a failing
input, the other subcommands, and the usage, input and breach errors:
the exit code, a digest of stdout and stderr are held here, so that a
change to how the CLI parses and dispatches can be seen to print the
same bytes.
"""

import hashlib

import pytest

from exactframes.cli import main as cli_main
from exactframes.hyperplane import build
from exactframes.io import FORMATS, serialize
from exactframes.paving import scaled_gram
from exactframes.two_tight import (ap_two_tight, make_two_row_table,
                                   weight_in_front)
from exactframes.unitary import mub_r4
from paving_reference import reflected

INPUTS = {
    "swap.csv": "0,1\n1,0\n",
    "rot.csv": "3/5,4/5\n-4/5,3/5\n",
    "tcd3.csv": "-1/3,2/3,2/3\n2/3,-1/3,2/3\n2/3,2/3,-1/3\n",
    "cfr3.csv": "1/3*sqrt(3),1/3*sqrt(3),1/3*sqrt(3)\n"
                "1/2*sqrt(2),-1/2*sqrt(2),0\n"
                "1/6*sqrt(6),1/6*sqrt(6),-1/3*sqrt(6)\n",
    "bad.csv": "1,2\n3,4\n",
    "skew.csv": "1,-1,0\n1,0,-1\n",
    "ap12.json": serialize(ap_two_tight(1, 2)),
    "ap34.json": serialize(ap_two_tight(3, 4)),
    "h6.json": serialize(build(6).matrix),
    "mub2.json": serialize(mub_r4()[1]),
    "mub3.json": serialize(mub_r4()[2]),
    # 16x8 frames of construct weight-in-front --values V --m M
    "wif7531.json": serialize(weight_in_front(
        make_two_row_table((7, 5, 3, 1), 8))),
    "wif11642.json": serialize(weight_in_front(
        make_two_row_table((11, 6, 4, 2), 13))),
    # half-rank projections whose best balanced 2-paving lies strictly
    # between 0 and 1 (about 0.44 and 0.34): a frame, and a Gram
    "wif7531h.json": serialize(reflected(
        [1, 2, 0, 0, 0, 0, 0, 0, 1, 2, 0, 0, 0, 0, 0, 0],
        weight_in_front(make_two_row_table((7, 5, 3, 1), 8)))),
    "wif11642h-gram.json": serialize(scaled_gram(reflected(
        [0, 1, 0, 0, 3, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1],
        weight_in_front(make_two_row_table((11, 6, 4, 2), 13))), 2)),
}

CONSTRUCT = {
    "hyperplane": ["hyperplane", "--n", "6"],
    "constant-first-row": ["constant-first-row", "--n", "6"],
    "constant-two-rows": ["constant-two-rows", "--n", "6"],
    "two-constant-diag": ["two-constant-diag", "--n", "6"],
    "third-case": ["third-case"],
    "block-pair": ["block-pair", "--a", "3/5", "--b", "4/5",
                   "--left", "swap.csv", "--right", "rot.csv"],
    "block-pair-plain": ["block-pair", "--form", "plain",
                         "--a", "1/2*sqrt(2)", "--b", "1/2*sqrt(2)",
                         "--left", "rot.csv", "--right", "swap.csv"],
    "mub-r4": ["mub-r4"],
    "ap-two-tight": ["ap-two-tight", "--a", "1", "--b", "2"],
    "weight-in-front": ["weight-in-front", "--values", "15,13,11,9",
                        "--m", "16"],
    "abcd-outline": ["abcd-outline", "--a", "1", "--b", "2", "--c", "3",
                     "--d", "4"],
    "iterate-two-tight": ["iterate-two-tight", "--left", "ap12.json",
                          "--right", "ap34.json"],
    "weave": ["weave", "--coeffs", "rot.csv",
              "--blocks", "tcd3.csv", "cfr3.csv"],
}

# "case format": (stdout digest, stdout digest with --normalize)
CONSTRUCT_PINS = {
    "hyperplane exact-json": ("bd0c2d53707bc21f", "d7b29633b0acd237"),
    "hyperplane csv": ("01c51c6ca232f58e", "c0cca08d949af3f7"),
    "hyperplane latex": ("ba7c648f4a154a1d", "fb81ddff20661d9d"),
    "hyperplane float-csv": ("01c51c6ca232f58e", "a369dbb7ba1b5ea2"),
    "constant-first-row exact-json": ("3bf0dbfaa8a204c8", "3bf0dbfaa8a204c8"),
    "constant-first-row csv": ("e718c672130142fa", "e718c672130142fa"),
    "constant-first-row latex": ("7f2d502c750dd748", "7f2d502c750dd748"),
    "constant-first-row float-csv": ("6d6734c52621570f", "6d6734c52621570f"),
    "constant-two-rows exact-json": ("1d244f3ac2870ef9", "1d244f3ac2870ef9"),
    "constant-two-rows csv": ("4f2d48787106131a", "4f2d48787106131a"),
    "constant-two-rows latex": ("32484fc22b02e0d0", "32484fc22b02e0d0"),
    "constant-two-rows float-csv": ("adfadddcbdf1e76d", "adfadddcbdf1e76d"),
    "two-constant-diag exact-json": ("69c0a077e5f1bc43", "69c0a077e5f1bc43"),
    "two-constant-diag csv": ("5a94dbd3aa090ebd", "5a94dbd3aa090ebd"),
    "two-constant-diag latex": ("22ba6ce659d7b95f", "22ba6ce659d7b95f"),
    "two-constant-diag float-csv": ("92c5d5030cc08624", "92c5d5030cc08624"),
    "third-case exact-json": ("9b15eafd1e5db39c", "9b15eafd1e5db39c"),
    "third-case csv": ("dc681954a9253a10", "dc681954a9253a10"),
    "third-case latex": ("c8da5cfc8e4e55a6", "c8da5cfc8e4e55a6"),
    "third-case float-csv": ("4278850a2a2ad76d", "4278850a2a2ad76d"),
    "block-pair exact-json": ("cbcf3b7bf1937211", "cbcf3b7bf1937211"),
    "block-pair csv": ("bd3b4007abf85bf6", "bd3b4007abf85bf6"),
    "block-pair latex": ("595cf75b7c462516", "595cf75b7c462516"),
    "block-pair float-csv": ("bba1f8dcdfd64c09", "bba1f8dcdfd64c09"),
    "block-pair-plain exact-json": ("9a6f3f36d7dd6938", "9a6f3f36d7dd6938"),
    "block-pair-plain csv": ("52651dc395ee1d56", "52651dc395ee1d56"),
    "block-pair-plain latex": ("f7e2c5f2dd52a07c", "f7e2c5f2dd52a07c"),
    "block-pair-plain float-csv": ("e34ff7eada06cf81", "e34ff7eada06cf81"),
    "mub-r4 exact-json": ("ff14eba0a2d6366d", "ff14eba0a2d6366d"),
    "mub-r4 csv": ("cdafa28fb25b8d73", "cdafa28fb25b8d73"),
    "mub-r4 latex": ("66c1fea04fae797e", "66c1fea04fae797e"),
    "mub-r4 float-csv": ("1bd1408b5fab4452", "1bd1408b5fab4452"),
    "ap-two-tight exact-json": ("88c5ed2be3e2412f", "88c5ed2be3e2412f"),
    "ap-two-tight csv": ("43bff3d00ab115af", "43bff3d00ab115af"),
    "ap-two-tight latex": ("b85f32f4fb726244", "b85f32f4fb726244"),
    "ap-two-tight float-csv": ("3beafe89a2c382ee", "3beafe89a2c382ee"),
    "weight-in-front exact-json": ("2f33c8e248fe782f", "2f33c8e248fe782f"),
    "weight-in-front csv": ("1336281aed8db86f", "1336281aed8db86f"),
    "weight-in-front latex": ("8ed9fa16f047b17d", "8ed9fa16f047b17d"),
    "weight-in-front float-csv": ("c31dc65b8aefcb95", "c31dc65b8aefcb95"),
    "abcd-outline exact-json": ("8edd99373c858b34", "8edd99373c858b34"),
    "abcd-outline csv": ("e8a1d165f8d05c65", "e8a1d165f8d05c65"),
    "abcd-outline latex": ("7f24e9ad077d5717", "7f24e9ad077d5717"),
    "abcd-outline float-csv": ("6f6537f59dab2800", "6f6537f59dab2800"),
    "iterate-two-tight exact-json": ("e660152401da64cf", "f9a56c4ddd77171d"),
    "iterate-two-tight csv": ("f90ba36d28988d5b", "8d730bd472fa532c"),
    "iterate-two-tight latex": ("2f38fc995c2c375c", "b6fc5f2134056197"),
    "iterate-two-tight float-csv": ("97a50b106ae0a47c", "7703df3f6be0e53f"),
    "weave exact-json": ("4850071d3c814087", "4850071d3c814087"),
    "weave csv": ("b859e79b04b54b50", "b859e79b04b54b50"),
    "weave latex": ("ed09022052a14830", "ed09022052a14830"),
    "weave float-csv": ("8543a2d5a4713491", "8543a2d5a4713491"),
}

# name: (argv, exit code, stdout digest)
RUNS = {
    "verify unitary": (["verify", "tcd3.csv", "--check", "unitary"],
                       0, "88e808539b184a0f"),
    "verify unitary fails": (["verify", "bad.csv", "--check", "unitary"],
                             1, "cf6ed118bcefd868"),
    "verify tight": (["verify", "ap12.json", "--check", "tight"],
                     0, "0fe7309c1a390a4e"),
    "verify tight fails": (["verify", "bad.csv", "--check", "tight"],
                           1, "dfb75cfe22714725"),
    "verify hyperplane": (["verify", "h6.json", "--check", "hyperplane"],
                          0, "7823cced2b5ae2a8"),
    "verify hyperplane fails": (
        ["verify", "skew.csv", "--check", "hyperplane"],
        1, "e58ae2ff15b91345"),
    "verify orthogonal-columns": (
        ["verify", "rot.csv", "--check", "orthogonal-columns"],
        0, "c108f007bfeba39f"),
    "verify orthogonal-columns fails": (
        ["verify", "bad.csv", "--check", "orthogonal-columns"],
        1, "0b560ee782cf1725"),
    "verify mub": (
        ["verify", "mub2.json", "--check", "mub", "--against", "mub3.json"],
        0, "71c346f3de5f2927"),
    "verify mub fails": (
        ["verify", "swap.csv", "--check", "mub", "--against", "rot.csv"],
        1, "8333d15650c724d8"),
    "sparsity": (["sparsity", "h6.json"], 0, "e6c21e8d260fe718"),
    "pave": (["pave", "ap12.json"], 0, "dca7f00050e463b4"),
    "pave sampled": (["pave", "ap12.json", "--sample", "5", "--seed", "3"],
                     0, "a1d33471d30e3f44"),
    # exhaustive on 16 rows: the histogram's floats near 1 differ in
    # their last bits between balances
    "pave 16 rows": (["pave", "wif7531.json"], 0, "3c343e295c174f02"),
    "pave 16 rows uneven": (
        ["pave", "wif11642.json"], 0, "f94dee7f6ebc8abd"),
    # their balanced record, strictly between 0 and 1, carries from one
    # chunk of partitions to the next
    "pave 16 rows reflected": (["pave", "wif7531h.json"], 0,
                               "2f21a7e6b4fcf62a"),
    "pave 16 rows gram": (["pave", "wif11642h-gram.json", "--gram"], 0,
                          "0a1bbfe5c0e57f77"),
    "pave not tight": (["pave", "bad.csv"], 1, "dfb75cfe22714725"),
    "errata": (["errata"], 0, "b10c199b19d3a9c5"),
}

USAGE = "usage: exactframes [-h] {construct,verify,sparsity,pave,errata} ...\n"

# name: (argv, exit code, stderr); stdout is empty
ERRORS = {
    "hyperplane shape": (
        ["verify", "bad.csv", "--check", "hyperplane"], 2,
        "error: a hyperplane basis of R^n has shape (n-1) x n, got (2, 2)\n"),
    "breach": (
        ["construct", "iterate-two-tight", "--left", "bad.csv",
         "--right", "bad.csv"], 3,
        'internal invariant breach: construction failed its own checker: '
        '{"passed": false, "property": "tight_frame", "witness": '
        '{"kind": "column_inner_product", "i": 1, "j": 2, '
        '"residual": "56"}, "k": "60"}\n'),
    "no command": (
        [], 2,
        USAGE + "exactframes: error: the following arguments are "
        "required: command\n"),
    "missing --n": (
        ["construct", "hyperplane"], 2,
        USAGE + "exactframes: error: missing required option(s): --n\n"),
    "missing options": (
        ["construct", "block-pair", "--left", "rot.csv"], 2,
        USAGE + "exactframes: error: missing required option(s): "
        "--a, --b, --right\n"),
    "missing --against": (
        ["verify", "rot.csv", "--check", "mub"], 2,
        USAGE + "exactframes: error: --check mub needs --against FILE\n"),
    "--against without mub": (
        ["verify", "rot.csv", "--check", "unitary", "--against", "rot.csv"],
        2, USAGE + "exactframes: error: --against is read by --check mub "
        "only, not by --check unitary\n"),
    "missing file": (
        ["verify", "missing.csv", "--check", "unitary"], 2,
        "error: [Errno 2] No such file or directory: 'missing.csv'\n"),
    "dimension cap": (
        ["construct", "two-constant-diag", "--n", "1025"], 2,
        "error: --n 1025 is beyond the dimension cap of 1024\n"),
    "frame width cap": (
        ["construct", "weight-in-front", "--values", ",".join(["1"] * 1024),
         "--m", "2"], 2,
        "error: weight-in-front would build 2048 columns, beyond the "
        "dimension cap of 1024\n"),
    "float flag": (
        ["construct", "ap-two-tight", "--a", "0.5", "--b", "1"], 2,
        "error: '0.5' is not a rational (use p or p/q; floats are not "
        "accepted): expected '+' or '-' at position 1 in '0.5'\n"),
}


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)


def run(argv, capsys):
    """Exit code, stdout and stderr of one CLI run, usage errors
    included."""
    try:
        rc = cli_main(argv)
    except SystemExit as exc:
        rc = exc.code
    out, err = capsys.readouterr()
    return rc, out, err


@pytest.mark.parametrize("case", CONSTRUCT)
@pytest.mark.parametrize("fmt", FORMATS)
def test_construct_bytes(case, fmt, inputs, capsys):
    got = []
    for extra in ([], ["--normalize"]):
        argv = ["construct", *CONSTRUCT[case], "--format", fmt, *extra]
        rc, out, err = run(argv, capsys)
        assert (rc, err) == (0, "")
        got.append(digest(out))
    assert tuple(got) == CONSTRUCT_PINS[f"{case} {fmt}"]


@pytest.mark.parametrize("name", RUNS)
def test_run_bytes(name, inputs, capsys):
    argv, code, out = RUNS[name]
    rc, stdout, stderr = run(argv, capsys)
    assert (rc, digest(stdout), stderr) == (code, out, "")


@pytest.mark.parametrize("name", ERRORS)
def test_error_bytes(name, inputs, capsys):
    argv, code, err = ERRORS[name]
    assert run(argv, capsys) == (code, "", err)


# the full sha256 of construct hyperplane --n N --format F, for the
# bases whose rows the writer takes at their nonzero cells alone
HYPERPLANE_PINS = {
    (256, "exact-json"):
        "883222dc436ef59995e410da6c76d7f79dfaee7692092a93ef0fff4e527b884a",
    (256, "csv"):
        "e79c5c71c23289ef2cbb2dc5fbd34c23a400f37f319998f937b1ad01c4bee4ad",
    (1024, "exact-json"):
        "3bb52c953b6d50b65d087d91a83bee1dc0075a8377332feb13a08de21363b163",
    (1024, "csv"):
        "8d5b19aa2655a4e98086197ff042f39d48c60e62e1b14e2f64adb47a56b5dc1d",
}


@pytest.mark.parametrize("n, fmt", HYPERPLANE_PINS)
def test_large_hyperplane_bytes(n, fmt, capsys):
    rc, out, err = run(["construct", "hyperplane", "--n", str(n),
                        "--format", fmt], capsys)
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        HYPERPLANE_PINS[n, fmt])


@pytest.mark.parametrize("argv, choices", [
    (["construct", "fourier"],
     "argument family: invalid choice: fourier (choose from hyperplane, "
     "constant-first-row, constant-two-rows, two-constant-diag, "
     "third-case, block-pair, mub-r4, ap-two-tight, weight-in-front, "
     "abcd-outline, iterate-two-tight, weave)"),
    (["verify", "m.csv", "--check", "fourier"],
     "argument --check: invalid choice: fourier (choose from unitary, "
     "tight, hyperplane, orthogonal-columns, mub)"),
])
def test_choices_keep_their_order(argv, choices, capsys):
    # the quoting of the choices differs between Python versions
    rc, out, err = run(argv, capsys)
    assert (rc, out) == (2, "")
    assert err.splitlines()[-1].replace("'", "").endswith(choices)
