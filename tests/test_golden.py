"""Golden outputs: the command line's results must stay byte for byte.

Each digest is the sha256 of an output recorded before a refactor that
was meant to change no result.  A change that moves a residual by one
ulp or a figure by one byte fails here.  When a change moves an output
on purpose, record the new digest together with the reason in CHANGES.md.

For ``verify`` only the deterministic columns are hashed (``check_id``,
``repr(max_residual)``, ``passed``, ``samples_used``), so a report column
added later, such as a wall time, does not invalidate the digest.
"""

import contextlib
import hashlib
import io
import json

import pytest

from brocard import cli

VERIFY_DIGEST = "001dbf21ddae11da72596977fab3b803927ffef3ddf18c1d93e3137e92e43cb7"

# more verify runs -> (exit code, digest): they pin the draw order where
# the scene count floors at 20 (samples 20), on an odd split of the
# closure draws (333) and under each mutant step, which exits 1 with one
# FAIL line per failed check
VERIFY_RUN_DIGESTS = {
    ("--samples", "20", "--seed", "1"): (0, "e9916ab36b24bc457656737036dd8a95f041bd120a8ee00a4a57e5cf25bb07af"),
    ("--samples", "333", "--seed", "11"): (0, "5961c5b9b4714ce5fa3668e1716b1e7fdcc215f599e1123ae5af68c1037b01e9"),
    ("--mutate", "flip-step-sign", "--samples", "200", "--seed", "0"): (1, "32407bb00fab1a2bead27fa6b34fb2fcbb83efccc8bb91d9f965ed0cf6acc2f2"),
    ("--mutate", "nudge-step-R", "--samples", "200", "--seed", "0"): (1, "113a1c98f99a0e304739dce488397e28c1ca2001b2709eac0fbcdaaba8ef39e2"),
    ("--mutate", "nudge-step-excess", "--samples", "200", "--seed", "0"): (1, "27002f5170b27f372ac79fad88f30baacf7fae9c7d1c809adf7c1d37bc42bcb3"),
}

FIGURE_DIGESTS = {
    ("fig2",): "586614cdf11ef9ad5c49872d3b7ff75828f73e8bf4329ca59e08c1c2191b8f2a",
    ("fig4",): "b4fdfd2bee7191818c009c5118f8fb93e4e1f93dcf694e6dda667ceb3f90eef1",
    ("fig5",): "e92ee863cf0738b90e02aeed00e234475c306c316b2abbf52faf9a8e34da62bd",
    ("fig6",): "a06dad0ab9f317d881e49288a67c2a92a3ef1a87bc576f1cbbb52818498fab52",
    ("fig7",): "063fc0530b678e6765e94bfd82993021bee90a79818a42f1e6be80295a28c859",
    ("fig2", "--d", "1.2", "--h", "2.4"): "586614cdf11ef9ad5c49872d3b7ff75828f73e8bf4329ca59e08c1c2191b8f2a",
    ("fig4", "--d", "1.2", "--h", "2.4"): "b4fdfd2bee7191818c009c5118f8fb93e4e1f93dcf694e6dda667ceb3f90eef1",
    ("fig5", "--d", "1.2", "--h", "2.4"): "e92ee863cf0738b90e02aeed00e234475c306c316b2abbf52faf9a8e34da62bd",
    ("fig2", "--d", "1", "--h", "2.9"): "4c6c84a34056e2935cabe58e05bb695ff4da5b0b8fe8b1490e2b313a98a8d286",
    ("fig4", "--d", "1", "--h", "2.9"): "42dbd6494b12e87592cca85e74f2ff00885ec695d44c70f26bef7bbb029195ad",
    ("fig5", "--d", "1", "--h", "2.9"): "fe377743a20b14dd8c75bbc32ced46dda7ba55b848a871ad4524aa7655041c97",
    # a chart scaled by a power of two in ``vertices_at``
    ("fig4", "--d", "1e-10", "--h", "3e-10"): "ba1d663af3380d46369eb30f0487c7360a830fa0448449a0a01ff08ce818d4e6",
}

# the tables of the commands that print the continuous family, the
# porism's members and the recurrence, as printed in CSV
TABLE_DIGESTS = {
    ("continuous",): "e6c234dddddbed1d511c5a910422f89988f5d335ffad5689659d4b6f190d1189",
    ("continuous", "--degrees", "--t-min", "1", "--t-max", "60"): "c498a76eb4be17cec0149f77c523cc4c33b336ab07fd51d6adaa7a185b07bab1",
    ("family",): "92161ac612c8332e33728fe09486ccd91c6cb0aa5bdff615c5eae46bf859ed9d",
    ("family", "--d", "1.2", "--h", "2.4"): "15db06e373f7104f6cbf90748479c25dda181df9272add90bbc4b9fb71394253",
    ("family", "--d", "1e-10", "--h", "3e-10"): "d433d6883a54064ee2202edef710ed7de1544b31bb1b2de1f08d6843a2a1ca46",
    ("orbit", "--R0", "1", "--u0", "2"): "16e129b7898c82959c320e458dddd8cec1a3642f1e92705eda06db96f1630bc0",
    ("orbit", "--R0", "1", "--u0", "2", "--direction", "back"): "3cee2de31029333da33c21559c1ab4d3e172992ecadbee182515d8df86944577",
}


def _capture(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _run(argv):
    code, out, err = _capture(argv)
    assert (code, err) == (0, "")
    return out


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def verify_digest(args=("--samples", "200", "--seed", "0")):
    """(exit code, digest) of ``verify`` with ``args``; a failing run must
    say why on one stderr line per failed row."""
    code, text, err = _capture(["verify", *args, "--format", "json"])
    lines = []
    for line in text.splitlines():
        row = json.loads(line)
        lines.append(
            f"{row['check_id']} {row['max_residual']!r} "
            f"{row['passed']} {row['samples_used']}\n"
        )
    assert len(err.splitlines()) == sum(" False " in line for line in lines)
    return code, _sha256("".join(lines))


def figure_digest(args):
    return _sha256(_run(["figure", *args]))


def test_verify_report_is_byte_identical():
    assert verify_digest() == (0, VERIFY_DIGEST)


@pytest.mark.parametrize("args", sorted(VERIFY_RUN_DIGESTS), ids=" ".join)
def test_verify_run_is_byte_identical(args):
    assert verify_digest(args) == VERIFY_RUN_DIGESTS[args]


@pytest.mark.parametrize("args", sorted(FIGURE_DIGESTS), ids=" ".join)
def test_figure_is_byte_identical(args):
    assert figure_digest(args) == FIGURE_DIGESTS[args]


@pytest.mark.parametrize("args", sorted(TABLE_DIGESTS), ids=" ".join)
def test_table_is_byte_identical(args):
    assert _sha256(_run(list(args))) == TABLE_DIGESTS[args]
