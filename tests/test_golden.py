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

VERIFY_DIGEST = "6b25df1906f273c95baaf01030c96d276821152da6c05468f1e2101d634a6e26"

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
}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert (code, err.getvalue()) == (0, "")
    return out.getvalue()


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def verify_digest():
    text = _run(["verify", "--samples", "200", "--seed", "0", "--format", "json"])
    lines = []
    for line in text.splitlines():
        row = json.loads(line)
        lines.append(
            f"{row['check_id']} {row['max_residual']!r} "
            f"{row['passed']} {row['samples_used']}\n"
        )
    return _sha256("".join(lines))


def figure_digest(args):
    return _sha256(_run(["figure", *args]))


def test_verify_report_is_byte_identical():
    assert verify_digest() == VERIFY_DIGEST


@pytest.mark.parametrize("args", sorted(FIGURE_DIGESTS), ids=" ".join)
def test_figure_is_byte_identical(args):
    assert figure_digest(args) == FIGURE_DIGESTS[args]
