"""The README's examples run as it says: its spec file computes, and each
commented line of its "Command line" block prints what the comment says."""

import json
import re
import shlex
from pathlib import Path

from blfsig import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def block(language: str, after: str) -> str:
    """The first fenced block of the language after the heading ``after``."""
    start = README.index(after)
    return re.search(rf"```{language}\n(.*?)```", README[start:], re.S).group(1)


def commented_commands() -> list[tuple[list[str], str]]:
    """(argv without ``blfsig``, comment) for each commented line."""
    out = []
    for line in block("sh", "## Command line").splitlines():
        parts = re.split(r"\s{2,}#\s", line, maxsplit=1)
        if len(parts) == 2:
            command, comment = parts
            argv = shlex.split(command)
            assert argv[0] == "blfsig", line
            out.append((argv[1:], comment))
    return out


def run(capsys, argv):
    code = cli.run(list(argv))
    out, err = capsys.readouterr()
    return code, out


def test_the_spec_file_example_computes(capsys, tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(block("json", "### Spec files"))
    code, out = run(capsys, ["compute", str(path), "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["two_paths_agree"] is True
    assert doc["signature"] == doc["meyer_path_signature"] == -4


def test_the_command_line_comments(capsys):
    values, reports = {}, {}
    for argv, comment in commented_commands():
        if argv[0] in ("phi", "h", "sigma-loc", "abelianization"):
            code, out = run(capsys, argv)
            assert (code, out.strip()) == (0, comment), argv
            values[argv[0]] = comment
        elif comment.startswith("report:"):
            sig, chi, display = re.fullmatch(
                r"report: signature (-?\d+), chi (\d+), (.+)", comment).groups()
            code, out = run(capsys, argv + ["--format", "json"])
            assert code == 0, argv
            doc = json.loads(out)
            assert (doc["signature"], doc["euler_characteristic"],
                    doc["homeomorphism"]["display"]) == (int(sig), int(chi), display)
            reports[" ".join(argv)] = (sig, chi, display)
    assert values == {"phi": "3/5", "h": "8/5", "sigma-loc": "1/7",
                      "abelianization": "Z ⊕ Z/12"}
    assert reports == {"family mgn -g 1 -n 1 --compute": ("-4", "10", "#2CP² # 6CP̄²")}
