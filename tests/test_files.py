"""File access: the one UTF-8 reader and writer in ``hypercore``, and how the
command line reports a file it cannot open or decode.

Exit code contract for files: a path that cannot be opened is a usage error
(2); a file that is not UTF-8 is rejected (1) when it is the artifact a
verify command checks, and a usage error (2) anywhere else.
"""

import re

import pytest

from diraclab.cli import main
from diraclab.errors import FormatError
from diraclab.hypercore import Hypergraph, read_khg, read_text, write_khg, write_text
from diraclab.matchpower import parse_matching

LATIN1 = b"\xe9"  # "é" in Latin-1, not a UTF-8 sequence on its own


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def one_line(err: str, prefix: str) -> None:
    # one error line, and no traceback in front of it
    assert err.startswith(prefix) and err.count("\n") == 1, err


@pytest.fixture
def k6(tmp_path):
    path = tmp_path / "K6.khg"
    write_khg(Hypergraph.complete(6, 3), path)
    return path


def test_text_round_trips_as_utf8(tmp_path):
    path = tmp_path / "note.txt"
    write_text(path, "café ∑\n")
    assert path.read_bytes() == "café ∑\n".encode("utf-8")
    assert read_text(path) == "café ∑\n"


def test_undecodable_file_is_a_format_error_naming_the_path(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"0 1 2 # caf" + LATIN1 + b"\n")
    message = f"{path} is not UTF-8 text: invalid continuation byte"
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        read_text(path)


def test_unopenable_path_raises_its_os_error(tmp_path):
    with pytest.raises(IsADirectoryError):
        read_text(tmp_path)


def test_khg_with_a_latin1_comment_is_a_format_error(tmp_path, k6):
    path = tmp_path / "latin.khg"
    path.write_bytes(b"# caf" + LATIN1 + b"\n" + k6.read_bytes())
    with pytest.raises(FormatError, match="is not UTF-8 text"):
        read_khg(path)


def test_parse_matching_names_the_line_of_a_doubly_covered_vertex():
    with pytest.raises(FormatError, match="^line 2: vertex 2 covered by two matching edges$"):
        parse_matching("0 1 2\n2 3 4\n")
    with pytest.raises(FormatError, match="^line 4: vertex 5 covered by two matching edges$"):
        parse_matching("3 4 5\n# note\n\n0 5 6\n")


class TestCommandLine:
    def test_pm_on_a_directory_is_a_usage_error(self, tmp_path, capsys):
        code, out, err = run(capsys, "pm", "--in", tmp_path)
        assert code == 2 and out == ""
        one_line(err, "error: [Errno 21] Is a directory")

    def test_verify_rejects_an_undecodable_matching(self, tmp_path, k6, capsys):
        matching = tmp_path / "m"
        matching.write_bytes(b"0 1 2\n3 4 5 # caf" + LATIN1 + b"\n")
        code, out, err = run(capsys, "verify", "--matching", matching, "--in", k6)
        assert code == 1 and out == ""
        one_line(err, f"rejected: {matching} is not UTF-8 text")

    def test_verify_accepts_a_matching_with_a_utf8_comment(self, tmp_path, k6, capsys):
        matching = tmp_path / "m"
        matching.write_text("0 1 2 # café\n3 4 5\n", encoding="utf-8")
        code, out, err = run(capsys, "verify", "--matching", matching, "--in", k6, "--perfect")
        assert (code, out, err) == (0, "ok: 2 edges, 6 vertices covered\n", "")

    def test_verify_rejects_a_doubly_covered_vertex_by_line(self, tmp_path, k6, capsys):
        matching = tmp_path / "m"
        matching.write_text("0 1 2\n2 3 4\n", encoding="utf-8")
        code, _, err = run(capsys, "verify", "--matching", matching, "--in", k6)
        assert (code, err) == (1, "rejected: line 2: vertex 2 covered by two matching edges\n")

    def test_absorber_verify_rejects_an_undecodable_record(self, tmp_path, k6, capsys):
        record = tmp_path / "a.json"
        assert run(capsys, "--out", record, "absorber", "find", "--in", k6, "--roots", "0 1 2")[0] == 0
        record.write_bytes(record.read_bytes().replace(b"null", b'"' + LATIN1 + b'"'))
        code, out, err = run(capsys, "absorber", "verify", "--in", record)
        assert code == 1 and out == ""
        one_line(err, f"rejected: {record} is not UTF-8 text")

    def test_template_verify_rejects_an_undecodable_template(self, tmp_path, capsys):
        base = tmp_path / "t6"
        assert run(capsys, "--out", base, "template", "build", "--r", "6", "--k", "3")[0] == 0
        base.write_bytes(b"# caf" + LATIN1 + b"\n" + base.read_bytes())
        code, out, err = run(capsys, "template", "verify", "--in", base)
        assert code == 1 and out == ""
        one_line(err, f"rejected: {base} is not UTF-8 text")

    def test_template_verify_without_its_sidecar_is_a_usage_error(self, tmp_path, capsys):
        # the sidecar is a path that cannot be opened, as the template is
        base = tmp_path / "t6"
        assert run(capsys, "--out", base, "template", "build", "--r", "6", "--k", "3")[0] == 0
        sidecar = tmp_path / "t6.json"
        sidecar.unlink()
        code, out, err = run(capsys, "template", "verify", "--in", base)
        assert code == 2 and out == ""
        one_line(err, f"error: [Errno 2] No such file or directory: '{sidecar}'")

    def test_template_verify_rejects_an_undecodable_sidecar(self, tmp_path, capsys):
        base = tmp_path / "t6"
        assert run(capsys, "--out", base, "template", "build", "--r", "6", "--k", "3")[0] == 0
        sidecar = tmp_path / "t6.json"
        sidecar.write_bytes(sidecar.read_bytes().replace(b"{", b"{" + LATIN1, 1))
        code, out, err = run(capsys, "template", "verify", "--in", base)
        assert code == 1 and out == ""
        one_line(err, f"rejected: bad template sidecar for {base}: {sidecar} is not UTF-8 text")

    def test_undecodable_params_are_a_usage_error(self, tmp_path, k6, capsys):
        params = tmp_path / "params.txt"
        params.write_bytes(b"rho = 0.2 # caf" + LATIN1 + b"\n")
        argv = ("pipeline", "run", "--in", k6, "--d", "1", "--gamma", "0.1", "--params", params)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        one_line(err, f"error: {params} is not UTF-8 text")

    def test_undecodable_host_is_a_usage_error(self, tmp_path, k6, capsys):
        host = tmp_path / "latin.khg"
        host.write_bytes(b"# caf" + LATIN1 + b"\n" + k6.read_bytes())
        code, out, err = run(capsys, "pm", "--in", host)
        assert code == 2 and out == ""
        one_line(err, f"error: {host} is not UTF-8 text")

    def test_out_path_with_a_non_ascii_name(self, tmp_path, capsys):
        table = tmp_path / "tablé.csv"
        code, _, err = run(capsys, "--out", table, "mdk", "--n", "4", "--k", "2", "--d", "1")
        assert (code, err) == (0, "")
        rows = table.read_text(encoding="utf-8").splitlines()
        assert rows[0] == "#diraclab-csv mdk v1" and len(rows) == 4
        assert all(f"{table}.witness.khg" in row for row in rows[2:])
        assert read_khg(f"{table}.witness.khg").n == 4
