import hashlib
import json
import os
import random
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import validate

from chiptopple import engine, polybernoulli
from chiptopple.cli import cli
from chiptopple.core import format_configuration, format_permutation, make_configuration
from conftest import small_configurations

SCHEMAS = Path(__file__).resolve().parent.parent / "docs" / "schemas"


@pytest.fixture()
def runner():
    return CliRunner()


def _seeded_literal(n, p):
    """The literal of S(n,p) whose chips, in site order, are 1..n+1 shuffled by random.Random(n)."""
    chips = list(range(1, n + 2))
    random.Random(n).shuffle(chips)
    return format_configuration(make_configuration([*chips[: p - 1], chips[p - 1 : p + 1], *chips[p + 1 :]]))


def run(runner, *args):
    result = runner.invoke(cli, args)
    return result


class TestTopple:
    def test_example(self, runner):
        result = run(runner, "topple", "--config", "1,(2,3),4")
        assert result.exit_code == 0
        assert result.output == "resultant: 1234, empty-site: 2\n"

    def test_big_example(self, runner):
        result = run(runner, "topple", "--config", "7,3,1,5,(2,4),6,8")
        assert result.output == "resultant: 12374568, empty-site: 3\n"

    def test_random_matches_passes(self, runner):
        deterministic = run(runner, "topple", "--config", "4,(3,2),1")
        for seed in ("0", "7", "123456", "-5", str(10**29)):
            randomized = run(
                runner, "topple", "--config", "4,(3,2),1", "--random", "--seed", seed
            )
            assert randomized.output == deterministic.output

    @pytest.mark.parametrize("literal", ["4,(3,2),1", "7,3,1,5,(2,4),6,8", "5,12,1,9,(3,13),7,2,11,4,10,6,8"])
    def test_plain_topple_builds_no_pass_trace(self, runner, monkeypatch, literal):
        calls = []
        passes = engine.stabilize_passes
        monkeypatch.setattr(engine, "stabilize_passes", lambda config: calls.append(config) or passes(config))
        plain = run(runner, "topple", "--config", literal)
        assert plain.exit_code == 0
        assert plain.output == run(runner, "topple", "--config", literal, "--random").output
        assert calls == []
        traced = run(runner, "topple", "--config", literal, "--trace")
        assert len(calls) == 1
        assert traced.output.startswith(plain.output)

    def test_trace_validates_against_schema(self, runner):
        schema = json.loads((SCHEMAS / "pass-trace.schema.json").read_text())
        for literal, first, passes in [
            ("4,(3,2),1", "resultant: 2143, empty-site: 2", 2),
            ("7,3,1,5,(2,4),6,8", "resultant: 12374568, empty-site: 3", 3),
        ]:
            lines = run(runner, "topple", "--config", literal, "--trace").output.splitlines()
            assert lines[0] == first
            trace = json.loads(lines[1])
            validate(trace, schema)
            assert len(trace) == passes

    @pytest.mark.parametrize(
        "n,p,digest",
        [
            (9, 5, "efeed3afec71480efdc4047a7bc4dcd747e5d18d9533a31b2ed620d69d4d7469"),
            (12, 12, "dc98e0b4847d73dfe7377c6a2391ed7f4f7a41dd7b6d17c344d878d33e1be110"),
            (40, 17, "47ec808fc7a8806c4c22678c69300683bcfd1fc266194f78b4160975da273957"),
            (800, 400, "e7920d36e8c14ea367c0b8823df77fef6aee7615fff647e0703ce6ba2504a448"),
        ],
    )
    def test_trace_bytes_are_pinned(self, runner, n, p, digest):
        # pins the separators, the key order and the trailing newline
        result = run(runner, "topple", "--config", _seeded_literal(n, p), "--trace")
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest

    def test_random_schedule_bytes_are_pinned(self, runner):
        # pins the seeded schedule's stdout: seeds negative or wider than 64 bits, sizes past
        # the kept programs (n > 8), and p = 1 and p = n, where no draw is taken
        digest = hashlib.sha256()
        for n in (3, 7, 40, 800):
            for p in sorted({1, -(-n // 2), n}):
                literal = _seeded_literal(n, p)
                for seed in (0, 1, -1, 2**70):
                    result = run(runner, "topple", "--config", literal, "--seed", str(seed))
                    assert result.exit_code == 0
                    digest.update(result.stdout_bytes)
        assert digest.hexdigest() == "c4b0e2615892ea81c25f7c2d3884a800e999eb12aa0c613977d95daa9b9490c7"

    def test_trace_memory_holds_one_pass(self):
        # the trace at n = 2 500 is 20.6 MB of JSON; written a pass at a time it peaks near plain topple's 19 MB.
        # On Linux ru_maxrss also keeps the peak of the image the child was exec'd from (this
        # test runner, by vfork), so the child reports its own image's peak, VmHWM, where it can
        child = (
            "import os, resource, sys\n"
            "from chiptopple.cli import cli\n"
            "cli.main(['topple', '--config', sys.argv[1], '--trace'], standalone_mode=False)\n"
            "status = '/proc/self/status'\n"
            "kb = [line.split()[1] for line in open(status) if line.startswith('VmHWM:')] if os.path.exists(status) else []\n"
            "print(*kb or [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss], file=sys.stderr)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(engine.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", child, _seeded_literal(2500, 1250)],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, check=True, timeout=120,
        )
        peak = int(done.stderr.split()[-1]) / (1 << 20 if sys.platform == "darwin" else 1 << 10)  # MB
        assert peak < 40

    def test_bad_literal_is_an_error(self, runner):
        result = run(runner, "topple", "--config", "1,2,3")
        assert result.exit_code == 1
        assert "doubled site" in result.output

    def test_two_doubled_sites_are_an_error(self, runner):
        result = run(runner, "topple", "--config", "(1,2),(3,4)")
        assert result.exit_code == 1
        assert result.output == "Error: more than one doubled site\n"

    def test_literal_outside_the_grammar_is_an_error(self, runner):
        result = run(runner, "topple", "--config", "(3,4),1,2,")
        assert result.exit_code == 1
        assert result.output == "Error: cannot parse configuration literal: '(3,4),1,2,'\n"

    def test_over_long_chip_is_an_error(self, runner):
        # no chip exceeds the chip count, so 5 000 digits fail before int() sees them
        literal = "1,(2," + "1" * 5000 + ")"
        result = run(runner, "topple", "--config", literal)
        assert result.exit_code == 1
        assert result.output == f"Error: cannot parse configuration literal: {literal!r}\n"

    def test_marked_literal_is_an_error(self, runner):
        result = run(runner, "topple", "--config", "1,(2*,3),4")
        assert result.exit_code == 1
        assert result.output == "Error: unexpected marked chip in plain configuration literal\n"

    @pytest.mark.parametrize("schedule", [("--random",), ("--seed", "3")])
    def test_trace_needs_pass_schedule(self, runner, schedule):
        result = run(runner, "topple", "--config", "1,(2,3),4", *schedule, "--trace")
        assert result.exit_code == 2
        assert "--trace needs the pass schedule" in result.output

    def test_byte_identical_reruns(self, runner):
        first = run(runner, "topple", "--config", "7,3,1,5,(2,4),6,8", "--trace")
        second = run(runner, "topple", "--config", "7,3,1,5,(2,4),6,8", "--trace")
        assert first.output == second.output


class TestCheck:
    def test_all_r(self, runner):
        result = run(runner, "check", "all-r", "--perm", "1234", "--p", "2")
        assert result.output == "true\n"

    def test_over_long_chip_is_an_error(self, runner):
        literal = "1," + "1" * 5000
        result = run(runner, "check", "all-r", "--perm", literal, "--p", "1")
        assert result.exit_code == 1
        assert result.output == f"Error: cannot parse permutation literal: {literal!r}\n"

    def test_rp(self, runner):
        assert run(runner, "check", "rp", "--perm", "123", "--r", "2", "--p", "2").output == "true\n"
        assert run(runner, "check", "rp", "--perm", "21", "--r", "3", "--p", "1").output == "false\n"

    def test_config(self, runner):
        assert run(runner, "check", "config", "--config", "1,(2,3),4").output == "true\n"
        assert run(runner, "check", "config", "--config", "4,(3,2),1").output == "false\n"


class TestCount:
    def test_polybernoulli_value(self, runner):
        assert run(runner, "polybernoulli", "B", "--n", "5", "--k", "5").output == "329462\n"
        assert run(runner, "polybernoulli", "C", "--n", "5", "--k", "5").output == "164731\n"

    def test_method_choice(self, runner):
        for method in ("closed", "inclusion_exclusion", "recurrence"):
            result = run(runner, "polybernoulli", "B", "--n", "4", "--k", "4", "--method", method)
            assert result.output == "6902\n"

    def test_count_toppleable(self, runner):
        assert run(runner, "count", "toppleable", "--n", "3", "--p", "2").output == "7\n"
        assert (
            run(runner, "count", "toppleable", "--n", "3", "--p", "2", "--method", "simulate").output
            == "7\n"
        )

    def test_count_rp_methods(self, runner):
        for method in ("delta", "c_sum", "brute"):
            result = run(runner, "count", "rp", "--n", "5", "--p", "2", "--r", "3", "--method", method)
            assert result.output == "22\n"

    def test_count_all_r(self, runner):
        assert run(runner, "count", "all-r", "--n", "4", "--p", "2").output == "7\n"

    def test_count_class(self, runner):
        assert run(runner, "count", "class", "--i", "4", "--j", "2").output == "73\n"

    def test_count_class_prints_big_exact_values(self, runner):
        # 2^14399 has 4 335 digits, past Python's default int-to-str limit of 4 300
        result = run(runner, "count", "class", "--i", "14400", "--j", "1")
        assert result.exit_code == 0
        assert Decimal(result.output) == Decimal(2**14399)

    def test_huge_option_is_still_a_usage_error(self, runner):
        result = run(runner, "count", "class", "--i", "1" * 5000, "--j", "1")
        assert result.exit_code == 2
        assert len([line for line in result.output.splitlines() if line.startswith("Error:")]) == 1

    def test_count_npi(self, runner):
        result = run(runner, "count", "npi", "--perm", "123456", "--r", "2", "--p", "2")
        assert result.output == "32\n"

    def test_family_count_and_list(self, runner):
        assert run(runner, "count", "family", "--family", "callan", "-u", "2", "-o", "2").output == "14\n"
        listing = run(
            runner, "count", "family", "--family", "window_c", "--n", "2", "--k", "1", "--list"
        )
        assert listing.output.splitlines() == ["123", "132", "213"]

    def test_family_missing_param(self, runner):
        result = run(runner, "count", "family", "--family", "callan", "-u", "2")
        assert result.exit_code == 2
        assert "--overlined" in result.output

    def test_ao(self, runner):
        assert run(runner, "count", "ao", "--n", "2", "--k", "2").output == "14\n"
        assert run(runner, "count", "ao", "--n", "4", "--k", "5").output == "41506\n"  # at the cap

    @pytest.mark.parametrize(
        "args",
        [
            ("toppleable", "--n", "9", "--p", "3", "--method", "simulate"),
            ("rp", "--n", "9", "--p", "3", "--r", "2", "--method", "brute"),
            ("family", "--family", "callan", "-u", "5", "-o", "5"),
            ("ao", "--n", "5", "--k", "5"),
        ],
    )
    def test_cap_is_a_one_line_error(self, runner, args):
        result = run(runner, "count", *args)
        assert result.exit_code == 1
        assert [line for line in result.output.splitlines() if line.startswith("Error:")] == [
            result.output.strip()
        ]
        assert "Traceback" not in result.output

    @pytest.mark.parametrize(
        "args,message",
        [
            (("count", "ao", "--n", "-1", "--k", "2"), "part sizes must be at least 0"),
            (("count", "ao", "--n", "3", "--k", "7"), "21 edges exceeds the 20-bit cap"),
            (
                ("count", "family", "--family", "vesztergombi", "--k", "-1", "--n", "2"),
                "vesztergombi sizes must be at least 0",
            ),
            (
                ("count", "family", "--family", "window_c", "--n", "-2", "--k", "3", "--list"),
                "window_c sizes must be at least 0",
            ),
            (
                ("count", "family", "--family", "callan", "-u", "0", "-o", "3"),
                "need at least one underlined and one overlined value",
            ),
            (
                ("biject", "vesz-to-callan", "--perm", "12", "-u", "0", "-o", "2"),
                "need at least one underlined and one overlined value",
            ),
            (("count", "toppleable", "--n", "-2", "--p", "1", "--method", "characterize"), "p outside 1..-2"),
            (("count", "toppleable", "--n", "-2", "--p", "1", "--method", "simulate"), "p outside 1..-2"),
            (("count", "rp", "--n", "-1", "--p", "1", "--r", "1", "--method", "brute"), "n must be at least 0"),
            (("count", "all-r", "--n", "-1", "--p", "1", "--method", "brute"), "n must be at least 0"),
            (
                ("tables", "--which", "Npi", "--n", "10", "--p", "1", "--r", "1"),
                "n - 1 = 9 exceeds the permutation cap 8",
            ),
        ],
        ids=[
            "ao", "ao-cap", "vesztergombi", "window_c-list", "callan", "vesz-to-callan",
            "toppleable-characterize", "toppleable-simulate", "rp-brute", "all-r-brute", "npi-cap",
        ],
    )
    def test_bad_sizes_are_one_line_errors(self, runner, args, message):
        result = run(runner, *args)
        assert result.exit_code == 1
        assert result.output == f"Error: {message}\n"

    @pytest.mark.parametrize(
        "args,value",
        [
            # B(1200,3) = B(3,1200), by inclusion-exclusion over the side of size 3
            (("--n", "1200", "--k", "3"), 2**1200 - 6 * 3**1200 + 6 * 4**1200),
            (("--n", "1", "--k", "1500", "--method", "recurrence"), 2**1500),
        ],
        ids=["closed", "recurrence"],
    )
    def test_large_indices_need_no_recursion(self, runner, args, value):
        result = run(runner, "polybernoulli", "B", *args)
        assert result.exit_code == 0
        assert result.output == f"{value}\n"


    def test_out_of_memory_is_a_one_line_error(self, runner, monkeypatch):
        # the last-resort boundary; the request that runs out is stood in for by a raising kernel
        def exhausted(n, k, method="closed"):
            raise MemoryError

        monkeypatch.setattr(polybernoulli, "poly_bernoulli_B", exhausted)
        polybernoulli.stirling2(10, 3)
        result = run(runner, "polybernoulli", "B", "--n", "3000", "--k", "3000")
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert result.stderr == "Error: out of memory\n"
        assert "Traceback" not in result.output
        # the boundary gave back what the kernel tables held
        assert polybernoulli._STIRLING == []
        assert polybernoulli.stirling2.cache_info().currsize == 0
        assert polybernoulli.stirling2(10, 3) == 9330

    @pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS caps the address space on Linux")
    def test_a_kernel_table_that_outgrows_memory_is_a_one_line_error(self):
        # a real exhaustion: the Stirling triangle of this count outgrows a child capped at 1 GB,
        # and the boundary reports it after the kernel tables give their memory back
        child = (
            "import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from chiptopple.cli import main\n"
            "main()\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(engine.__file__).parents[1])}
        args = ["count", "toppleable", "--n", "100000", "--p", "50000", "--method", "formula"]
        done = subprocess.run([sys.executable, "-c", child, *args], env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr == "Error: out of memory\n"
        assert "Traceback" not in done.stderr

# One argv template per command shape. Each placeholder takes a fresh draw:
# {int} an integer around every size boundary; {lit} a valid permutation or
# configuration literal, or any string over the characters of those
# grammars and a few that int() would read but the grammars do not (+, _
# and a non-ASCII digit); {small} and {tiny} sizes for brute-force
# enumerations, bounded so that a run stays fast.
_TEMPLATES = [
    "topple --config {lit}",
    "topple --config {lit} --trace",
    "topple --config {lit} --seed {int}",
    "check config --config {lit}",
    "check rp --perm {lit} --r {int} --p {int}",
    "check all-r --perm {lit} --p {int}",
    "count toppleable --n {int} --p {int}",
    "count toppleable --n {small} --p {int} --method simulate",
    "count toppleable --n {small} --p {int} --method characterize",
    "count rp --n {int} --p {int} --r {int}",
    "count rp --n {int} --p {int} --r {int} --method c_sum",
    "count rp --n {small} --p {int} --r {int} --method brute",
    "count all-r --n {int} --p {int}",
    "count all-r --n {small} --p {int} --method brute",
    "count class --i {int} --j {int}",
    "count npi --perm {lit} --r {int} --p {int}",
    "count family --family callan -u {tiny} -o {tiny}",
    "count family --family callan_first -u {tiny} -o {tiny} --first {int}",
    "count family --family vesztergombi --k {tiny} --n {tiny} --list",
    "count family --family excedance_set --n {tiny} --k {tiny}",
    "count ao --n {tiny} --k {tiny}",
    "tables --which 1a --n {int}",
    "tables --which 1b --n {int} --format csv",
    "tables --which 2 --n {int} --format json",
    "tables --which T-counts --n {int}",
    "tables --which T-array --n {small} --p {int}",
    "tables --which resultant-fibers --n {small} --p {int}",
    "tables --which Npi --n {small} --p {int} --r {int}",
    "biject callan-to-vesz --word {lit} -u {int} -o {int}",
    "biject vesz-to-callan --perm {lit} -u {int} -o {int}",
    "biject phi --config {lit}",
    "biject phi --config {lit} --perm {lit}",
    "biject phi-inverse --config {lit} --perm {lit}",
    "biject phi-inverse --config {lit} --perm {lit} --p {int}",
    "polybernoulli B --n {int} --k {int}",
    "polybernoulli C --n {int} --k {int} --method inclusion_exclusion",
    "polybernoulli B --n {int} --k {int} --method recurrence",
]
_FILLS = {
    "{int}": st.integers(-3, 9).map(str),
    "{small}": st.integers(-3, 5).map(str),
    "{tiny}": st.integers(-3, 3).map(str),
    "{lit}": st.one_of(
        st.text(alphabet="0123456789,()* +_\u0661", max_size=12),
        st.integers(0, 8).flatmap(lambda n: st.permutations(range(1, n + 1))).map(format_permutation),
        small_configurations().map(format_configuration),
    ),
}


@st.composite
def _argv(draw):
    template = draw(st.sampled_from(_TEMPLATES))
    return [draw(_FILLS[token]) if token in _FILLS else token for token in template.split()]


@settings(max_examples=500, deadline=None)
@given(argv=_argv())
def test_every_input_gets_an_answer_or_one_error_line(argv):
    result = CliRunner().invoke(cli, argv)
    assert result.exception is None or isinstance(result.exception, SystemExit), (argv, result.exception)
    if result.exit_code != 0:
        assert result.exit_code in (1, 2), argv
        assert len([line for line in result.output.splitlines() if line.startswith("Error:")]) == 1, argv
    assert "Traceback" not in result.output


class TestTables:
    def test_1a_text(self, runner):
        result = run(runner, "tables", "--which", "1a", "--n", "2")
        assert result.exit_code == 0
        assert result.output.splitlines()[1].split() == ["0", "1", "1", "1"]

    def test_1b_csv(self, runner):
        result = run(runner, "tables", "--which", "1b", "--n", "3", "--format", "csv")
        rows = result.output.splitlines()
        assert rows[0] == "n\\k,0,1,2,3"
        assert rows[1] == "0,1,0,0,0"
        assert rows[4] == "3,1,7,31,115"

    def test_2_json(self, runner):
        result = run(runner, "tables", "--which", "2", "--n", "3", "--format", "json")
        payload = json.loads(result.output)
        assert payload[2]["n\\p"] == 3
        assert [payload[2][str(p)] for p in (1, 2, 3)] == [4, 7, 4]

    def test_t_counts(self, runner):
        result = run(runner, "tables", "--which", "T-counts", "--n", "4", "--format", "csv")
        rows = result.output.splitlines()
        assert rows[2] == "2,14,10,7,7,8"

    def test_t_array(self, runner):
        result = run(runner, "tables", "--which", "T-array", "--n", "6", "--p", "2", "--format", "csv")
        rows = result.output.splitlines()
        assert rows == ["i\\j,1,2", "1,1,2", "2,2,7", "3,4,23", "4,8,73"]

    def test_resultant_fibers(self, runner):
        result = run(
            runner, "tables", "--which", "resultant-fibers", "--n", "4", "--p", "2", "--format", "csv"
        )
        rows = result.output.splitlines()
        assert rows[1].startswith("1234,7,")
        assert "4,(2,3),1" in rows[4]

    def test_npi_table(self, runner):
        result = run(
            runner, "tables", "--which", "Npi", "--n", "6", "--p", "2", "--r", "2", "--format", "json"
        )
        payload = json.loads(result.output)
        identity_row = [row for row in payload if row["prefix"] == "1234" and row["suffix"] == "56"]
        assert identity_row[0]["count"] == 32

    def test_missing_params(self, runner):
        result = run(runner, "tables", "--which", "T-array")
        assert result.exit_code == 2

    def test_no_jobs_option(self, runner):
        result = run(runner, "tables", "--which", "1a", "--jobs", "2")
        assert result.exit_code == 2
        assert len([line for line in result.output.splitlines() if line.startswith("Error:")]) == 1

    @pytest.mark.parametrize(
        "args,exit_code",
        [
            (("1a", "--n", "-1"), 2),
            (("T-array", "--n", "6", "--p", "0"), 2),
            (("2", "--n", "0"), 1),
            (("T-counts", "--n", "0"), 1),
        ],
    )
    def test_sizes_are_bounded(self, runner, args, exit_code):
        result = run(runner, "tables", "--which", *args)
        assert result.exit_code == exit_code
        assert "Error:" in result.output
        if exit_code == 1:
            assert result.output.strip() == f"Error: table {args[0]} needs --n >= 1"

    def test_empty_number_table(self, runner):
        result = run(runner, "tables", "--which", "1b", "--n", "0", "--format", "csv")
        assert result.exit_code == 0
        assert result.output == "n\\k,0\n0,1\n"


class TestBiject:
    def test_callan_to_vesz_worked_example(self, runner):
        result = run(
            runner,
            "biject", "callan-to-vesz",
            "--word", "5,7,12,11,1,4,8,14,3,6,9,15,13,10,2",
            "-u", "9", "-o", "6",
        )
        assert result.output == "1,6,4,8,7,10,12,11,13,3,2,9,5,14,15\n"

    def test_vesz_to_callan_roundtrip(self, runner):
        result = run(
            runner,
            "biject", "vesz-to-callan",
            "--perm", "1,6,4,8,7,10,12,11,13,3,2,9,5,14,15",
            "-u", "9", "-o", "6",
        )
        assert result.output == "5,7,12,11,1,4,8,14,3,6,9,15,13,10,2\n"

    def test_phi_and_inverse(self, runner):
        reduced = run(runner, "biject", "phi", "--config", "4,(1,2),3")
        assert reduced.output == "(1,2),3\n"
        rebuilt = run(
            runner, "biject", "phi-inverse", "--config", "(1,2),3", "--perm", "1243"
        )
        assert rebuilt.output == "4,(1,2),3\n"

    def test_phi_with_wrong_perm_fails(self, runner):
        result = run(runner, "biject", "phi", "--config", "4,(1,2),3", "--perm", "1234")
        assert result.exit_code == 1
        assert result.output == "Error: configuration topples to (1, 2, 4, 3), not (1, 2, 3, 4)\n"


class TestVerify:
    def test_json_output_validates(self, runner):
        result = run(runner, "verify", "--n-max", "2", "--seeds", "1", "--format", "json")
        assert result.exit_code == 0
        payload = json.loads(result.output)
        schema = json.loads((SCHEMAS / "verify-report.schema.json").read_text())
        validate(payload, schema)
        assert payload["ok"] is True

    def test_n_max_must_be_positive(self, runner):
        for option, value in (("--n-max", "0"), ("--seeds", "0"), ("--seeds", "-1"), ("--jobs", "0")):
            result = run(runner, "verify", option, value, "--format", "json")
            assert result.exit_code == 2
            assert option in result.output

    def test_text_output(self, runner):
        result = run(runner, "verify", "--n-max", "2", "--seeds", "1")
        assert result.exit_code == 0
        assert "mismatched" in result.output
