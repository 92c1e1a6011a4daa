import contextlib
import io
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import examples
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pursuitlab.fileio import (
    FileFormatError,
    dump_json,
    read_matrix,
    read_vector,
    recovery_payload,
    write_matrix,
    write_vector,
)
from pursuitlab import floattext, make_instance, subspace_pursuit
from pursuitlab.floattext import read_floats, write_floats


def rng(seed=0):
    return np.random.Generator(np.random.PCG64(seed))


def test_matrix_round_trip_bitwise(tmp_path):
    phi = rng(1).normal(size=(5, 7))
    path = tmp_path / "phi.csv"
    write_matrix(path, phi)
    again = read_matrix(path)
    assert np.array_equal(again, phi)
    # Re-writing the parsed matrix reproduces the file byte for byte.
    path2 = tmp_path / "phi2.csv"
    write_matrix(path2, again)
    assert path.read_bytes() == path2.read_bytes()


def test_vector_round_trip_bitwise(tmp_path):
    v = rng(2).normal(size=9)
    path = tmp_path / "v.csv"
    write_vector(path, v)
    assert np.array_equal(read_vector(path), v)


def test_matrix_header_is_exact(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("#dense 2 2\n1,2\n3,4\n")
    with pytest.raises(FileFormatError, match="line 1"):
        read_matrix(path)
    path.write_text("# sparse 2 2\n1,2\n3,4\n")
    with pytest.raises(FileFormatError, match="line 1"):
        read_matrix(path)
    path.write_text("# dense  2 2\n1,2\n3,4\n")  # non-canonical spacing
    with pytest.raises(FileFormatError, match="exactly"):
        read_matrix(path)
    path.write_text("# vector 2 \n1\n2\n")
    with pytest.raises(FileFormatError, match="exactly"):
        read_vector(path)
    # A byte-order mark is part of the first line, as the codec leaves it.
    path.write_bytes("\ufeff# dense 1 1\n1.0\n".encode("utf-8"))
    with pytest.raises(FileFormatError, match=r"line 1: expected '# dense m N' header, got '\\ufeff# dense 1 1'"):
        read_matrix(path)


def test_matrix_errors_name_line_and_field(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# dense 2 3\n1,2,3\n4,abc,6\n")
    with pytest.raises(FileFormatError, match=r"line 3, field 2"):
        read_matrix(path)
    path.write_text("# dense 2 3\n1,2,3\n4,5\n")
    with pytest.raises(FileFormatError, match=r"line 3: expected 3 values, got 2"):
        read_matrix(path)
    path.write_text("# dense 3 2\n1,2\n3,4\n")
    with pytest.raises(FileFormatError, match="expected 3 data rows"):
        read_matrix(path)
    path.write_text("")
    with pytest.raises(FileFormatError, match="empty file"):
        read_matrix(path)
    path.write_text("# dense 1 1\ninf\n")
    with pytest.raises(FileFormatError, match="finite"):
        read_matrix(path)
    # Blank lines are skipped but counted: line numbers are physical lines.
    path.write_text("# dense 2 2\n\n1,2\n3,x\n")
    with pytest.raises(FileFormatError, match=r"line 4, field 2: 'x' is not a number"):
        read_matrix(path)
    path.write_text("# dense 2 2\n1,2\n\n\n3\n")
    with pytest.raises(FileFormatError, match=r"line 5: expected 2 values, got 1"):
        read_matrix(path)


def test_vector_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# vector x\n1\n")
    with pytest.raises(FileFormatError, match="line 1"):
        read_vector(path)
    path.write_text("# vector 2\n1\n")
    with pytest.raises(FileFormatError, match="expected 2 values"):
        read_vector(path)
    path.write_text("# vector 1\nnan\n")
    with pytest.raises(FileFormatError, match="finite"):
        read_vector(path)
    path.write_text("# vector 2\n\n1\nx\n")
    with pytest.raises(FileFormatError, match=r"line 4, field 1: 'x' is not a number"):
        read_vector(path)


def test_dump_json_is_canonical():
    a = dump_json({"b": 1, "a": [1.5, 2.25]})
    b = dump_json({"a": [1.5, 2.25], "b": 1})
    assert a == b
    assert a.endswith("\n")


def test_recovery_payload_trace_levels():
    inst = make_instance("exact-sparse", 16, 32, 3, 0.0, 6)
    result = subspace_pursuit(inst.phi, inst.y, 3, truth=inst.x)
    none_payload = recovery_payload(result, trace="none")
    assert none_payload["iterations"] == []
    assert none_payload["residual_history"]
    norms_payload = recovery_payload(result, trace="norms")
    assert norms_payload["iterations"]
    assert "estimate" not in norms_payload["iterations"][0]
    assert "signal_error" in norms_payload["iterations"][0]
    full_payload = recovery_payload(result, trace="full")
    assert "estimate" in full_payload["iterations"][0]
    assert full_payload["schema_version"] == 1
    assert [row["n"] for row in full_payload["iterations"]] == list(range(1, len(result.iterations) + 1))
    with pytest.raises(ValueError, match="trace must be one of"):
        recovery_payload(result, trace="verbose")


# --- Reference: the per-token readers the fast paths replace -------------
# Kept as the oracle for values and messages, with blank lines skipped but
# counted so that line numbers are physical lines.


def _ref_value(token, path, line_no, field_no):
    try:
        value = float(token)
    except ValueError:
        raise FileFormatError(
            f"{path}: line {line_no}, field {field_no}: {token.strip()!r} is not a number"
        ) from None
    if not np.isfinite(value):
        raise FileFormatError(f"{path}: line {line_no}, field {field_no}: value must be finite")
    return value


# Per kind: the header form, the noun of its numbers and how many there are.
REF_HEADERS = {"dense": ("# dense m N", "dimensions", 2), "vector": ("# vector dim", "dimension", 1)}


def _ref_header(path, line, kind):
    """The dimensions of a first line that is exactly '# <kind> <n>...'."""
    form, noun, count = REF_HEADERS[kind]
    words = line.split()
    if words[:2] != ["#", kind] or len(words) != 2 + count:
        raise FileFormatError(f"{path}: line 1: expected '{form}' header, got {line!r}")
    try:
        dims = [int(w) for w in words[2:]]
    except ValueError:
        raise FileFormatError(f"{path}: line 1: non-integer {noun} in {line!r}") from None
    if not all(d > 0 for d in dims):
        raise FileFormatError(f"{path}: line 1: {noun} must be positive, got {' x '.join(map(str, dims))}")
    if line != f"# {kind} " + " ".join(str(d) for d in dims):
        raise FileFormatError(f"{path}: line 1: header must be exactly '# {kind} {' '.join(map(str, dims))}'")
    return dims


def _ref_body(path, kind):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    dims = _ref_header(path, lines[0], kind)
    return dims, [(i, ln) for i, ln in enumerate(lines[1:], start=2) if ln.strip()]


def ref_read_matrix(path):
    path = str(path)
    (m, n), body = _ref_body(path, "dense")
    if len(body) != m:
        raise FileFormatError(f"{path}: expected {m} data rows, got {len(body)}")
    rows = []
    for i, ln in body:
        tokens = ln.split(",")
        if len(tokens) != n:
            raise FileFormatError(f"{path}: line {i}: expected {n} values, got {len(tokens)}")
        rows.append([_ref_value(tok, path, i, j + 1) for j, tok in enumerate(tokens)])
    return np.asarray(rows)


def ref_read_vector(path):
    path = str(path)
    (dim,), body = _ref_body(path, "vector")
    if len(body) != dim:
        raise FileFormatError(f"{path}: expected {dim} values, got {len(body)}")
    return np.asarray([_ref_value(ln, path, i, 1) for i, ln in body])


def _outcome(reader, path):
    """('ok', dtype, shape, raw bytes) or ('error', message)."""
    try:
        a = reader(path)
    except FileFormatError as exc:
        return ("error", str(exc))
    return ("ok", a.dtype, a.shape, a.tobytes())


# Values at the edges of float64 and of repr's switch to exponent notation.
SPECIAL = [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
    1e308, -1e308, 1.7976931348623157e308, 1e16, -1e16, 9999999999999998.0,
    1.0000000000000002e16, 1e-5, -1e-5, 1e-4, 9.999999999999999e-05, 0.1, 1 / 3,
]
finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e-300, max_value=1e-300),
    st.sampled_from(SPECIAL),
)


def _bitwise_equal(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=80, deadline=None)
@given(phi=arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 6)), elements=finite))
def test_matrix_round_trip_property(tmp_path_factory, phi):
    d = tmp_path_factory.mktemp("rt")
    write_matrix(d / "a.csv", phi)
    again = read_matrix(d / "a.csv")
    assert _bitwise_equal(again, phi)
    assert _bitwise_equal(again, ref_read_matrix(d / "a.csv"))
    write_matrix(d / "b.csv", again)
    assert (d / "a.csv").read_bytes() == (d / "b.csv").read_bytes()


@settings(max_examples=80, deadline=None)
@given(v=arrays(np.float64, st.integers(1, 12), elements=finite))
def test_vector_round_trip_property(tmp_path_factory, v):
    d = tmp_path_factory.mktemp("rt")
    write_vector(d / "a.csv", v)
    again = read_vector(d / "a.csv")
    assert _bitwise_equal(again, v)
    assert _bitwise_equal(again, ref_read_vector(d / "a.csv"))
    write_vector(d / "b.csv", again)
    assert (d / "a.csv").read_bytes() == (d / "b.csv").read_bytes()


# Decimal text in the lane grammar -?D+(.D+)?(e[+-]?D{1,3})?: 1 to 25
# digits, leading zeros included, the point anywhere inside, exponents to
# +-330.  More than 19 significant digits, an exponent beyond the table and
# an uncertain rounding send a lane to float().
@st.composite
def decimal_tokens(draw):
    digits = draw(st.text("0123456789", min_size=1, max_size=25))
    point = draw(st.integers(0, len(digits) - 1))
    text = digits[: len(digits) - point] + ("." + digits[len(digits) - point :] if point else "")
    if draw(st.booleans()):
        e = draw(st.integers(-330, 330))
        sign = "-" if e < 0 else draw(st.sampled_from(["", "+"]))
        text += "e" + sign + str(abs(e)).zfill(draw(st.integers(1, 3)))
    return draw(st.sampled_from(["", "-"])) + text


HARD_CASES = [
    "9007199254740993", "2.2250738585072011e-308", "2.4703282292062327e-324",
    "2.4703282292062328e-324", "4.9406564584124654e-324", "1.7976931348623158e308",
    "-0.0", "0.1", "1e23", "8.98846567431158e307", "179769313486231580793728971405301e276",
    # A product whose error may carry into the rounding bits, one past the
    # table, and one that rounds up to a power of two.
    "-4.218670045617139e-95", "3.046468991643277e-177", "123e-345", "1.99999999999999995",
]


# The reader's own window, or one of a few dozen bytes (widened to 25 bytes
# a token of a line), whose ends fall inside tokens, on commas and on newlines.
windows = st.one_of(st.none(), st.integers(1, 60))


@contextlib.contextmanager
def _window(size):
    """Read files through a window of ``size`` bytes, or the default for None."""
    with mock.patch.object(floattext, "_WINDOW", size or floattext._WINDOW):
        yield


def _lanes(path, rows, per_line):
    """The lane reader's values for a file of ``rows`` lines, or None."""
    with open(path, "rb") as f:
        f.readline()
        return read_floats(f, rows, per_line)


def _check_tokens(path, tokens, per_line):
    rows = len(tokens) // per_line
    lines = [",".join(tokens[i * per_line : (i + 1) * per_line]) for i in range(rows)]
    path.write_text("\n".join([f"# dense {rows} {per_line}", *lines]) + "\n")
    got, want = _outcome(read_matrix, path), _outcome(ref_read_matrix, path)
    assert got == want
    # Text in the grammar, in tokens of at most 24 bytes, never needs the
    # per-token reader.
    lanes = _lanes(path, rows, per_line)
    assert (lanes is None) == (want[0] == "error" or max(map(len, tokens[: rows * per_line])) > 24)
    if lanes is not None:
        assert lanes.tobytes() == want[3]
    path.write_text("\n".join([f"# vector {rows * per_line}", *tokens[: rows * per_line]]) + "\n")
    assert _outcome(read_vector, path) == _outcome(ref_read_vector, path)


@settings(max_examples=examples(200), deadline=None)
@given(tokens=st.lists(decimal_tokens(), min_size=12, max_size=12), per_line=st.integers(1, 12), window=windows)
def test_decimal_text_matches_float(tmp_path_factory, tokens, per_line, window):
    with _window(window):
        _check_tokens(tmp_path_factory.mktemp("dec") / "a.csv", tokens, per_line)


@pytest.mark.parametrize("token", HARD_CASES)
def test_hard_cases_match_float(tmp_path, token):
    # Ties, the subnormal and normal edges and the largest double, alone
    # and between ordinary values, in the default window and in small ones.
    for window in (None, 1, 26, 40):
        with _window(window):
            _check_tokens(tmp_path / "a.csv", [token], 1)
            _check_tokens(tmp_path / "b.csv", ["0.5", token, "-1e-3", token, "12.25", "7"], 3)
            assert read_vector(tmp_path / "a.csv").tobytes() == np.float64(float(token)).tobytes()


@pytest.mark.parametrize("token", [
    "1.", ".5", "+1", "1E5", "1e", "1e+", "1e1234", "1_0", " 1", "1..2", "--1",
    "1e5e5", "1-2", "0x1", "1.5e-", "1234567890123456789012345",
])
def test_lanes_take_only_the_grammar(tmp_path, token):
    # The lanes hand back text outside the grammar, or tokens of more than
    # 24 bytes; the per-token reader then gives the reference's outcome.
    path = tmp_path / "a.csv"
    path.write_text(f"# dense 2 2\n0.5,-2.25\n{token},3e-7\n")
    assert _lanes(path, 2, 2) is None
    assert _outcome(read_matrix, path) == _outcome(ref_read_matrix, path)


def test_overflow_past_the_largest_double_is_an_error(tmp_path):
    path = tmp_path / "a.csv"
    path.write_text("# dense 1 2\n1.7976931348623158e308,1.7976931348623159e308\n")
    with pytest.raises(FileFormatError, match=r"line 2, field 2: value must be finite"):
        read_matrix(path)


# The second line: text float() takes that the lane grammar does not, or
# that repr would not write; the lanes leave each to the per-token reader.
BAD_TOKENS = ["abc", "inf", "-inf", "nan", "", " ", "1e400", "1,5",
              " 1.5", "1_0", "+1", "1.", ".5", "1E5", "1.50", "١٢", "１", "\u00a01.5"]
# Corruptions of one data line, then of the header: the other kind, a bad
# token for any word, a word dropped or repeated, a zero or a leading-zero
# dimension, a byte-order mark before it.
CORRUPTIONS = ["token", "drop_field", "extra_field", "drop_row", "extra_row", "none",
               "header_kind", "header_token", "header_drop_field", "header_extra_field",
               "header_zero", "header_leading_zero", "header_bom"]
# Whole-file variants: CRLF line ends; a form feed, file separator, space or
# byte-order mark inside a data line; no final newline.
LAYOUTS = ["none", "crlf", "\x0c", "\x1c", " ", "\ufeff", "no_final_newline"]


def _corrupt(lines, kind, row, field, token):
    """Apply one corruption to data line ``row`` (``lines`` excludes the header)."""
    lines = list(lines)
    fields = lines[row].split(",")
    field %= len(fields)
    if kind == "token":
        fields[field] = token
    elif kind == "drop_field":
        del fields[field]
    elif kind == "extra_field":
        fields.insert(field, fields[field])
    elif kind == "drop_row":
        del lines[row]
        return lines
    elif kind == "extra_row":
        lines.insert(row, lines[row])
        return lines
    lines[row] = ",".join(fields)
    return lines


corruption = st.tuples(
    st.sampled_from(CORRUPTIONS),
    st.integers(0, 5),
    st.integers(0, 5),
    st.sampled_from(BAD_TOKENS),
    st.lists(st.tuples(st.integers(0, 6), st.sampled_from(["", "  ", "\t"])), max_size=3),
    st.tuples(st.sampled_from(LAYOUTS), st.integers(0, 40)),
)


def _corrupt_header(header, kind, field, token):
    """Apply one ``header_*`` corruption to the first line."""
    words = header.split(" ")
    dim = 2 + field % (len(words) - 2)
    if kind == "header_kind":
        words[1] = {"dense": "vector", "vector": "dense"}[words[1]]
    elif kind == "header_token":
        words[field % len(words)] = token
    elif kind == "header_drop_field":
        del words[field % len(words)]
    elif kind == "header_extra_field":
        words.insert(field % (len(words) + 1), words[dim])
    elif kind == "header_zero":
        words[dim] = "0"
    elif kind == "header_leading_zero":
        words[dim] = "0" + words[dim]
    elif kind == "header_bom":
        return "\ufeff" + header
    return " ".join(words)


def _write_corrupted(path, header, data, corrupt):
    kind, row, field, token, blanks, (layout, at) = corrupt
    if kind.startswith("header_"):
        header, lines = _corrupt_header(header, kind, field, token), list(data)
    else:
        lines = _corrupt(data, kind, row % len(data), field, token)
    for where, blank in blanks:
        lines.insert(where % (len(lines) + 1), blank)
    if len(layout) == 1 and lines:
        line = lines[row % len(lines)]
        cut = at % (len(line) + 1)
        lines[row % len(lines)] = line[:cut] + layout + line[cut:]
    text = "\n".join([header] + lines) + "\n"
    if layout == "crlf":
        text = text.replace("\n", "\r\n")
    elif layout == "no_final_newline":
        text = text[:-1]
    path.write_bytes(text.encode("utf-8"))


@settings(max_examples=300, deadline=None)
@given(phi=arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 4)), elements=finite),
       corrupt=corruption, window=windows)
def test_matrix_errors_match_reference(tmp_path_factory, phi, corrupt, window):
    path = tmp_path_factory.mktemp("bad") / "phi.csv"
    write_matrix(path, phi)
    header, *data = path.read_text().splitlines()
    _write_corrupted(path, header, data, corrupt)
    with _window(window):
        assert _outcome(read_matrix, path) == _outcome(ref_read_matrix, path)


@settings(max_examples=300, deadline=None)
@given(v=arrays(np.float64, st.integers(1, 6), elements=finite), corrupt=corruption, window=windows)
def test_vector_errors_match_reference(tmp_path_factory, v, corrupt, window):
    path = tmp_path_factory.mktemp("bad") / "v.csv"
    write_vector(path, v)
    header, *data = path.read_text().splitlines()
    _write_corrupted(path, header, data, corrupt)
    with _window(window):
        assert _outcome(read_vector, path) == _outcome(ref_read_vector, path)


def test_line_longer_than_the_window(tmp_path):
    # One line of 200,000 values is several MB, more than the default
    # window; the window widens to hold it, and a cut line still falls back.
    phi = rng(7).normal(size=(1, 200_000))
    path = tmp_path / "wide.csv"
    write_matrix(path, phi)
    assert path.stat().st_size > floattext._WINDOW
    assert _bitwise_equal(read_matrix(path), phi)
    assert _bitwise_equal(_lanes(path, 1, 200_000), phi.ravel())
    path.write_bytes(path.read_bytes()[:-1])
    assert _outcome(read_matrix, path) == _outcome(ref_read_matrix, path)


def test_reader_holds_the_result_and_one_window(tmp_path):
    # Reading a 10 MB file takes its 4 MB result, one window and less than
    # 3 MB of scratch, not a buffer of the whole file.
    phi = rng(8).normal(size=(256, 2048))
    path = tmp_path / "phi.csv"
    write_matrix(path, phi)
    read_matrix(path)  # builds the reader's tables
    tracemalloc.start()
    try:
        again = read_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert _bitwise_equal(again, phi)
    assert peak < phi.nbytes + floattext._WINDOW + 3 * 2**20 < path.stat().st_size


# The float text writer against its oracle, repr, which the package itself
# no longer calls for matrix and vector files.


def _repr_text(values, per_line):
    ends = ["\n" if (i + 1) % per_line == 0 else "," for i in range(len(values))]
    return "".join(repr(v) + end for v, end in zip(values.tolist(), ends)).encode()


def _written(values, per_line=1):
    stream = io.BytesIO()
    write_floats(stream, values, per_line)
    return stream.getvalue()


def _finite(bits):
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    return values[np.isfinite(values)]


# Raw bit patterns: uniform ones, and ones with a uniform exponent field and
# a fraction of a few high bits or none, which give short digit strings,
# powers of two and the lopsided intervals just above them.
bit_patterns = st.one_of(
    st.integers(0, 2**64 - 1),
    st.builds(
        lambda sign, exponent, fraction: sign << 63 | exponent << 52 | fraction,
        st.integers(0, 1),
        st.integers(0, 2046),
        st.integers(0, 2**52 - 1).map(lambda f: f & ~(2**44 - 1)) | st.sampled_from([0, 1, 2**52 - 1]),
    ),
)


@settings(max_examples=examples(300), deadline=None)
@given(bits=st.lists(bit_patterns, min_size=1, max_size=40), per_line=st.integers(1, 7))
def test_float_text_matches_repr_on_bit_patterns(bits, per_line):
    values = _finite(bits)
    assume(values.size)
    assert _written(values, per_line) == _repr_text(values, per_line)


def _with_neighbours(values):
    """Each value and the floats one ulp either side, with both signs."""
    bits = np.abs(np.array(values, dtype=np.float64)).view(np.uint64)
    near = np.concatenate([bits - np.uint64(1), bits, bits + np.uint64(1)])
    return _finite(np.concatenate([near, near | np.uint64(1 << 63)]))


def test_float_text_matches_repr_at_the_edges():
    limits = np.finfo(np.float64)
    edges = [0.0, 5e-324, limits.smallest_normal - 5e-324, limits.smallest_normal, limits.max]
    powers_of_two = [2.0**e for e in range(-1074, 1024)]
    powers_of_ten = [float(f"1e{e}") for e in range(-323, 309)]
    values = _with_neighbours(edges + powers_of_two + powers_of_ten)
    assert _written(values) == _repr_text(values, 1)
    assert _written(np.array([0.0, -0.0, 5e-324, limits.max]), 4) == (
        b"0.0,-0.0,5e-324,1.7976931348623157e+308\n"
    )


def test_float_text_switches_notation_where_repr_does():
    # repr is positional from 1e-4 up to below 1e16 and uses an exponent,
    # with at least two digits, outside; 64 floats either side of each edge.
    edges = np.array([1e-5, 1e-4, 1e16]).view(np.uint64)
    steps = np.arange(-64, 65).astype(np.uint64)
    values = _finite((edges[:, None] + steps).ravel())
    values = np.concatenate([values, -values])
    assert _written(values) == _repr_text(values, 1)
    assert _written(np.array([1e-5, 1e-4, 9.999999999999999e-05, 1e16, 9999999999999998.0]), 5) == (
        b"1e-05,0.0001,9.999999999999999e-05,1e+16,9999999999999998.0\n"
    )


@settings(max_examples=80, deadline=None)
@given(phi=arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 6)), elements=finite))
def test_matrix_and_vector_files_are_repr_text(tmp_path_factory, phi):
    d = tmp_path_factory.mktemp("text")
    write_matrix(d / "phi.csv", phi)
    rows = [",".join(map(repr, row)) for row in phi.tolist()]
    assert (d / "phi.csv").read_bytes() == "\n".join([f"# dense {phi.shape[0]} {phi.shape[1]}", *rows, ""]).encode()
    write_vector(d / "v.csv", phi.ravel())
    lines = [f"# vector {phi.size}", *map(repr, phi.ravel().tolist()), ""]
    assert (d / "v.csv").read_bytes() == "\n".join(lines).encode()


def test_float_text_streams_in_chunks(monkeypatch):
    # Rows longer than a chunk and chunks that end inside a row give the
    # same text as one pass.
    values = rng(4).normal(size=(7, 11)) * 10.0 ** rng(5).integers(-30, 30, size=(7, 11))
    whole = _written(values, 11)
    monkeypatch.setattr("pursuitlab.floattext._CHUNK", 5)
    assert _written(values, 11) == whole == _repr_text(values.ravel(), 11)
