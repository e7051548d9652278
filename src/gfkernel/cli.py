"""Command-line front end.

Exit codes: 0 when the requested check holds, 1 when it completes with a
negative verdict, 2 for configuration or expression errors, 3 when a
numerical routine gives up (overflow and invalid floating-point
operations included), 4 for any other, unexpected failure.  All output is
a pure function of the arguments, so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import cache

import numpy as np

from .basic import BasicElement, iota, lie_hat, lie_tilde, sigma
from .dist import delta, heaviside, pair, regular
from .errors import ConfigError, DomainMismatch, GFKernelError, ParseError
from .kernel import (
    DEFAULT_K_GRID,
    constant_witness_seq,
    make_mollifier,
    standard_sequence,
)
from .smooth import (
    CompactInterval,
    Domain,
    TestFn,
    bump,
    constant,
    constant_field,
    exp_fn,
    polynomial,
    seminorm,
    sin_fn,
)
from .testing import (
    ASSOC_ABS_TOL,
    ASSOC_REL_TOL,
    associated,
    classify,
    default_family,
    default_region,
    element_family,
    embedding_residual_sweep,
    is_negligible,
    sweep_seminorms,
    validate_test_object,
)

_SMOOTH_NAMES = {
    "sin": sin_fn,
    "exp": exp_fn,
    "one": lambda: constant(1.0),
    "x": lambda: polynomial([0.0, 1.0]),
    "x2": lambda: polynomial([0.0, 0.0, 1.0]),
    "x3": lambda: polynomial([0.0, 0.0, 0.0, 1.0]),
    "bump": lambda: bump(0.0, 1.0),
}


# ---------------------------------------------------------------------------
# expression language


class _Parser:
    """Recursive descent over a tiny expression language.

    expr    := term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := NUMBER | '(' expr ')' | call
    call    := iota(dist) | sigma(fn:NAME) | liehat(expr) | lietilde(expr)
             | restrict[a,b](expr)
    dist    := delta(a) | ddelta(a, m) | H | fn:NAME

    Numbers must be finite, points and restriction intervals must lie in
    the domain, operands must share one, and nesting is capped at
    ``MAX_DEPTH`` levels, so bad input fails here with a position rather
    than later in the numerics.  Repeated ``H`` and ``fn:NAME`` leaves
    are one distribution object, so an evaluation pairs each once.
    """

    MAX_DEPTH = 100

    def __init__(self, src: str, domain: Domain):
        self.src = src
        self.pos = 0
        self.domain = domain
        self.depth = 0
        self.dists: dict = {}  # H and fn:NAME -> the one object of this expression

    # scanning ------------------------------------------------------------

    def _ws(self):
        while self.pos < len(self.src) and self.src[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._ws()
        return self.src[self.pos] if self.pos < len(self.src) else ""

    def _expect(self, ch: str):
        if self._peek() != ch:
            raise ParseError(f"expected '{ch}'", self.pos)
        self.pos += 1

    def _word(self) -> str:
        self._ws()
        start = self.pos
        while self.pos < len(self.src) and (self.src[self.pos].isalnum()
                                            or self.src[self.pos] in "_:"):
            self.pos += 1
        return self.src[start:self.pos]

    def _number(self) -> float:
        self._ws()
        start = self.pos
        if self._peek() and self._peek() in "+-":
            self.pos += 1
        seen = False
        while self.pos < len(self.src) and (self.src[self.pos].isdigit()
                                            or self.src[self.pos] in ".eE"
                                            or (self.src[self.pos] in "+-"
                                                and self.src[self.pos - 1] in "eE")):
            seen = True
            self.pos += 1
        if not seen:
            raise ParseError("expected a number", start)
        try:
            val = float(self.src[start:self.pos])
        except ValueError:
            raise ParseError("malformed number", start) from None
        if not math.isfinite(val):
            raise ParseError("number is not finite", start)
        return val

    # grammar -------------------------------------------------------------

    def parse(self) -> BasicElement:
        try:
            val = self._expr()
        except DomainMismatch as exc:
            raise ParseError(str(exc), self.pos) from None
        self._ws()
        if self.pos != len(self.src):
            raise ParseError("trailing input", self.pos)
        if not isinstance(val, BasicElement):
            raise ParseError("expression is a bare number, not an element", 0)
        return val

    def _expr(self):
        self.depth += 1
        if self.depth > self.MAX_DEPTH:
            raise ParseError("expression nested too deeply", self.pos)
        val = self._term()
        while self._peek() and self._peek() in "+-":
            op = self._peek()
            self.pos += 1
            rhs = self._term()
            val, rhs = self._promote(val, rhs)
            val = self._finite(val + rhs if op == "+" else val - rhs)
        self.depth -= 1
        return val

    def _term(self):
        val = self._factor()
        while self._peek() == "*":
            self.pos += 1
            rhs = self._factor()
            if isinstance(val, float) and isinstance(rhs, BasicElement):
                val, rhs = rhs, val
            val = self._finite(val * rhs)
        return val

    def _finite(self, val):
        if isinstance(val, float) and not math.isfinite(val):
            raise ParseError("number is not finite", self.pos)
        return val

    def _promote(self, a, b):
        if isinstance(a, BasicElement) and isinstance(b, float):
            b = sigma(constant(b), a.domain)
        if isinstance(b, BasicElement) and isinstance(a, float):
            a = sigma(constant(a), b.domain)
        return a, b

    def _factor(self):
        c = self._peek()
        if c == "(":
            self.pos += 1
            val = self._expr()
            self._expect(")")
            return val
        if c.isdigit() or (c and c in "+-."):
            return self._number()
        start = self.pos
        word = self._word()
        if not word:
            raise ParseError("expected a factor", self.pos)
        if word == "iota":
            self._expect("(")
            u = self._dist()
            self._expect(")")
            return iota(u)
        if word == "sigma":
            self._expect("(")
            f = self._smooth()
            self._expect(")")
            return sigma(f, self.domain)
        if word in ("liehat", "lietilde"):
            self._expect("(")
            a = self._expr()
            self._expect(")")
            if not isinstance(a, BasicElement):
                raise ParseError("lie derivative of a bare number", start)
            X = constant_field(1.0, a.domain)
            return lie_hat(X, a) if word == "liehat" else lie_tilde(X, a)
        if word == "restrict":
            self._expect("[")
            a = self._number()
            self._expect(",")
            b = self._number()
            self._expect("]")
            self._expect("(")
            inner = self._expr()
            self._expect(")")
            if not isinstance(inner, BasicElement):
                raise ParseError("restriction of a bare number", start)
            if not a < b:
                raise ParseError("empty restriction interval", start)
            V = Domain.interval(a, b)
            if not V.is_subset(inner.domain):
                raise ParseError("restriction interval leaves the domain", start)
            return inner.restrict(V)
        raise ParseError(f"unknown name '{word}'", start)

    def _dist(self):
        start = self.pos
        word = self._word()
        if word == "delta":
            self._expect("(")
            a = self._point()
            self._expect(")")
            return delta(a, domain=self.domain)
        if word == "ddelta":
            self._expect("(")
            a = self._point()
            self._expect(",")
            m = self._number()
            self._expect(")")
            if m != int(m) or m < 0:
                raise ParseError("derivative order must be a whole number", start)
            return delta(a, order=int(m), domain=self.domain)
        if word == "H" or word.startswith("fn:"):
            if word not in self.dists:
                self.dists[word] = (heaviside(self.domain) if word == "H" else
                                    regular(self._named(word, start), domain=self.domain))
            return self.dists[word]
        raise ParseError(f"unknown distribution '{word}'", start)

    def _point(self) -> float:
        start = self.pos
        a = self._number()
        if not self.domain.contains(a):
            raise ParseError(f"point {a} is outside the domain", start)
        return a

    def _smooth(self):
        start = self.pos
        word = self._word()
        if word.startswith("fn:"):
            return self._named(word, start)
        raise ParseError("sigma takes fn:<name>", start)

    def _named(self, word: str, start: int):
        name = word[3:]
        maker = _SMOOTH_NAMES.get(name)
        if maker is None:
            known = ", ".join(sorted(_SMOOTH_NAMES))
            raise ParseError(f"unknown function '{name}' (known: {known})", start)
        return maker()


def parse_expr(src: str, domain: Domain) -> BasicElement:
    return _Parser(src, domain).parse()


# ---------------------------------------------------------------------------
# configuration


_CONFIG_KEYS = ("domain", "ks", "grade", "region")


def parse_config(path: str) -> dict:
    """Flat key=value file; '#' starts a comment, blank lines ignored."""
    cfg: dict = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    for ln, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(
                f"line {ln}: unknown key {key!r} (known: {', '.join(_CONFIG_KEYS)})")
        if key in cfg:
            raise ConfigError(f"line {ln}: duplicate key {key!r}")
        try:
            if key == "domain":
                lo, hi = (float(v) for v in value.split(","))
                cfg["domain"] = Domain.interval(lo, hi)
            elif key == "region":
                lo, hi = (float(v) for v in value.split(","))
                cfg["region"] = CompactInterval(lo, hi)
            elif key == "ks":
                ks = tuple(int(v) for v in value.split(","))
                if len(ks) < 2 or any(b <= a for a, b in zip(ks, ks[1:])):
                    raise ValueError("need at least two increasing rates")
                if ks[0] < 1:
                    raise ValueError(f"rates must be >= 1, got {ks[0]}")
                cfg["ks"] = ks
            elif key == "grade":
                cfg["grade"] = int(value)
                if cfg["grade"] < 0:
                    raise ValueError(f"grade must be >= 0, got {value}")
        except (ValueError, GFKernelError) as exc:
            raise ConfigError(f"line {ln}: bad value for {key!r}: {exc}") from None
    return cfg


def _context(args) -> dict:
    cfg = parse_config(args.config) if args.config else {}
    cfg.setdefault("domain", Domain.interval(-2.0, 2.0))
    cfg.setdefault("ks", DEFAULT_K_GRID)
    cfg.setdefault("grade", 3)
    cfg.setdefault("region", None)
    K, dom = cfg["region"], cfg["domain"]
    if K is not None and not dom.contains_interval(K.lo, K.hi, strict=True):
        raise ConfigError(f"region [{K.lo}, {K.hi}] is not inside the domain "
                          f"{dom.intervals}")
    return cfg


# ---------------------------------------------------------------------------
# report rendering


def _fmt(v: float) -> str:
    return f"{v:.17e}"


def _verdict(ok: bool) -> str:
    return "pass" if ok else "FAIL"


def _show_sweep(label: str, sv, out) -> None:
    fit = sv.fit
    if fit.exact_zero:
        print(f"  {label}: identically zero", file=out)
        return
    print(f"  {label}: slope {fit.slope:+.3f} (bound {sv.bound:+.3f}) "
          f"values {' '.join('%.3e' % v for v in fit.values)} "
          f"[{_verdict(sv.ok)}]", file=out)


# ---------------------------------------------------------------------------
# commands


def cmd_demo(args) -> int:
    cfg = _context(args)
    dom, ks = cfg["domain"], cfg["ks"]
    out = sys.stdout
    seq = default_family(dom, 3)
    K = cfg["region"] or default_region(dom)
    c = 0.5 * (K.lo + K.hi)
    print("smoothing a point mass (values at the region center):", file=out)
    dl = iota(delta(c, domain=dom))
    for k in ks:
        print(f"  k={k:4d}  delta_k({c:g}) = {_fmt(element_family(dl, seq)(k).jet(c, 0))}",
              file=out)
    fit = sweep_seminorms(element_family(dl * dl, seq), K, 0, ks)
    print(f"square of the point mass grows like k^{fit.slope:.3f}", file=out)
    res = embedding_residual_sweep(sin_fn(), seq, K=K, m=0, k_grid=ks)
    print(f"embedding residual of sin decays like k^{res.slope:.3f}", file=out)
    hd = iota(heaviside(dom, jump_at=c)) * dl
    # a fifth of the domain's width (default_region clips an unbounded one)
    phi = TestFn(bump(c, 0.8 * default_region(dom).width, dom))
    fn = element_family(hd, seq)(ks[-1])
    got, = pair(regular(fn), [phi], rel_tol=ASSOC_REL_TOL, abs_tol=ASSOC_ABS_TOL).value
    print(f"step*delta paired with a bump at k={ks[-1]}: {_fmt(got)}", file=out)
    print(f"  (half the bump's center value: {_fmt(phi.jet(c, 0) / 2)})", file=out)
    return 0


def cmd_validate(args) -> int:
    cfg = _context(args)
    grade = args.grade if args.grade is not None else cfg["grade"]
    if grade < 0:
        raise ConfigError(f"grade must be >= 0, got {grade}")
    seq = standard_sequence(cfg["domain"], make_mollifier(grade))
    rep = validate_test_object(seq, K=cfg["region"], k_grid=cfg["ks"])
    out = sys.stdout
    print(f"grade {rep.grade} sequence on {cfg['domain'].intervals}:", file=out)
    print(f"rate condition: {_verdict(rep.rate_ok)}", file=out)
    for (probe, m), sv in sorted(rep.rate.items()):
        _show_sweep(f"{probe} m={m}", sv, out)
    print(f"growth condition: {_verdict(rep.growth_ok)}", file=out)
    for m, sv in sorted(rep.growth.items()):
        _show_sweep(f"kernel m={m}", sv, out)
    print(f"weak convergence: {_verdict(rep.weak_ok)}", file=out)
    for (uname, idx), sv in sorted(rep.weak.items()):
        _show_sweep(f"{uname} test-fn {idx}", sv, out)
    print(f"overall: {_verdict(rep.passed)}", file=out)
    return 0 if rep.passed else 1


def cmd_classify(args) -> int:
    cfg = _context(args)
    R = parse_expr(args.expr, cfg["domain"])
    mod, neg = classify(R, K=cfg["region"], k_grid=cfg["ks"])
    out = sys.stdout
    print(f"moderate: {mod.verdict}", file=out)
    for m, sv in sorted(mod.sweeps.items()):
        _show_sweep(f"order {m}", sv, out)
    print(f"negligible: {neg.verdict}", file=out)
    for m, sv in sorted(neg.sweeps.items()):
        _show_sweep(f"order {m}", sv, out)
    return 0 if mod.verdict else 1


def _show_association(rep, headline: str) -> int:
    out = sys.stdout
    for idx, sv in sorted(rep.sweeps.items()):
        if sv.fit.peak < sv.floor and not sv.fit.exact_zero:
            print(f"  test-fn {idx}: below resolution floor [pass]", file=out)
        else:
            _show_sweep(f"test-fn {idx}", sv, out)
    print(f"{headline}: {rep.verdict}", file=out)
    return 0 if rep.verdict else 1


def cmd_associate(args) -> int:
    cfg = _context(args)
    A = parse_expr(args.left, cfg["domain"])
    B = parse_expr(args.right, cfg["domain"]) if args.right is not None else None
    if B is not None and B.domain != A.domain:
        raise ParseError(f"the right operand lives on another domain, {B.domain.intervals}", 0)
    return _show_association(associated(A, B, k_grid=cfg["ks"]), "associated")


def cmd_sheaf_demo(args) -> int:
    cfg = _context(args)
    dom = cfg["domain"]
    out = sys.stdout
    lo, hi = dom.hull()
    third = (hi - lo) / 3.0
    a, b = lo + third, hi - third
    prod = iota(delta(a, domain=dom)) * iota(delta(b, domain=dom))
    left = prod.restrict(Domain.interval(lo, 0.5 * (a + b)))
    k = cfg["ks"][2] if len(cfg["ks"]) > 2 else cfg["ks"][-1]
    split_sup = seminorm(element_family(left, default_family(left.domain, 3))(k),
                         default_region(left.domain), 0)
    print(f"product of separated point masses, restricted away from one of",
          file=out)
    print(f"them, evaluated at k={k}: sup = {_fmt(split_sup)}", file=out)
    w = constant_witness_seq(dom)
    glob_sup = seminorm(element_family(prod, w)(k), default_region(dom), 0)
    print(f"same product through a non-localizing witness: sup = {_fmt(glob_sup)}",
          file=out)
    ok = split_sup == 0.0 and glob_sup > 0.0
    c = 0.5 * (lo + hi)
    dl = iota(delta(c, domain=dom))
    right = dl.restrict(Domain.interval(c + 0.125 * (hi - lo), hi))
    neg = is_negligible(right, k_grid=cfg["ks"])
    print(f"point mass restricted away from its support is negligible: "
          f"{neg.verdict}", file=out)
    ok = ok and neg.verdict
    print(f"sheaf checks: {_verdict(ok)}", file=out)
    return 0 if ok else 1


def cmd_lie_check(args) -> int:
    cfg = _context(args)
    R = parse_expr(args.expr, cfg["domain"])
    X = constant_field(1.0, R.domain)
    rep = associated(lie_tilde(X, R), lie_hat(X, R), k_grid=cfg["ks"])
    return _show_association(
        rep, "transport and recentering derivatives associated")


def cmd_export(args) -> int:
    cfg = _context(args)
    if args.out == "-":
        sys.stdout.write(_export_csv(cfg))
        return 0
    # opened before the sweeps, so an unwritable path fails at once
    try:
        with open(args.out, "w") as fh:
            fh.write(_export_csv(cfg))
    except OSError as exc:
        raise ConfigError(f"cannot write {args.out}: {exc}") from None
    return 0


def _export_csv(cfg: dict) -> str:
    dom, ks = cfg["domain"], cfg["ks"]
    K = cfg["region"] or default_region(dom)
    c = 0.5 * (K.lo + K.hi)
    rows: list[tuple] = []

    for g in range(6):
        seq = standard_sequence(dom, make_mollifier(g))
        fit = embedding_residual_sweep(sin_fn(), seq, K=K, m=0, k_grid=ks)
        ok = fit.exact_zero or fit.slope <= -(g + 1) + 0.5
        for k, v in zip(ks, fit.values):
            rows.append((f"embed-residual-q{g}", k, 0, v, fit.slope, ok))

    seq = default_family(dom, 3)
    dl = iota(delta(c, domain=dom))
    fit = sweep_seminorms(element_family(dl * dl, seq), K, 0, ks)
    ok = abs(fit.slope - 2.0) <= 0.5
    for k, v in zip(ks, fit.values):
        rows.append(("pointmass-square", k, 0, v, fit.slope, ok))

    H = iota(heaviside(dom, jump_at=c))
    fit = sweep_seminorms(element_family(H * H - H, seq), K, 0, ks)
    ok = fit.slope >= -0.2
    for k, v in zip(ks, fit.values):
        rows.append(("step-square-defect", k, 0, v, fit.slope, ok))

    lines = ["experiment,k,seminorm,value,slope,verdict"]
    for exp, k, m, v, slope, ok in rows:
        lines.append(f"{exp},{k},{m},{_fmt(v)},{_fmt(slope)},{str(ok).lower()}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# entry point


@cache  # parse_args leaves the parser as it was; build it once per process
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gfkernel",
        description="generalized functions along smoothing-kernel sequences")
    p.add_argument("--config", help="key=value config file", default=None)
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="small numerical tour")

    v = sub.add_parser("validate-testobject", help="grade a kernel sequence")
    v.add_argument("--grade", type=int, default=None)

    c = sub.add_parser("classify", help="moderate/negligible verdicts")
    c.add_argument("expr")

    a = sub.add_parser("associate", help="weak equality of two elements")
    a.add_argument("left")
    a.add_argument("right", nargs="?", default=None)

    sub.add_parser("sheaf-demo", help="restriction and localization checks")

    l = sub.add_parser("lie-check", help="compare the two derivative flows")
    l.add_argument("expr")

    e = sub.add_parser("export", help="write sweep data as CSV")
    e.add_argument("--out", default="-")

    return p


_COMMANDS = {
    "demo": cmd_demo,
    "validate-testobject": cmd_validate,
    "classify": cmd_classify,
    "associate": cmd_associate,
    "sheaf-demo": cmd_sheaf_demo,
    "lie-check": cmd_lie_check,
    "export": cmd_export,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # overflow or NaN in the jet arithmetic stops the run where it
        # happens instead of surfacing as a non-finite sweep at the end
        with np.errstate(over="raise", invalid="raise"):
            return _COMMANDS[args.command](args)
    except (ParseError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GFKernelError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except FloatingPointError as exc:
        print(f"numerical failure: values are not all finite ({exc})",
              file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
