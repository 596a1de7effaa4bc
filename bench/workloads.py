"""The four benchmark workloads: inputs made from a seed, and one pass.

A pass calls the package's public API through ``rec.op(thunk, check)``, one
operation at a time (a closed loop: each call starts after the previous one
returned).  ``rec.op`` times the call and then runs the check on its output.
Every pass performs the same operations in the same order, so a run is a
whole number of rounds.

The seed changes the inputs but not how much work they take: presentations
keep fixed supports and draw their coefficients from the seed, group tables
are relabelled, and word samples have fixed lengths.  That keeps the
spread between runs with different seeds down to machine noise.
"""

from __future__ import annotations

import random
from fractions import Fraction

import checks

# the coefficient set of the package's own acceptance suite
COEFFS = (1, -1, 2, -2, Fraction(1, 2), 3)
# fixes the supports of the generated presentations; the run seed only picks coefficients
SHAPE_SEED = 20260811


class BraidCompletion:
    """Shirshov completion of the positive braid monoid B4+ to a degree bound.

    One operation per pass: the completion followed by ``irr_words`` on its
    result, as a user would run ``gsb complete`` and then ``gsb irr``.
    """

    name = "braid_completion"

    def __init__(self, gsb, seed, tiny=False):
        self.gsb = gsb
        self.max_deg = 6 if tiny else 10
        self.alphabet = gsb.Alphabet(("a", "b", "c"))
        rng = random.Random(seed)
        # the seed orients, scales and orders the relations; completion makes
        # them monic and sorts them, so the work is the same for every seed
        pairs = [("a*b*a", "b*a*b"), ("b*c*b", "c*b*c"), ("a*c", "c*a")]
        rng.shuffle(pairs)
        self.inputs = []
        for lhs, rhs in pairs:
            if rng.random() < 0.5:
                lhs, rhs = rhs, lhs
            scale = rng.choice(COEFFS)
            self.inputs.append(
                gsb.Polynomial.parse(f"{lhs} - {rhs}", self.alphabet) * scale
            )

    def run_pass(self, rec):
        gsb, D = self.gsb, self.max_deg
        spec = gsb.DegLex()

        def complete_and_enumerate():
            report = gsb.shirshov_complete(self.inputs, spec, max_deg=D)
            return report, gsb.irr_words(self.alphabet, report.relations, spec, D)

        def check(out):
            report, words = out
            return checks.braid_completion_problems(
                gsb,
                D,
                report.status_text(),
                self.inputs,
                report.relations,
                report.verify_ideal_preservation(),
            ) + checks.braid_irr_problems(D, words)

        rec.op(complete_and_enumerate, check)


def _support_shapes(count, max_letters=3):
    """Fixed supports: alternating 2 and 3 letters, cycling 1..3 relations of
    up to three words of degree <= 3, as in acceptance criterion 1."""
    rng = random.Random(SHAPE_SEED)
    shapes = []
    for i in range(count):
        letters = 2 + i % (max_letters - 1)
        relations = []
        for _ in range(1 + (i // 2) % 3):
            while True:
                words = {
                    tuple(rng.randrange(letters) for _ in range(rng.randint(0, 3)))
                    for _ in range(3)
                }
                if len(words) >= 2:
                    break
            relations.append(sorted(words))
        shapes.append((letters, relations))
    return shapes


class CdOracle:
    """Small completions checked degree by degree against the exact oracle."""

    name = "cd_oracle"

    def __init__(self, gsb, seed, tiny=False):
        self.gsb = gsb
        self.max_deg = 3 if tiny else 4
        rng = random.Random(seed)
        self.presentations = []
        for letters, supports in _support_shapes(6 if tiny else 60):
            A = gsb.Alphabet(("a", "b", "c")[:letters])
            rels = [
                gsb.Polynomial(A, [(w, rng.choice(COEFFS)) for w in words])
                for words in supports
            ]
            self.presentations.append((A, rels))

    def run_pass(self, rec):
        gsb, D = self.gsb, self.max_deg
        spec = gsb.DegLex()
        for A, rels in self.presentations:
            report = rec.op(
                lambda: gsb.shirshov_complete(rels, spec, max_deg=D, max_steps=20_000),
                lambda r: checks.completion_status_problems(gsb, r),
            )
            previous = None
            for d in range(D + 1):
                words = rec.op(
                    lambda: gsb.irr_words(A, report.relations, spec, d),
                    lambda ws: checks.irr_listing_problems(d, ws),
                )
                n_irr = len(words) if isinstance(words, list) else None
                dim = rec.op(
                    lambda: gsb.quotient_dim_oracle(A, report.relations, spec, d),
                    lambda v: checks.oracle_problems(d, v, n_irr, previous),
                )
                previous = dim if isinstance(dim, int) else None


def _relabelled_cyclic(gsb, order, rng):
    """The cyclic group of the given order with its non-identity elements relabelled."""
    size = order - 1
    labels = list(range(1, size + 1))
    rng.shuffle(labels)
    sigma = [0] + labels
    product = {
        (sigma[j], sigma[k]): sigma[(j + k) % order]
        for j in range(1, size + 1)
        for k in range(1, size + 1)
    }
    inverse = {sigma[j]: sigma[(order - j) % order] for j in range(1, size + 1)}
    return gsb.GroupTable(size, product, inverse)


def _certified_bases(gsb, rng, alphabet, spec, count):
    """Certified deg-lex bases whose leading words have degree >= 2.

    The supports come from a fixed sequence and the seed draws the
    coefficients; a support whose completion is not certified with its
    coefficients gets new ones, and after four tries the next support.
    """
    shapes = random.Random(SHAPE_SEED)
    bases = []
    while len(bases) < count:
        supports = []
        for _ in range(shapes.randint(1, 2)):
            top = shapes.randint(2, 3)
            words = {
                tuple(shapes.randrange(alphabet.size) for _ in range(shapes.randint(0, top)))
                for _ in range(shapes.randint(2, 3))
            }
            supports.append(sorted(words))
        if any(len(checks.deglex_lead(ws)) < 2 for ws in supports):
            continue
        for _ in range(4):
            rels = [gsb.Polynomial(alphabet, [(w, rng.choice(COEFFS)) for w in ws]) for ws in supports]
            report = gsb.shirshov_complete(rels, spec, max_deg=6, max_steps=2_000)
            if report.is_certified and all(r.degree(spec) >= 2 for r in report.relations):
                bases.append(gsb.Presentation(alphabet, spec, report.relations))
                break
    return bases


class Embeddings:
    """The paper's four constructions, each certified by a composition check,
    and a text round trip of every presentation they build."""

    name = "embeddings"

    def __init__(self, gsb, seed, tiny=False):
        self.gsb = gsb
        rng = random.Random(seed)
        spec = gsb.DegLex()
        order = 4 if tiny else 7
        self.hnn_bound = order - 1
        self.hnn_table = _relabelled_cyclic(gsb, order, rng)
        self.malcev_count = 5
        x = gsb.Alphabet(tuple(f"x{i}" for i in range(1, 6)))
        self.malcev_bases = _certified_bases(gsb, rng, x, spec, 3 if tiny else 24)
        # the left-zero band x_i*x_j = x_i is associative
        names = ("x1", "x2", "x3")
        self.simple_table = gsb.MultTable(
            names, {(i, j): names[i - 1] for i in range(1, 4) for j in range(1, 4)}
        )
        base = self.simple_table.base_alphabet()
        self.simple_steps = []
        for _ in range(2 if tiny else 16):
            pairs = []
            for m in (1, 2):
                f, g = (self._linear(rng, base) for _ in range(2))
                pairs.append(gsb.SimplePair(f, g, f"u{m}", f"v{m}"))
            self.simple_steps.append(gsb.SimpleStepInput(tuple(pairs)))
        ab = gsb.Alphabet(("a", "b"))
        self.module_bases = [
            gsb.ModulePresentation(
                ab, gsb.ModuleBasis(tuple(f"y{i}" for i in range(1, k + 1))), gsb.ModuleTop(), ()
            )
            for k in ((3,) if tiny else (3, 4, 5, 6))
        ]

    def _linear(self, rng, base):
        """Every table letter and 1 with seeded nonzero coefficients; no table
        product occurs inside, and the support is the same for every seed."""
        terms = [((c,), rng.choice(COEFFS)) for c in range(base.size)] + [((), rng.choice(COEFFS))]
        return self.gsb.Polynomial(base, terms)

    def _roundtrip(self, rec, presentation):
        gsb = self.gsb
        text = rec.op(lambda: gsb.format_presentation(presentation))
        rec.op(
            lambda: gsb.load_presentation(text),
            lambda loaded: checks.roundtrip_problems(presentation, loaded),
        )

    def run_pass(self, rec):
        gsb = self.gsb
        built = [
            rec.op(
                lambda: gsb.build_hnn(self.hnn_table, self.hnn_bound),
                lambda r: checks.hnn_problems(gsb, r, self.hnn_table, self.hnn_bound),
            )
        ]
        for base in self.malcev_bases:
            built.append(
                rec.op(
                    lambda: gsb.build_malcev(base, self.malcev_count),
                    lambda r: checks.malcev_problems(gsb, r, self.malcev_count),
                )
            )
        for steps in self.simple_steps:
            built.append(
                rec.op(
                    lambda: gsb.build_simple_step(self.simple_table, steps, 2, 2),
                    checks.certificate_problems,
                )
            )
        for base in self.module_bases:
            count = base.basis.size
            built.append(
                rec.op(
                    lambda: gsb.build_module_cyclic(base, count),
                    lambda r: checks.module_problems(gsb, r, count),
                )
            )
        for result in built:
            self._roundtrip(rec, getattr(result, "presentation", None))


class LyndonWords:
    """Lyndon-Shirshov words over 2- and 3-letter alphabets."""

    name = "lyndon_words"

    def __init__(self, gsb, seed, tiny=False):
        self.gsb = gsb
        rng = random.Random(seed)
        self.cases = []
        for letters, max_len in ((2, 6), (3, 4)) if tiny else ((2, 12), (3, 8)):
            A = gsb.Alphabet(("a", "b", "c")[:letters])
            # fixed lengths 1..24, seeded letters
            samples = [
                gsb.Word(A, tuple(rng.randrange(letters) for _ in range(1 + i % 24)))
                for i in range(10 if tiny else 100)
            ]
            self.cases.append((A, letters, max_len, samples))

    def run_pass(self, rec):
        gsb = self.gsb
        for A, letters, max_len, samples in self.cases:
            words = rec.op(
                lambda: gsb.alsw_up_to(A, max_len),
                lambda ws: checks.alsw_list_problems(letters, max_len, ws),
            )
            for w in words if isinstance(words, list) else ():
                rec.op(
                    lambda: gsb.std_bracketing(w),
                    lambda bw: checks.bracketing_problems(gsb, w, bw),
                )
            for w in samples:
                rec.op(
                    lambda: gsb.clf_factorize(w),
                    lambda fs: checks.factorization_problems(w, fs),
                )
            for n in range(1, max_len + 1):
                rec.op(
                    lambda: gsb.nlsw_basis_count(A, n),
                    lambda c: checks.basis_count_problems(letters, n, c),
                )


WORKLOADS = {
    cls.name: cls for cls in (BraidCompletion, CdOracle, Embeddings, LyndonWords)
}
