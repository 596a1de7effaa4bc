"""Output checks for the benchmark workloads.

Each ``*_problems`` function returns a list of problems; an empty list means
the output is right.  Where the property can be computed without the
engine, it is: deg-lex leading words, the subword scan, Deligne's growth
series, Witt's necklace formula, the rotation test and the lexicographic
comparison below are the benchmark's own code.  The remaining checks are
properties the method must have (the composition-diamond equality, normal
forms recomputed here modulo the returned relations, replayed
ideal-preservation certificates).
"""

from __future__ import annotations


def deglex_lead(words):
    """Deg-lex greatest of ``words`` (letter tuples); letter 0 is the greatest letter."""
    return max(words, key=lambda w: (len(w), [-c for c in w]))


def braid_growth(max_deg):
    """Coefficients of 1/(1 - 3t + t^2 + 2t^3 - t^6), Deligne's series of B4+."""
    coeffs = []
    for n in range(max_deg + 1):
        value = 1 if n == 0 else 0
        for shift, weight in ((1, 3), (2, -1), (3, -2), (6, 1)):
            if n >= shift:
                value += weight * coeffs[n - shift]
        coeffs.append(value)
    return coeffs


def count_avoiding(leads, letters, max_deg):
    """Words of each degree <= max_deg over ``letters`` letters with no lead as a factor."""
    patterns = ["".join(chr(65 + c) for c in lead) for lead in leads]
    if "" in patterns:
        return [0] * (max_deg + 1)
    chars = [chr(65 + c) for c in range(letters)]
    counts = [1]
    level = [""]
    for _ in range(max_deg):
        # a word avoids every pattern only if its prefixes do, so extend survivors
        level = [
            w + ch
            for w in level
            for ch in chars
            if not any(p in w + ch for p in patterns)
        ]
        counts.append(len(level))
    return counts


def degree_counts(words, max_deg):
    counts = [0] * (max_deg + 1)
    for w in words:
        counts[len(w)] += 1
    return counts


def braid_completion_problems(gsb, max_deg, status_text, inputs, relations, ideal_preserved):
    """The truncated completion of the positive braid presentation B4+."""
    problems = []
    if status_text != f"CompleteUpToDegree({max_deg})":
        problems.append(f"status {status_text}")
    for r in relations:
        terms = r.raw_terms()
        if (
            len(terms) != 2
            or sorted(terms.values()) != [-1, 1]
            or len({len(w) for w in terms}) != 1
        ):
            problems.append(f"{r} is not a difference of two words of equal degree")
    expected = braid_growth(max_deg)
    scanned = count_avoiding([deglex_lead(r.raw_terms()) for r in relations], 3, max_deg)
    if scanned != expected:
        problems.append(f"normal words per degree {scanned} != growth series {expected}")
    spec = gsb.DegLex()
    for p in inputs:
        if not gsb.normal_form(p, relations, spec).is_zero():
            problems.append(f"input {p} does not reduce to 0")
    if not ideal_preserved:
        problems.append("verify_ideal_preservation() failed")
    return problems


def braid_irr_problems(max_deg, words):
    counts = degree_counts(words, max_deg)
    expected = braid_growth(max_deg)
    if counts != expected:
        return [f"irr_words per degree {counts} != growth series {expected}"]
    return []


def completion_status_problems(gsb, report):
    if report.status is gsb.CompletionStatus.BUDGET_EXHAUSTED:
        return ["completion exhausted its budget"]
    return []


def irr_listing_problems(max_deg, words):
    if any(len(w) > max_deg for w in words):
        return [f"irr_words listed a word above degree {max_deg}"]
    if len(set(words)) != len(words):
        return ["irr_words listed a word twice"]
    return []


def oracle_problems(degree, dim, irr_count, previous_dim):
    """Composition-diamond lemma: irreducible count == quotient dimension."""
    problems = []
    if dim != irr_count:
        problems.append(f"degree {degree}: oracle {dim} != irreducible count {irr_count}")
    if previous_dim is not None and dim < previous_dim:
        problems.append(f"degree {degree}: dimension fell from {previous_dim} to {dim}")
    return problems


def certificate_problems(result):
    if not result.report.is_certificate:
        return ["builder returned no certificate"]
    return []


def hnn_problems(gsb, result, table, index_bound):
    """nf(g_j*g_k) = nf(table product), nf(g_i) distinct and nonzero, nf(s*s^-1) = 1."""
    problems = certificate_problems(result)
    p = result.presentation
    A = p.alphabet

    def nf(names):
        word = A.word_from_names(names)
        return gsb.normal_form(gsb.Polynomial.from_word(word), p.relations, p.ordering)

    def element(index):
        return [] if index == 0 else [f"g{index}"]

    for j in range(1, index_bound + 1):
        for k in range(1, index_bound + 1):
            if nf([f"g{j}", f"g{k}"]) != nf(element(table.product[(j, k)])):
                problems.append(f"nf(g{j}*g{k}) differs from the table product")
    gens = [nf([f"g{i}"]) for i in range(1, index_bound + 1)]
    if any(g.is_zero() for g in gens) or len(set(gens)) != len(gens):
        problems.append("nf(g_i) are not distinct and nonzero")
    unit = gsb.Polynomial.unit(A)
    for s in ("a", "b", "t"):
        for pair in ([s, s + "^-1"], [s + "^-1", s]):
            if nf(pair) != unit:
                problems.append(f"nf({'*'.join(pair)}) != 1")
    return problems


def malcev_problems(gsb, result, count):
    """nf(x_i) = x_i, reduced here modulo the returned relations."""
    problems = certificate_problems(result)
    p = result.presentation
    for i in range(1, count + 1):
        x = gsb.Polynomial.from_word(p.alphabet.word_from_names([f"x{i}"]))
        nf = gsb.normal_form(x, p.relations, p.ordering)
        if nf != x:
            problems.append(f"nf(x{i}) = {nf}")
    return problems


def module_problems(gsb, result, count):
    """nf(y_i) distinct and nonzero, reduced here modulo the returned relations."""
    problems = certificate_problems(result)
    p = result.presentation
    values = [
        gsb.module_nf(
            gsb.ModuleElement(p.alphabet, p.basis, {((), p.basis.index(f"y{i}")): 1}),
            p.relations,
            p.ordering,
        )
        for i in range(1, count + 1)
    ]
    if any(v.is_zero() for v in values) or len(set(values)) != len(values):
        problems.append("module witnesses are not distinct and nonzero")
    return problems


def roundtrip_problems(original, loaded):
    if loaded != original:
        return ["load_presentation(format_presentation(p)) != p"]
    return []


def _mobius(m):
    result, p = 1, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    return -result if m > 1 else result


def witt(letters, n):
    """Witt's necklace formula: aperiodic necklaces of length n."""
    return sum(_mobius(d) * letters ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


def lex_key(letters):
    """Sort key of the package's lexicographic order: letter 0 is the greatest
    and a proper prefix is greater than its extensions."""
    return tuple(-c for c in letters) + (1,)


def passes_rotation_test(letters):
    """Every proper rotation is strictly smaller than the word itself."""
    key = lex_key(letters)
    return bool(letters) and all(
        lex_key(letters[i:] + letters[:i]) < key for i in range(1, len(letters))
    )


def alsw_list_problems(letters, max_len, words):
    problems = []
    counts = [0] * (max_len + 1)
    for w in words:
        if not passes_rotation_test(w.letters):
            problems.append(f"{w} fails the rotation test")
        if 1 <= len(w) <= max_len:
            counts[len(w)] += 1
    expected = [0] + [witt(letters, n) for n in range(1, max_len + 1)]
    if counts != expected:
        problems.append(f"ALSWs per length {counts[1:]} != necklace counts {expected[1:]}")
    if len(set(words)) != len(words):
        problems.append("an ALSW is listed twice")
    return problems


def bracketing_problems(gsb, word, bracketed):
    problems = []
    if bracketed.flatten() != word:
        problems.append(f"bracketing of {word} flattens to {bracketed.flatten()}")
    if not gsb.satisfies_nlsw_conditions(bracketed):
        problems.append(f"bracketing {bracketed} breaks the NLSW conditions")
    return problems


def factorization_problems(word, factors):
    problems = []
    if tuple(c for f in factors for c in f.letters) != word.letters:
        problems.append(f"factors of {word} do not concatenate back")
    if not all(passes_rotation_test(f.letters) for f in factors):
        problems.append(f"a factor of {word} fails the rotation test")
    keys = [lex_key(f.letters) for f in factors]
    if any(a > b for a, b in zip(keys, keys[1:])):
        problems.append(f"factors of {word} are not lex non-decreasing")
    return problems


def basis_count_problems(letters, n, count):
    if count != witt(letters, n):
        return [f"nlsw_basis_count at length {n}: {count} != {witt(letters, n)}"]
    return []
