"""Regenerate the paper's tables and figures from the reproduction.

Usage::

    python benchmarks/report.py figure4   # Figure 4 execution-time table
    python benchmarks/report.py figure5   # Figure 5 series (time vs #variables per segment count)
    python benchmarks/report.py table1    # Table 1 method catalogue check
    python benchmarks/report.py table2    # Table 2 SGD-trained models
    python benchmarks/report.py table3    # Table 3 text-analysis methods
    python benchmarks/report.py all

Row counts are laptop-scale (see ``REPRO_BENCH_ROWS``); the "paper" column in
figure4/figure5 output is the paper's number linearly rescaled from 10M rows
to the row count actually used, so only the *shape* (ordering, growth,
speedup) is comparable, not absolute values.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import (  # noqa: E402
    DEFAULT_ROWS,
    PAPER_SEGMENTS,
    PAPER_VERSIONS,
    format_table,
    scale_paper_time,
    sweep_figure4,
)

from repro import Database  # noqa: E402
from repro.convex import (  # noqa: E402
    train_crf_labeling,
    train_lasso,
    train_least_squares,
    train_logistic,
    train_recommendation,
    train_svm,
)
from repro.datasets import (  # noqa: E402
    load_baskets_table,
    load_logistic_table,
    load_points_table,
    load_regression_table,
    make_baskets,
    make_blobs,
    make_logistic,
    make_low_rank_matrix,
    make_name_variants,
    make_ratings,
    make_regression,
    make_tag_corpus,
    make_documents,
)
from repro.methods import (  # noqa: E402
    association_rules,
    kmeans,
    lda,
    linear_regression,
    logistic_regression,
    naive_bayes,
    profile,
    quantiles,
    svd,
    svm,
)
from repro.methods.sketches import count_distinct, sketch_column  # noqa: E402
from repro.support import SparseVector, conjugate_gradient, install_array_ops  # noqa: E402
from repro.text import (  # noqa: E402
    TokenFeatureExtractor,
    TrigramIndex,
    gibbs_sample,
    train_crf,
    viterbi,
)

#: Reduced default sweep so `report.py figure4` finishes in a few minutes.
REPORT_VARIABLES = [10, 20, 40, 80]


def report_figure4(variables=REPORT_VARIABLES, segments=PAPER_SEGMENTS, rows=DEFAULT_ROWS) -> str:
    measurements = sweep_figure4(
        rows=rows, segments_list=segments, variables_list=variables, versions=PAPER_VERSIONS
    )
    table_rows = []
    for measurement in measurements:
        paper = scale_paper_time(
            measurement.segments, measurement.variables, measurement.version, rows=measurement.rows
        )
        table_rows.append(
            {
                "# segments": measurement.segments,
                "# variables": measurement.variables,
                "version": measurement.version,
                "rows": measurement.rows,
                "modelled parallel (s)": measurement.modelled_parallel_seconds,
                "paper rescaled (s)": paper if paper is not None else "n/a",
            }
        )
    lines = [
        "Figure 4: Linear regression execution times, modelled for concurrent segments "
        f"({rows} rows; paper column rescaled from 10M rows)",
        format_table(
            table_rows,
            [
                "# segments",
                "# variables",
                "version",
                "rows",
                "modelled parallel (s)",
                "paper rescaled (s)",
            ],
        ),
    ]
    return "\n".join(lines)


def report_figure5(variables=REPORT_VARIABLES, segments=PAPER_SEGMENTS, rows=DEFAULT_ROWS) -> str:
    measurements = sweep_figure4(
        rows=rows, segments_list=segments, variables_list=variables, versions=["v0.3"]
    )
    by_cell = {(m.segments, m.variables): m for m in measurements}
    table_rows = []
    for variables_count in variables:
        row = {"# independent variables": variables_count}
        for segment_count in segments:
            measurement = by_cell[(segment_count, variables_count)]
            row[f"{segment_count} segments (s)"] = measurement.modelled_parallel_seconds
        table_rows.append(row)
    speedup_rows = []
    for segment_count in segments:
        widest = by_cell[(segment_count, variables[-1])]
        speedup_rows.append(
            {"# segments": segment_count, "modelled speedup": widest.modelled_speedup}
        )
    lines = [
        f"Figure 5: Linear regression (v0.3) execution times, modelled for concurrent "
        f"segments, {rows} rows",
        format_table(
            table_rows,
            ["# independent variables"] + [f"{s} segments (s)" for s in segments],
        ),
        "",
        "Modelled parallel speedup at the widest model (ideal = # segments):",
        format_table(speedup_rows, ["# segments", "modelled speedup"]),
    ]
    return "\n".join(lines)


def report_table1() -> str:
    database = Database(num_segments=4)
    regression = make_regression(2000, 5, seed=201)
    load_regression_table(database, "regr", regression)
    classification = make_logistic(2000, 4, seed=202)
    load_logistic_table(database, "logi", classification)
    signed = make_logistic(1000, 4, seed=203, labels_plus_minus=True)
    load_logistic_table(database, "signed", signed)
    points, _, _ = make_blobs(1000, 3, 4, seed=204)
    load_points_table(database, "pts", points)
    baskets = make_baskets(300, 25, seed=205)
    load_baskets_table(database, "baskets", baskets)
    documents, _ = make_documents(25, 40, 3, seed=206)
    lda.load_corpus_table(database, "corpus", documents)
    install_array_ops(database)

    rows = []

    def timed(category, method, runner, summary):
        start = time.perf_counter()
        value = runner()
        elapsed = time.perf_counter() - start
        rows.append(
            {"category": category, "method": method, "status": "ok",
             "seconds": elapsed, "summary": summary(value)}
        )

    timed("Supervised Learning", "Linear Regression",
          lambda: linear_regression.train(database, "regr"),
          lambda m: f"r2={m.r2:.3f}")
    timed("Supervised Learning", "Logistic Regression",
          lambda: logistic_regression.train(database, "logi", max_iterations=10),
          lambda m: f"iters={m.num_iterations}")
    timed("Supervised Learning", "Naive Bayes Classification",
          lambda: naive_bayes.train_gaussian(database, "logi", "y", "x"),
          lambda m: f"classes={len(m.classes)}")
    timed("Supervised Learning", "Decision Trees (C4.5)",
          lambda: _tree(database),
          lambda m: f"nodes={m.num_nodes()}")
    timed("Supervised Learning", "Support Vector Machines",
          lambda: svm.train_classifier(database, "signed", max_iterations=10),
          lambda m: f"epochs={m.num_iterations}")
    timed("Unsupervised Learning", "k-Means Clustering",
          lambda: kmeans.train(database, "pts", k=4, seed=207, max_iterations=10),
          lambda m: f"objective={m.objective:.1f}")
    timed("Unsupervised Learning", "SVD Matrix Factorisation",
          lambda: svd.truncated_svd(make_low_rank_matrix(60, 40, 5, seed=208), rank=5, seed=209),
          lambda m: f"rel_err={m.relative_error(make_low_rank_matrix(60, 40, 5, seed=208)):.3f}")
    timed("Unsupervised Learning", "Latent Dirichlet Allocation",
          lambda: lda.train(database, "corpus", num_topics=3, num_iterations=5, seed=210),
          lambda m: f"topics={m.num_topics}")
    timed("Unsupervised Learning", "Association Rules",
          lambda: association_rules.mine(database, "baskets", min_support=0.3, min_confidence=0.6),
          lambda result: f"itemsets={len(result[0])}, rules={len(result[1])}")
    timed("Descriptive Statistics", "Count-Min Sketch",
          lambda: sketch_column(database, "regr", "id", eps=0.02, delta=0.02),
          lambda sketch: f"total={sketch.total}")
    timed("Descriptive Statistics", "Flajolet-Martin Sketch",
          lambda: count_distinct(database, "regr", "id"),
          lambda estimate: f"distinct~{estimate:.0f} (true 2000)")
    timed("Descriptive Statistics", "Data Profiling",
          lambda: profile.profile(database, "regr"),
          lambda p: f"columns={len(p.columns)}")
    timed("Descriptive Statistics", "Quantiles",
          lambda: quantiles.approximate_quantiles(database, "regr", "y", [0.25, 0.5, 0.75]),
          lambda values: f"median={values[1]:.2f}")
    timed("Support Modules", "Sparse Vectors",
          lambda: SparseVector.from_dense(np.zeros(10000)).concat(SparseVector.repeat(1.0, 10)),
          lambda v: f"runs={v.num_runs}")
    timed("Support Modules", "Array Operations",
          lambda: database.query_scalar("SELECT sum(madlib_array_dot(x, x)) FROM regr"),
          lambda value: f"sum_xx={value:.1f}")
    timed("Support Modules", "Conjugate Gradient Optimization",
          lambda: _cg(),
          lambda result: f"iters={result.iterations}")

    return "Table 1: MADlib methods reproduced\n" + format_table(
        rows, ["category", "method", "status", "seconds", "summary"]
    )


def _tree(database):
    from repro.methods import decision_tree
    from repro.methods.decision_tree import FeatureSpec

    database.execute("DROP TABLE IF EXISTS tree_data")
    database.execute("CREATE TABLE tree_data AS SELECT y, x[1] AS f1, x[2] AS f2 FROM logi")
    return decision_tree.train(
        database, "tree_data", "y", [FeatureSpec("f1"), FeatureSpec("f2")],
        max_depth=3, max_numeric_candidates=8,
    )


def _cg():
    rng = np.random.default_rng(211)
    basis = rng.normal(size=(40, 40))
    matrix = basis @ basis.T + 40 * np.eye(40)
    return conjugate_gradient(lambda v: matrix @ v, rng.normal(size=40), tolerance=1e-8)


def report_table2() -> str:
    database = Database(num_segments=4)
    regression = make_regression(1500, 5, seed=221)
    load_regression_table(database, "regr", regression)
    classification = make_logistic(1500, 5, seed=222, labels_plus_minus=True)
    load_logistic_table(database, "classif", classification)
    ratings = make_ratings(40, 30, 4, density=0.3, seed=223)
    database.create_table(
        "ratings",
        [("user_id", "integer"), ("item_id", "integer"), ("rating", "double precision")],
    )
    database.load_rows("ratings", ratings)
    corpus = make_tag_corpus(30, seed=224)

    runs = [
        ("Least Squares", lambda: train_least_squares(database, "regr", max_epochs=10)),
        ("Lasso", lambda: train_lasso(database, "regr", mu=0.1, max_epochs=10)),
        ("Logistic Regression", lambda: train_logistic(database, "classif", max_epochs=10)),
        ("Classification (SVM)", lambda: train_svm(database, "classif", max_epochs=10)),
        ("Recommendation", lambda: train_recommendation(
            database, "ratings", rank=4, max_epochs=20, tolerance=1e-7).result),
        ("Labeling (CRF)", lambda: train_crf_labeling(database, corpus, max_epochs=3)),
    ]
    rows = []
    for name, runner in runs:
        start = time.perf_counter()
        result = runner()
        elapsed = time.perf_counter() - start
        rows.append(
            {
                "application": name,
                "epochs": result.num_epochs,
                "initial loss": result.initial_loss,
                "final loss": result.final_loss,
                "loss decrease": f"{result.loss_decrease():.1%}",
                "seconds": elapsed,
            }
        )
    return (
        "Table 2: models implemented through the single SGD/IGD abstraction\n"
        + format_table(rows, ["application", "epochs", "initial loss", "final loss",
                              "loss decrease", "seconds"])
    )


def report_table3() -> str:
    corpus = make_tag_corpus(120, seed=231)
    train_corpus, test_corpus = corpus.split(0.8)
    model = train_crf(train_corpus, num_epochs=4, seed=232)
    extractor = TokenFeatureExtractor(dictionaries={"names": {"tebow", "denver", "smith"}})

    rows = []

    start = time.perf_counter()
    total_features = sum(
        len(features)
        for sequence in train_corpus.sequences
        for features in extractor.sequence_features(sequence.tokens)
    )
    rows.append({"method": "Text Feature Extraction", "tasks": "POS, NER, ER",
                 "result": f"{total_features} features over {train_corpus.token_count()} tokens",
                 "seconds": time.perf_counter() - start})

    start = time.perf_counter()
    correct = total = 0
    for sequence in test_corpus.sequences:
        predicted, _ = viterbi(model, sequence.tokens)
        correct += sum(p == g for p, g in zip(predicted, sequence.labels))
        total += len(sequence)
    rows.append({"method": "Viterbi Inference", "tasks": "POS, NER",
                 "result": f"token accuracy {correct / total:.1%}",
                 "seconds": time.perf_counter() - start})

    start = time.perf_counter()
    sentence = test_corpus.sequences[0]
    mcmc = gibbs_sample(model, sentence.tokens, num_samples=150, burn_in=50, seed=233)
    confidence = float(np.mean([mcmc.confidence(i) for i in range(len(sentence.tokens))]))
    rows.append({"method": "MCMC Inference", "tasks": "NER, ER",
                 "result": f"mean MAP confidence {confidence:.2f}",
                 "seconds": time.perf_counter() - start})

    start = time.perf_counter()
    database = Database(num_segments=2)
    pairs = make_name_variants(variants_per_name=8, seed=234)
    database.create_table("mentions", [("doc_id", "integer"), ("text", "text")])
    database.load_rows("mentions", [(i, mention) for i, (_, mention) in enumerate(pairs)])
    index = TrigramIndex(database, "mentions")
    index.build()
    matches = index.search("Tim Tebow", threshold=0.4)
    rows.append({"method": "Approximate String Matching", "tasks": "ER",
                 "result": f"{len(matches)} mentions matched for 'Tim Tebow'",
                 "seconds": time.perf_counter() - start})

    return "Table 3: statistical text analysis methods\n" + format_table(
        rows, ["method", "tasks", "result", "seconds"]
    )


REPORTS = {
    "figure4": report_figure4,
    "figure5": report_figure5,
    "table1": report_table1,
    "table2": report_table2,
    "table3": report_table3,
}


def main(argv):
    targets = argv[1:] or ["all"]
    if targets == ["all"]:
        targets = list(REPORTS)
    for target in targets:
        if target not in REPORTS:
            print(f"unknown report {target!r}; choose from {', '.join(REPORTS)} or 'all'")
            return 1
        print(REPORTS[target]())
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
