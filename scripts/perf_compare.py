#!/usr/bin/env python3
"""Compare a BENCH_lookups.json run against the committed baseline.

Wall-clock lookups/sec depends on the machine, so absolute numbers are not
comparable across hosts. Instead each overlay's single-thread throughput is
normalized by the geometric mean of all overlays in the same section (same
n): machine speed cancels, and what remains is each overlay's throughput
*relative to the pack*. A code change that slows one overlay's hop loop
shows up as that overlay falling behind its own baseline ratio, no matter
how fast or slow the CI host is.

Usage:
  scripts/perf_compare.py BENCH_lookups.json                # compare
  scripts/perf_compare.py BENCH_lookups.json --update       # refresh baseline
  scripts/perf_compare.py run1.json run2.json run3.json --update
  scripts/perf_compare.py BENCH_lookups.json \
      --baseline bench/baselines/BENCH_lookups.json \
      --tolerance 0.20

A single-run cell is noisy (the n = 2^11 cells time about 66 ms each), so
refresh the baseline from several runs: given more than one candidate,
--update writes the first run's document with each overlay's single-thread
throughput replaced by its median over the runs that hold its section (so
quick n = 2^11 runs can add samples to full runs listed first).

Exit status: 0 on pass (including "no baseline yet" and "no overlapping
sections"), 1 when any overlay's normalized throughput regressed by more
than --tolerance, 2 on malformed input.

A whole-program slowdown (every overlay slower by the same factor) is
invisible to this check by construction — that is the price of being
machine-independent. The absolute numbers stay in the JSON artifacts for
eyeballing trends on a fixed CI host.
"""

import argparse
import json
import math
import shutil
import statistics
import sys

# The sections holding the per-overlay single-thread runs; the interleave
# sweep sections are wall-clock re-timings of the same workload and would
# double-count the same signal.
SECTION_PREFIX = "Lookup throughput, n = "
OVERLAY_COLUMN = "overlay"
VALUE_COLUMN = "1-thread lookups/s"


def load_report(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return None
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"perf_compare: cannot read {path}: {err}")


def throughput_by_section(report, path):
    """{section title: {overlay: 1-thread lookups/s}} for every
    lookup-throughput section in the report."""
    sections = {}
    for section in report.get("sections", []):
        title = section.get("title", "")
        if not title.startswith(SECTION_PREFIX):
            continue
        columns = section.get("columns", [])
        try:
            overlay_idx = columns.index(OVERLAY_COLUMN)
            # index() finds the single-thread column, not the N-thread one,
            # because the single-thread column is emitted first.
            value_idx = columns.index(VALUE_COLUMN)
        except ValueError:
            sys.exit(f"perf_compare: {path}: section '{title}' lacks "
                     f"'{OVERLAY_COLUMN}'/'{VALUE_COLUMN}' columns")
        rows = {}
        for row in section.get("rows", []):
            try:
                value = float(row[value_idx])
            except (IndexError, TypeError, ValueError):
                sys.exit(f"perf_compare: {path}: non-numeric throughput in "
                         f"section '{title}': {row!r}")
            if value <= 0.0:
                sys.exit(f"perf_compare: {path}: non-positive throughput in "
                         f"section '{title}': {row!r}")
            rows[str(row[overlay_idx])] = value
        if rows:
            sections[title] = rows
    return sections


def write_median_baseline(paths, baseline_path):
    """Write the first report with every overlay's single-thread throughput
    replaced by its median over the reports holding its section."""
    reports = [load_report(path) for path in paths]
    runs = [throughput_by_section(report, path)
            for report, path in zip(reports, paths)]
    merged = reports[0]
    for section in merged.get("sections", []):
        title = section.get("title", "")
        if title not in runs[0]:
            continue
        columns = section["columns"]
        overlay_idx = columns.index(OVERLAY_COLUMN)
        value_idx = columns.index(VALUE_COLUMN)
        for row in section["rows"]:
            overlay = str(row[overlay_idx])
            values = [run[title].get(overlay) for run in runs
                      if title in run]
            if None in values:
                sys.exit(f"perf_compare: '{title}' | {overlay} is missing "
                         "from some runs")
            row[value_idx] = round(statistics.median(values))
    merged.setdefault("notes", []).append(
        f"Baseline: the first '{VALUE_COLUMN}' column holds each overlay's "
        f"median over the runs that hold its section ({len(paths)} runs "
        "merged); every other column is from the first run.")
    # Same layout as bench::Report --json (one line per row), so a refresh
    # diffs row by row.
    dump = json.dumps
    lines = ["{"]
    lines += [f"  {dump(key)}: {dump(value)},"
              for key, value in merged.items()
              if key not in ("sections", "notes")]
    lines.append('  "sections": [')
    sections = merged.get("sections", [])
    for i, section in enumerate(sections):
        lines.append(f'    {{"title": {dump(section["title"])}, '
                     f'"columns": {dump(section["columns"])},')
        lines.append('     "rows": [')
        rows = section["rows"]
        lines += [f"       {dump(row, ensure_ascii=False)}"
                  f"{',' if j + 1 < len(rows) else ''}"
                  for j, row in enumerate(rows)]
        lines.append(f"     ]}}{',' if i + 1 < len(sections) else ''}")
    lines.append("  ],")
    lines.append(f'  "notes": {dump(merged["notes"], ensure_ascii=False)}')
    lines.append("}")
    with open(baseline_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def normalize(rows):
    """Each overlay's throughput divided by the section's geometric mean."""
    log_mean = sum(math.log(v) for v in rows.values()) / len(rows)
    mean = math.exp(log_mean)
    return {overlay: value / mean for overlay, value in rows.items()}


def main():
    parser = argparse.ArgumentParser(
        description="Diff BENCH_lookups.json against the committed baseline "
                    "(geometric-mean-normalized per-overlay throughput).")
    parser.add_argument("candidates", nargs="+", metavar="candidate",
                        help="freshly generated BENCH_lookups.json (several "
                             "only with --update)")
    parser.add_argument("--baseline",
                        default="bench/baselines/BENCH_lookups.json",
                        help="committed baseline document (default: "
                             "%(default)s)")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="maximum allowed relative regression of an "
                             "overlay's normalized throughput (default: "
                             "%(default)s)")
    parser.add_argument("--update", action="store_true",
                        help="copy the candidate over the baseline instead "
                             "of comparing")
    args = parser.parse_args()
    if not 0.0 < args.tolerance < 1.0:
        parser.error("--tolerance must be in (0, 1)")
    if len(args.candidates) > 1 and not args.update:
        parser.error("several candidates are only accepted with --update")

    for path in args.candidates:
        report = load_report(path)
        if report is None:
            sys.exit(f"perf_compare: candidate {path} does not exist")
        if not throughput_by_section(report, path):
            sys.exit(f"perf_compare: {path}: no '{SECTION_PREFIX}...' "
                     "sections found")

    if args.update:
        if len(args.candidates) == 1:
            shutil.copyfile(args.candidates[0], args.baseline)
        else:
            write_median_baseline(args.candidates, args.baseline)
        print(f"perf_compare: baseline {args.baseline} updated from "
              f"{', '.join(args.candidates)}")
        return 0

    candidate_path = args.candidates[0]
    candidate_sections = throughput_by_section(load_report(candidate_path),
                                               candidate_path)

    baseline = load_report(args.baseline)
    if baseline is None:
        print(f"perf_compare: no baseline at {args.baseline} — nothing to "
              "compare (run with --update to create one). PASS")
        return 0
    baseline_sections = throughput_by_section(baseline, args.baseline)

    compared = 0
    regressions = []
    for title, cand_rows in sorted(candidate_sections.items()):
        base_rows = baseline_sections.get(title)
        if base_rows is None:
            print(f"perf_compare: skipping '{title}' (not in baseline)")
            continue
        overlays = sorted(set(cand_rows) & set(base_rows))
        if not overlays:
            continue
        cand_norm = normalize({o: cand_rows[o] for o in overlays})
        base_norm = normalize({o: base_rows[o] for o in overlays})
        for overlay in overlays:
            compared += 1
            ratio = cand_norm[overlay] / base_norm[overlay]
            marker = "OK  "
            if ratio < 1.0 - args.tolerance:
                marker = "FAIL"
                regressions.append((title, overlay, ratio))
            print(f"  {marker} {title} | {overlay:<12} "
                  f"normalized {base_norm[overlay]:7.3f} -> "
                  f"{cand_norm[overlay]:7.3f}  ({(ratio - 1.0) * 100:+6.1f}%)")

    if compared == 0:
        print("perf_compare: no overlapping sections between candidate and "
              "baseline — nothing to compare. PASS")
        return 0
    if regressions:
        print(f"perf_compare: {len(regressions)} overlay(s) regressed more "
              f"than {args.tolerance:.0%} vs geometric-mean-normalized "
              "baseline:")
        for title, overlay, ratio in regressions:
            print(f"  {overlay} in '{title}': {(1.0 - ratio) * 100:.1f}% "
                  "below baseline")
        return 1
    print(f"perf_compare: {compared} overlay measurements within "
          f"{args.tolerance:.0%} of baseline. PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
