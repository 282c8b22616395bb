"""Command-line front-end.

Exit codes: 0 on success, 1 on a pipeline/processing error, 2 on usage or
I/O problems and on every error ``catalog.ingest`` raises (missing file,
malformed record, dangling reference, wrong embedding dimension).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import catalog, collabgraph
from .distcluster import FALLBACK_EPS
from .errors import CastgraphError, DanglingReference, DimensionMismatch, MalformedRecord, MissingFile
from .metrics import format_evaluation_table
from .pipeline import CHECKPOINTS, PipelineConfig, PipelineRun
from .synth import GroundTruth, SynthConfig, corrupt, generate


def _add_cluster_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--min-cluster-size", type=int, default=2)
    parser.add_argument("--min-samples", type=int, default=None)
    parser.add_argument("--dbscan-eps", type=float, default=FALLBACK_EPS)
    parser.add_argument("--conf-threshold", type=float, default=0.5)
    parser.add_argument("--min-votes", type=int, default=1)
    parser.add_argument("--min-segment-s", type=float, default=1.0)
    parser.add_argument("--resume", action="store_true")
    parser.add_argument("--ground-truth", type=Path, default=None)


def _config(args) -> PipelineConfig:
    return PipelineConfig(
        min_cluster_size=args.min_cluster_size,
        min_samples=args.min_samples,
        dbscan_eps=args.dbscan_eps,
        conf_threshold=args.conf_threshold,
        min_votes=args.min_votes,
        min_segment_s=args.min_segment_s,
        resume=args.resume,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="castgraph",
        description="Resolve person identities across videos and build collaboration graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset with ground truth")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--channels", type=int, default=9)
    p.add_argument("--videos", type=int, default=72)
    p.add_argument("--identities", type=int, default=9)
    p.add_argument("--face-dim", type=int, default=catalog.DEFAULT_FACE_DIM)
    p.add_argument("--speaker-dim", type=int, default=catalog.DEFAULT_SPEAKER_DIM)
    p.add_argument("--noise-deg", type=float, default=0.0)
    p.add_argument("--offscreen-fraction", type=float, default=0.0)
    p.add_argument("--collab-rate", type=float, default=0.0)
    p.add_argument("--growth-ratio", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dropout", type=float, default=0.0)
    p.add_argument("--conf-noise", type=float, default=0.0)

    p = sub.add_parser("validate", help="check a dataset directory")
    p.add_argument("dataset", type=Path)

    for name, help_text in (
        ("run", "run the full pipeline"),
        ("diarize", "run through per-video diarization"),
        ("cluster", "run through global clustering"),
        ("bridge", "run through identity resolution"),
        ("graph", "run through the collaboration graph"),
        ("eval", "run everything and score against ground truth"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("dataset", type=Path)
        p.add_argument("--out", type=Path, required=True)
        _add_cluster_flags(p)

    p = sub.add_parser("export-dot", help="print the collaboration graph as DOT")
    p.add_argument("dataset", type=Path)
    p.add_argument("--out", type=Path, required=True, help="pipeline output directory")

    return parser


_STAGE_CUTOFF = {
    "diarize": "diarize",
    "cluster": "cluster_speakers",
    "bridge": "bridge",
    "graph": "graph",
    "run": "graph",
    "eval": "graph",
}


def _run_stages(args, config: PipelineConfig, upto: str, show_table: bool = False) -> int:
    ds = catalog.ingest(args.dataset)
    truth = None
    if args.ground_truth is not None:
        truth = GroundTruth.load(args.ground_truth)
    run = PipelineRun(ds, args.out, config)
    if upto == "graph":
        report = run.run(truth)
    else:
        run.run_until(upto)
        report = {"completed_through": upto}
    print(json.dumps(report, indent=2, sort_keys=True))
    if show_table and "evaluation" in report:
        print()
        print(format_evaluation_table(report["evaluation"]), end="")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in _STAGE_CUTOFF:
        # a bad setting is a usage error, found before any input is read or written
        try:
            config = _config(args)
        except ValueError as exc:
            parser.error(str(exc))
    try:
        if args.command == "synth":
            cfg = SynthConfig(
                n_channels=args.channels,
                n_videos=args.videos,
                n_identities=args.identities,
                face_dim=args.face_dim,
                speaker_dim=args.speaker_dim,
                angular_noise_deg=args.noise_deg,
                offscreen_speaker_fraction=args.offscreen_fraction,
                collaboration_rate=args.collab_rate,
                planted_growth_ratio=args.growth_ratio,
                rng_seed=args.seed,
            )
            ds, truth = generate(cfg)
            if args.dropout > 0.0 or args.conf_noise > 0.0:
                ds = corrupt(ds, args.dropout, args.conf_noise, seed=args.seed)
            args.out.mkdir(parents=True, exist_ok=True)
            catalog.write(ds, args.out)
            truth.save(args.out / "ground_truth.json")
            print(f"wrote {len(ds.videos)} videos, {len(ds.tracks)} tracks, "
                  f"{len(ds.segments)} segments to {args.out}")
            return 0

        if args.command == "validate":
            catalog.ingest(args.dataset)
            print("0 violation(s)")
            return 0

        if args.command == "export-dot":
            graph_file = args.out / CHECKPOINTS["graph"]
            payload = catalog.load_json(graph_file)
            ds = catalog.ingest(args.dataset)
            try:
                edges = collabgraph.edges_from_json(payload["edges"])
            except (KeyError, TypeError, ValueError) as exc:
                raise MalformedRecord(graph_file, 0, f"bad graph: {exc!r}") from exc
            sys.stdout.write(collabgraph.collab_graph_dot(ds, edges))
            return 0

        return _run_stages(args, config, _STAGE_CUTOFF[args.command], show_table=args.command == "eval")

    except (MissingFile, MalformedRecord, DanglingReference, DimensionMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CastgraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
