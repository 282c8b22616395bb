"""Command-line front-end.

Exit codes: 0 on success, 1 on a pipeline/processing error, 2 on usage or
I/O problems and on every error ``catalog.ingest`` raises (missing file,
malformed record, dangling reference, wrong embedding dimension).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from . import catalog
from .errors import CastgraphError, DanglingReference, DimensionMismatch, MalformedRecord, MissingFile
from .pipeline import CHECKPOINTS, TABLE, PipelineConfig, PipelineRun
from .synth import GroundTruth, SynthConfig, check_corruption, corrupt, generate


def _add_cluster_flags(parser: argparse.ArgumentParser) -> None:
    """A flag per PipelineConfig field, named and defaulting as that field."""
    defaults = PipelineConfig()
    parser.add_argument("--min-cluster-size", type=int, default=defaults.min_cluster_size)
    parser.add_argument("--min-samples", type=int, default=defaults.min_samples)
    parser.add_argument("--dbscan-eps", type=float, default=defaults.dbscan_eps)
    parser.add_argument("--conf-threshold", type=float, default=defaults.conf_threshold)
    parser.add_argument("--min-votes", type=int, default=defaults.min_votes)
    parser.add_argument("--min-segment-s", type=float, default=defaults.min_segment_s)
    parser.add_argument("--resume", action="store_true", default=defaults.resume)


# each pipeline command: its help and the last stage it runs
COMMANDS = {
    "run": ("run the full pipeline", "report"),
    "diarize": ("run through per-video diarization", "diarize"),
    "cluster": ("run through global clustering", "cluster_speakers"),
    "bridge": ("run through identity resolution", "bridge"),
    "graph": ("run through the collaboration graph", "graph"),
    "eval": ("run everything and score against ground truth", "report"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="castgraph",
        description="Resolve person identities across videos and build collaboration graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset with ground truth")
    p.add_argument("--out", type=Path, required=True)
    # a flag per SynthConfig field, defaulting as that field
    synth = SynthConfig()
    p.add_argument("--channels", dest="n_channels", type=int, default=synth.n_channels)
    p.add_argument("--videos", dest="n_videos", type=int, default=synth.n_videos)
    p.add_argument("--identities", dest="n_identities", type=int, default=synth.n_identities)
    p.add_argument("--face-dim", dest="face_dim", type=int, default=synth.face_dim)
    p.add_argument("--speaker-dim", dest="speaker_dim", type=int, default=synth.speaker_dim)
    p.add_argument("--noise-deg", dest="angular_noise_deg", type=float, default=synth.angular_noise_deg)
    p.add_argument("--offscreen-fraction", dest="offscreen_speaker_fraction", type=float,
                   default=synth.offscreen_speaker_fraction)
    p.add_argument("--collab-rate", dest="collaboration_rate", type=float, default=synth.collaboration_rate)
    p.add_argument("--growth-ratio", dest="planted_growth_ratio", type=float, default=synth.planted_growth_ratio)
    p.add_argument("--seed", dest="rng_seed", type=int, default=synth.rng_seed)
    p.add_argument("--dropout", type=float, default=0.0)
    p.add_argument("--conf-noise", type=float, default=0.0)

    p = sub.add_parser("validate", help="check a dataset directory")
    p.add_argument("dataset", type=Path)

    for name, (help_text, upto) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("dataset", type=Path)
        p.add_argument("--out", type=Path, required=True)
        _add_cluster_flags(p)
        if upto == "report":  # only the report reads a ground truth
            p.add_argument("--ground-truth", type=Path, required=name == "eval")

    p = sub.add_parser("export-dot", help="print the collaboration graph a run wrote, as DOT")
    p.add_argument("--out", type=Path, required=True, help="pipeline output directory")

    return parser


def _print_files(*paths: Path) -> None:
    """Write the files to stdout byte for byte, an empty line between two."""
    sys.stdout.flush()
    sys.stdout.buffer.write(b"\n".join(path.read_bytes() for path in paths))


def _run_stages(args, config: PipelineConfig, upto: str, show_table: bool = False) -> int:
    truth = GroundTruth.load(args.ground_truth) if vars(args).get("ground_truth") else None
    args.out.mkdir(parents=True, exist_ok=True)  # a bad ground truth or --out fails before any ingest
    ds = catalog.ingest(args.dataset)
    run = PipelineRun(ds, args.out, config)
    if upto != "report":
        run.run_until(upto)
        print(json.dumps({"completed_through": upto}, indent=2))
        return 0
    run.run(truth)
    _print_files(args.out / CHECKPOINTS["report"], *([args.out / TABLE] if show_table else []))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # a bad setting is a usage error, found before any input is read or written
    try:
        if args.command in COMMANDS:
            config = PipelineConfig(**{f.name: getattr(args, f.name) for f in fields(PipelineConfig)})
        if args.command == "synth":
            cfg = SynthConfig(**{f.name: getattr(args, f.name) for f in fields(SynthConfig)})
            check_corruption(args.dropout, args.conf_noise)
    except (ValueError, CastgraphError) as exc:
        parser.error(str(exc))
    try:
        if args.command == "synth":
            ds, truth = generate(cfg)
            if args.dropout > 0.0 or args.conf_noise > 0.0:
                ds = corrupt(ds, args.dropout, args.conf_noise, seed=cfg.rng_seed)
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
            _print_files(args.out / "graph.dot")
            return 0

        return _run_stages(args, config, COMMANDS[args.command][1], show_table=args.command == "eval")

    except (MissingFile, MalformedRecord, DanglingReference, DimensionMismatch, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CastgraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
